"""Per-layer spans for the traced benchmark run, recorded from outside the library.

The tracer replaces public evograph functions with timing wrappers in every
module namespace that binds them, so a call through ``from .models import
train`` is seen as well as one through ``evograph.models.train``.  Each span
adds to its name's call count, inclusive seconds and self seconds (inclusive
minus the time covered by directly nested spans).  A function that no longer
exists is skipped and reports zero calls.

Process-pool workers forked by ``evograph run --jobs N`` inherit the wrappers.
A worker discards the state it inherited, and at the end of each outermost
span (one seed job) writes its totals to a spool directory, which the parent
merges with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_train_vertices(tr, args, kwargs, result):
    tr.add("models.train_vertices", _arg(args, kwargs, 1, "g").num_vertices)


def _note_graph(tr, args, kwargs, result):
    tr.graphs.add(_arg(args, kwargs, 0, "g"))


def _count_bytes(tr, args, kwargs, result):
    root = Path(_arg(args, kwargs, 0, "path"))
    tr.add("dataio.bytes_read", sum(p.stat().st_size for p in root.iterdir() if p.is_file()))


def _count_pairs(tr, args, kwargs, result):
    tr.add("tdiff.pairs", sum(result.counts.values()))


# (module, attribute, span name, hook run after a successful call);
# an attribute "Class.method" wraps the method on the class.
SPANS = [
    ("models", "mean_propagation", "models.mean_propagation", _note_graph),
    ("models", "loss_and_grad", "models.loss_and_grad", None),
    ("models", "loss_from_logits", "models.loss_from_logits", None),
    ("models", "adam_step", "models.adam_step", None),
    ("models", "forward", "models.forward", None),
    ("models", "model_inputs", "models.model_inputs", None),
    ("models", "train", "models.train", _count_train_vertices),
    ("models", "save_checkpoint", "models.save_checkpoint", None),
    ("graph", "trim_history", "graph.trim_history", None),
    ("graph", "build_task_sequence", "graph.build_task_sequence", None),
    ("graph", "induced_subgraph", "graph.induced_subgraph", None),
    ("graph", "TemporalGraph.adjacency", "graph.adjacency", None),
    ("tdiff", "k_hop_time_diffs", "tdiff.k_hop_time_diffs", _count_pairs),
    ("tdiff", "percentile", "tdiff.percentile", None),
    ("dataio", "load_dataset", "dataio.load_dataset", _count_bytes),
    ("dataio", "dataset_fingerprint", "dataio.dataset_fingerprint", None),
    ("dataio", "save_dataset", "dataio.save_dataset", None),
    ("openworld", "fit_thresholds", "openworld.fit_thresholds", None),
    ("openworld", "predict_open", "openworld.predict_open", None),
    ("openworld", "class_weights", "openworld.class_weights", None),
    # one loop under two entry points: their self times add up to its bookkeeping
    ("lifelong", "run_sequence", "lifelong.run_sequence", None),
    ("lifelong", "run_sequence_with_model", "lifelong.run_sequence", None),
    ("lifelong", "two_task_experiment", "lifelong.two_task_experiment", None),
    ("metrics", "open_macro_f1", "metrics.open_macro_f1", None),
    ("metrics", "drift_magnitude", "metrics.drift_magnitude", None),
    ("metrics", "MetricsReport.to_jsonl", "metrics.to_jsonl", None),
    ("cli", "cmd_run", "cli.cmd_run", None),
    ("cli", "cmd_analyze", "cli.cmd_analyze", None),
    ("cli", "_seed_job", "cli.seed_job", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "write_manifest", "config.write_manifest", None),
    ("synth", "generate", "synth.generate", None),
]


class Tracer:
    """Span totals per name plus work counters; see the module docstring."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.worker = False
        self._spooled = 0
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.counts = {}  # counter name -> total
        self.graphs = set()  # distinct graphs given to mean_propagation
        self._stack = []  # per open span: seconds covered by its children

    def add(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                tracer._close(name, time.perf_counter() - t0)

        return wrapper

    def _close(self, name: str, dt: float) -> None:
        children = self._stack.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - children
        if self._stack:
            self._stack[-1] += dt
        elif self.worker:
            self._spool()

    def _become_worker(self) -> None:
        self.pid = os.getpid()
        self.worker = True
        self._spooled = 0
        self.reset()

    def _spool(self) -> None:
        path = self.spool_dir / f"{self.pid}-{self._spooled}.json"
        self._spooled += 1
        totals = {"stats": self.stats, "counts": self.counts, "graphs": len(self.graphs)}
        path.write_text(json.dumps(totals), encoding="utf-8")
        self.reset()

    def collect(self) -> None:
        """Merge and delete the totals that worker processes spooled."""
        for path in sorted(self.spool_dir.glob("*.json")):
            part = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for name, (calls, total, own) in part["stats"].items():
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += own
            for counter, amount in part["counts"].items():
                self.add(counter, amount)
            self.add("models.graphs", part["graphs"])

    def snapshot(self) -> dict:
        """Totals so far, with this process's distinct-graph count folded in."""
        self.collect()
        out = {"stats": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}
        out["counts"]["models.graphs"] = out["counts"].get("models.graphs", 0) + len(self.graphs)
        return out

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "evograph" or k.startswith("evograph.")]
        for module, attr, name, hook in SPANS:
            owner = sys.modules.get(f"evograph.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, hook)
            if path:
                self._patch(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
