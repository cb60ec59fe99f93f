"""The benchmark's workloads: set-up, one operation, and its output checks.

Each workload turns the benchmark seed into its inputs; the library only sees
the generated graphs, config files and training seeds.  ``run(i)`` is the
timed operation, ``check(i, out)`` validates its output against the
benchmark's own expectations and raises :class:`CheckError` on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import evograph as eg
from evograph.cli import main as cli_main

EPOCHS = 200
PRETRAIN_EPOCHS = 200
INFERENCE_EPOCHS = 35

# the acceptance suite's frozen benchmark graphs
SEQ_BENCH = eg.SynthConfig(
    num_timestamps=14, vertices_per_timestamp=20, num_initial_classes=4,
    new_class_schedule={6: 1, 9: 1}, class_skew=1.3, feature_dim=16, feature_noise=0.5,
    intra_class_edge_prob=0.08, inter_class_edge_prob=0.01, window_back=3, seed=20,
)
DET_BENCH = eg.SynthConfig(
    num_timestamps=14, vertices_per_timestamp=80, num_initial_classes=10,
    new_class_schedule={7: 2}, class_skew=0.8, feature_dim=16, feature_noise=0.4,
    intra_class_edge_prob=0.15, inter_class_edge_prob=0.015, window_back=3, seed=20,
)


class CheckError(Exception):
    """An operation's output failed a benchmark check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def labeled_test_counts(g) -> list:
    """Labeled vertices per evaluation task, by the 25%-start rule, computed independently."""
    ts, per_ts = np.unique(g.time, return_counts=True)
    start = min(int(np.searchsorted(np.cumsum(per_ts), 0.25 * g.num_vertices)), ts.size - 1)
    return [int(((g.time == t) & (g.labels >= 0)).sum()) for t in ts[start + 1:]]


def check_sequence_report(text: str, expected: list) -> dict:
    """Validate one seed's JSON-lines report; return its summary object."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    tasks = [obj for obj in lines if obj.get("kind") == "task"]
    summaries = [obj for obj in lines if obj.get("kind") == "summary"]
    _require(len(tasks) == len(expected), f"{len(tasks)} task records, expected {len(expected)}")
    _require(len(summaries) == 1, "report needs exactly one summary")
    for rec, n_test in zip(tasks, expected):
        total = rec["tp"] + rec["tn"] + rec["fp"] + rec["fn"]
        _require(total == n_test, f"task {rec['t']}: tp+tn+fp+fn={total}, labeled test vertices {n_test}")
        _require(0.0 <= rec["accuracy"] <= 1.0, f"task {rec['t']}: accuracy {rec['accuracy']}")
        _require(0.0 <= rec["open_f1"] <= 1.0, f"task {rec['t']}: open_f1 {rec['open_f1']}")
    summary = summaries[0]
    _require(summary["num_tasks"] == len(expected), "summary task count")
    _require(0.0 <= summary["avg_accuracy"] <= 1.0, "summary accuracy out of [0, 1]")
    return summary


class DetGdoc:
    """In-process ``run_sequence`` with SAGE + gDOC, one training seed per operation."""

    kernel = "numeric"  # calibration kernel, see run.slowdown
    cycle = 1
    quality_ops = 6
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path, jobs: int):
        self.seed = seed
        self.detector = eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=2.0, use_risk_reduction=True)

    def setup(self) -> None:
        self.g = eg.generate(DET_BENCH)

    def prepare(self) -> None:
        self.expected = labeled_test_counts(self.g)

    def run(self, i: int):
        s = 10 * self.seed + i % 10
        cfg = eg.ExperimentConfig(
            model="sage", epochs=EPOCHS, history_size=3, restart="warm", learning_rate=0.02,
            weight_decay=5e-3, seeds=(s,), detector=self.detector,
        )
        return eg.run_sequence(self.g, cfg, seed=s).to_jsonl()

    def check(self, i: int, text) -> dict:
        summary = check_sequence_report(text, self.expected)
        return {
            "work": len(self.expected) * EPOCHS,
            "sha256": sha256(text),
            "avg_accuracy": summary["avg_accuracy"],
            "mcc": summary["mcc"],
            "open_macro_f1": summary["open_macro_f1"],
        }

    @staticmethod
    def quality(ok_ops: list) -> dict:
        out = {k: float(np.mean([op[k] for op in ok_ops])) for k in ("avg_accuracy", "mcc", "open_macro_f1")}
        out["quality"] = out["open_macro_f1"]
        return out


SWEEP = [
    {"model": "mlp", "history_size": "1", "restart": "cold"},
    {"model": "sgc", "history_size": "full", "restart": "warm"},
    {"model": "sage", "history_size": "1", "restart": "warm"},
    {"model": "sage", "history_size": "full", "restart": "cold"},
    {"mode": "two-task", "model": "sage"},
]
SWEEP_SEEDS = 4


class SeqSweep:
    """In-process ``evograph run --jobs N`` cycling five configs over SEQ_BENCH on disk."""

    kernel = "numeric"  # calibration kernel, see run.slowdown
    cycle = len(SWEEP)
    quality_ops = len(SWEEP)
    setup_repeats = 5

    def __init__(self, seed: int, workdir: Path, jobs: int):
        self.workdir = workdir
        self.jobs = jobs
        self.data = workdir / "seq_bench"
        seeds = ",".join(str(SWEEP_SEEDS * seed + j) for j in range(SWEEP_SEEDS))
        self.configs = [
            {"dataset": str(self.data), "epochs": str(EPOCHS), "pretrain_epochs": str(PRETRAIN_EPOCHS),
             "inference_epochs": str(INFERENCE_EPOCHS), "seeds": seeds, **entry}
            for entry in SWEEP
        ]

    def setup(self) -> None:
        self.g = eg.generate(SEQ_BENCH)
        eg.save_dataset(self.g, self.data)
        for k, cfg in enumerate(self.configs):
            text = "".join(f"{key}={value}\n" for key, value in cfg.items())
            (self.workdir / f"sweep{k}.cfg").write_text(text, encoding="utf-8")

    def prepare(self) -> None:
        self.expected = labeled_test_counts(self.g)

    def run(self, i: int):
        out = self.workdir / f"run{i}"
        argv = ["run", "--config", str(self.workdir / f"sweep{i % self.cycle}.cfg"),
                "--output-dir", str(out), "--jobs", str(self.jobs), "--quiet"]
        return cli_main(argv), out

    def check(self, i: int, result) -> dict:
        code, out = result
        try:
            _require(code == 0, f"exit code {code}")
            _require((out / "manifest.json").is_file(), "manifest.json missing")
            _require((out / "summary.json").is_file(), "summary.json missing")
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            cfg = self.configs[i % self.cycle]
            seeds = cfg["seeds"].split(",")
            texts = [(out / f"report_seed{s}.jsonl").read_text(encoding="utf-8") for s in seeds]
            info = {"sha256": sha256("".join(texts)), "seed_jobs": len(seeds), "config": i % self.cycle}
            if cfg.get("mode") == "two-task":
                for text in texts:
                    lines = [json.loads(line) for line in text.splitlines()]
                    acc = [obj["accuracy"] for obj in lines if obj.get("kind") == "epoch"]
                    _require(len(acc) == INFERENCE_EPOCHS + 1, f"{len(acc)} two-task epochs")
                    _require(all(0.0 <= a <= 1.0 for a in acc), "two-task accuracy out of [0, 1]")
                info["work"] = len(seeds) * (PRETRAIN_EPOCHS + INFERENCE_EPOCHS)
                info["accuracy"] = summary["final_accuracy"]["mean"]
            else:
                for text in texts:
                    check_sequence_report(text, self.expected)
                info["work"] = len(seeds) * len(self.expected) * EPOCHS
                info["accuracy"] = summary["avg_accuracy"]["mean"]
            return info
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def quality(ok_ops: list) -> dict:
        seq = [op["accuracy"] for op in ok_ops if SWEEP[op["config"]].get("mode") != "two-task"]
        two = [op["accuracy"] for op in ok_ops if SWEEP[op["config"]].get("mode") == "two-task"]
        return {
            "avg_accuracy": float(np.mean(seq)) if seq else 0.0,
            "two_task_final_accuracy": float(np.mean(two)) if two else 0.0,
            "quality": float(np.mean([op["accuracy"] for op in ok_ops])),
        }


TDIFF_K = 2
TDIFF_PERCENTILES = (25, 50, 75, 100)  # analyze-tdiff's default --percentiles


def reference_histogram(g, k: int) -> np.ndarray:
    """Counts per time difference over pairs within k hops, by sparse matrix powers."""
    A = (g.adjacency() > 0).astype(np.int64)
    reach, power = A.copy(), A
    for _ in range(k - 1):
        power = power @ A
        reach = reach + power
    reach = sp.csr_matrix(reach)
    reach.setdiag(0)
    reach.eliminate_zeros()
    reach = reach.tocoo()
    diffs = g.time[reach.row] - g.time[reach.col]
    return np.bincount(diffs[diffs >= 0])


class TdiffScale:
    """In-process ``evograph analyze-tdiff --k 2`` on a saved 20k-vertex graph."""

    kernel = "search"  # calibration kernel, see run.slowdown
    cycle = 1
    quality_ops = 1
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, jobs: int):
        self.workdir = workdir
        self.data = workdir / "tdiff_graph"
        self.synth = eg.SynthConfig(
            num_timestamps=50, vertices_per_timestamp=400, num_initial_classes=6,
            new_class_schedule={20: 1, 35: 1}, feature_dim=16, intra_class_edge_prob=0.01,
            inter_class_edge_prob=0.001, window_back=3, seed=seed,
        )

    def setup(self) -> None:
        self.g = eg.generate(self.synth)
        eg.save_dataset(self.g, self.data)

    def prepare(self) -> None:
        ref = reference_histogram(self.g, TDIFF_K)
        self.histogram = {str(d): int(c) for d, c in enumerate(ref) if c}
        cum, total = np.cumsum(ref), int(ref.sum())
        self.percentiles = {
            str(float(p)): int(np.searchsorted(cum, math.ceil(p / 100.0 * total))) for p in TDIFF_PERCENTILES
        }

    def run(self, i: int):
        out = self.workdir / "analysis"
        argv = ["analyze-tdiff", str(self.data), "--k", str(TDIFF_K), "--quiet", "--output-dir", str(out)]
        return cli_main(argv), out

    def check(self, i: int, result) -> dict:
        code, out = result
        try:
            _require(code == 0, f"exit code {code}")
            text = (out / "tdiff.json").read_text(encoding="utf-8")
            report = json.loads(text)
            hist = {d: int(c) for d, c in report["histogram"].items()}
            total = sum(self.histogram.values())
            agree = sum(min(c, hist.get(d, 0)) for d, c in self.histogram.items())
            _require(hist == self.histogram, f"histogram differs from the reference ({agree} of {total} pairs agree)")
            _require(report["percentiles"] == self.percentiles, f"percentiles {report['percentiles']}")
            _require(report["num_vertices"] == self.g.num_vertices, "vertex count")
            return {"work": self.g.num_vertices, "sha256": sha256(text), "agreement": agree / total}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def quality(ok_ops: list) -> dict:
        return {"quality": float(np.mean([op["agreement"] for op in ok_ops]))}


WORKLOADS = {"det-gdoc": DetGdoc, "seq-sweep": SeqSweep, "tdiff-scale": TdiffScale}
