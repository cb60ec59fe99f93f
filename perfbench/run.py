"""evograph benchmark: one workload, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload det-gdoc --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from ``--seed``, repeats the set-up and
reports its median, then runs operations back to back for ``--seconds``
(always finishing a whole cycle of the workload's configs), checks every
output, and prints one JSON object as the last line of standard output.
End-to-end times are wall seconds divided by the host's slowdown measured
next to them (see ``slowdown``); the raw wall times are in the details.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one cycle
untraced, then the traced loop, and reports the per-layer metrics.  Machine
facts and per-operation details go to the lines before it and to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "op_s_p50": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "quality": "ratio",
}

# derived per-layer metrics; every other name is "<span>.calls|s|self_s"
DERIVED_UNITS = {
    "models.window_vertices_mean": "vertices",
    "models.propagation_builds_per_graph": "ratio",
    "tdiff.pairs": "count",
    "dataio.bytes_read": "B",
    "cli.pool_busy_share": "ratio",
    "trace_overhead_ratio": "ratio",
}
# A shared host runs this process up to ~1.8x slower for minutes at a time,
# the program and any fixed code alike.  Every end-to-end time is therefore
# divided by the host's slowdown, measured right before and after it with a
# fixed kernel (see ``slowdown``): seconds at idle-host speed.
CAL_REPEATS = 5

SPAN_FIELDS = {"calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s")}
# spans that run in set-up, reported per set-up rather than per operation
SETUP_SPANS = ("synth.generate", "dataio.save_dataset")

PER_LAYER = [
    "models.mean_propagation.calls", "models.mean_propagation.s",
    "models.loss_and_grad.calls", "models.loss_and_grad.self_s",
    "models.loss_from_logits.s", "models.adam_step.s", "models.forward.s",
    "models.model_inputs.s", "models.train.calls", "models.train.s",
    "models.save_checkpoint.s", "models.window_vertices_mean",
    "models.propagation_builds_per_graph",
    "graph.trim_history.calls", "graph.trim_history.s", "graph.build_task_sequence.s",
    "graph.induced_subgraph.s", "graph.adjacency.calls", "graph.adjacency.s",
    "tdiff.k_hop_time_diffs.s", "tdiff.percentile.s", "tdiff.pairs",
    "dataio.load_dataset.calls", "dataio.load_dataset.s", "dataio.bytes_read",
    "dataio.dataset_fingerprint.s", "dataio.save_dataset.s",
    "openworld.fit_thresholds.s", "openworld.predict_open.s", "openworld.class_weights.s",
    "lifelong.run_sequence.self_s", "lifelong.two_task_experiment.self_s",
    "metrics.open_macro_f1.s", "metrics.drift_magnitude.s", "metrics.to_jsonl.s",
    "cli.cmd_run.self_s", "cli.cmd_analyze.self_s", "cli.seed_job.s", "cli.pool_busy_share",
    "config.load_config.s", "config.write_manifest.s",
    "synth.generate.s",
    "trace_overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return SPAN_FIELDS[name.rsplit(".", 1)[1]][1]


def git_commit(root: Path):
    """HEAD commit read from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(jobs: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "worker_processes": jobs,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


@functools.lru_cache(maxsize=1)
def _cal_inputs():
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(1)
    src, dst = rng.integers(0, 3000, (2, 12_000))
    g = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(3000, 3000))
    g = (g + g.T).tocsr()
    return g.indptr, g.indices, rng.standard_normal((64, 64))


def _search_kernel() -> None:
    # 2-hop searches with Python sets over numpy index arrays
    indptr, indices, _ = _cal_inputs()
    for source in range(0, 3000, 10):
        seen, frontier = {source}, [source]
        for _hop in range(2):
            nxt = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt


def _numeric_kernel() -> None:
    # an interpreter loop and small numpy products
    import numpy as np

    a = _cal_inputs()[2]
    total = 0
    for i in range(250_000):
        total += i
    b = a
    for _ in range(75):
        b = np.tanh(a @ b * 0.01)


# Each workload is calibrated with the kernel closest to its own work, because
# a slow phase stretches interpreter-bound search more than numeric code:
# name -> (kernel, its seconds on an idle 2 GHz vCPU).
KERNELS = {"search": (_search_kernel, 0.0065), "numeric": (_numeric_kernel, 0.012)}


def slowdown(kernel: str) -> float:
    """How many times slower than idle the host runs a kernel now (median of CAL_REPEATS).

    The calibration inputs and numpy are built and imported on first use, not
    at the top, so that the import counts in ``setup_s``.
    """
    run, idle_s = KERNELS[kernel]
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / idle_s


def rescale(wall: float, slow_before: float, slow_after: float) -> float:
    """Wall seconds at idle-host speed, from the slowdowns measured around them."""
    return wall / ((slow_before + slow_after) / 2)


def run_one(wl, i: int) -> dict:
    """One timed operation plus its checks; a failure is recorded, not raised."""
    t0 = time.perf_counter()
    try:
        out = wl.run(i)
        wall = time.perf_counter() - t0
        return {"i": i, "wall": wall, "ok": True, **wl.check(i, out)}
    except (Exception, SystemExit) as exc:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return {"i": i, "wall": wall, "ok": False, "error": repr(exc)}


def run_loop(wl, seconds: float, max_ops, after_op=None) -> list:
    """Closed loop: operations back to back until time is up and a cycle is complete."""
    ops = []
    t_start = time.perf_counter()
    cal = slowdown(wl.kernel)
    while True:
        op = run_one(wl, len(ops))
        if after_op is not None:
            after_op()
        cal_after = slowdown(wl.kernel)
        op["cal"] = (cal, cal_after)
        op["s"] = rescale(op["wall"], cal, cal_after)
        ops.append(op)
        cal = cal_after
        n = len(ops)
        if max_ops is not None:
            if n >= max_ops:
                return ops
        elif time.perf_counter() - t_start >= seconds and n >= wl.quality_ops and n % wl.cycle == 0:
            return ops


def config_medians(wl, ops, key: str) -> list:
    """Median of ``op[key]`` per config of the workload's cycle.

    A plain median over a cycle of configs that differ 6x in cost would be the
    time of whichever config sits in the middle; per-config medians weigh each
    config once.  Failed operations carry no ``work`` and are skipped for it.
    """
    out = []
    for k in range(min(wl.cycle, len(ops))):
        values = [op[key] for op in ops[k::wl.cycle] if key in op]
        out.append(statistics.median(values) if values else 0.0)
    return out


def end_to_end(wl, ops, setup_s) -> tuple[dict, dict]:
    ok_ops = [op for op in ops if op["ok"]]
    first_ok = [op for op in ops[: wl.quality_ops] if op["ok"]]
    quality = wl.quality(first_ok) if first_ok else {"quality": 0.0}
    op_s = config_medians(wl, ops, "s")
    values = {
        "op_s_p50": statistics.mean(op_s),
        "setup_s": setup_s,
        "work_per_s": sum(config_medians(wl, ops, "work")) / sum(op_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": len(ok_ops) / len(ops),
        "quality": quality["quality"],
    }
    detail = {**quality, "fail_ratio": 1.0 - values["ok_ratio"], "op_s_p50_samples": len(ops),
              "op_wall_s_p50": statistics.median(op["wall"] for op in ops),
              "slowdown_p50": statistics.median(op["cal"][0] for op in ops)}
    return values, detail


def per_layer(totals: dict, setup_totals: dict, n_ops: int, jobs: int, overhead: float) -> dict:
    stats, counts = totals["stats"], totals["counts"]

    def span(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "models.window_vertices_mean": ratio(counts.get("models.train_vertices", 0), span("models.train", 0)),
        "models.propagation_builds_per_graph": ratio(
            span("models.mean_propagation", 0), counts.get("models.graphs", 0)
        ),
        "tdiff.pairs": counts.get("tdiff.pairs", 0) / n_ops,
        "dataio.bytes_read": counts.get("dataio.bytes_read", 0) / n_ops,
        "cli.pool_busy_share": ratio(span("cli.seed_job", 1), jobs * span("cli.cmd_run", 1)),
        "trace_overhead_ratio": overhead,
    }
    values = {}
    for name in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
            continue
        span_name, field = name.rsplit(".", 1)
        index = SPAN_FIELDS[field][0]
        if span_name in SETUP_SPANS:
            values[name] = setup_totals["stats"].get(span_name, (0, 0.0, 0.0))[index]
        else:
            values[name] = span(span_name, index) / n_ops
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many operations (quick checks)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "evograph" / "__init__.py").is_file():
        print(f"error: no evograph sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import evograph
    import evograph.cli  # noqa: F401  (part of what a user's first command imports)

    import_s = time.perf_counter() - t0
    if Path(evograph.__file__).resolve().parent != (src / "evograph").resolve():
        print(f"error: imported evograph from {evograph.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = min(2, len(os.sched_getaffinity(0)))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, jobs)
        # set-up time is reported by untraced full runs only
        repeats = 1 if args.trace or args.max_ops is not None else wl.setup_repeats
        setup_times, cals = [], [slowdown(wl.kernel)]
        for _ in range(repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            cals.append(slowdown(wl.kernel))
        wl.prepare()
        # the import precedes the first kernel run, which measures its host speed
        setup_s = rescale(import_s, cals[0], cals[0]) + statistics.median(
            rescale(wall, before, after) for wall, before, after in zip(setup_times, cals, cals[1:])
        )

        if not args.trace:
            ops = run_loop(wl, args.seconds, args.max_ops)
            metrics, detail = end_to_end(wl, ops, setup_s)
            units = END_TO_END
        else:
            n_ref = wl.cycle if args.max_ops is None else min(wl.cycle, args.max_ops)
            reference = [run_one(wl, i) for i in range(n_ref)]
            tracer = Tracer(workdir / "spool")
            tracer.install()
            try:
                wl.setup()
                setup_totals = tracer.snapshot()
                tracer.reset()
                traced = run_loop(wl, args.seconds, args.max_ops, after_op=tracer.collect)
                totals = tracer.snapshot()
            finally:
                tracer.uninstall()
            dispatched = sum(op.get("seed_jobs", 0) for op in traced if op["ok"])
            if jobs > 1 and totals["stats"].get("cli.seed_job", (0,))[0] < dispatched:
                print("error: spans from pool workers were lost", file=sys.stderr)
                return 1
            overhead = sum(op["wall"] for op in traced[:n_ref]) / sum(op["wall"] for op in reference)
            ops = reference + traced
            metrics = per_layer(totals, setup_totals, len(traced), jobs, overhead)
            detail = {"traced_ops": len(traced), "reference_ops": n_ref,
                      "traced_op_s_mean": statistics.mean(op["wall"] for op in traced)}
            units = {name: layer_unit(name) for name in PER_LAYER}

        failed = sum(not op["ok"] for op in ops)
        facts = machine_facts(jobs)
        detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                      import_s=import_s, setup_times=setup_times, setup_cals=cals, ops=ops)
        print("# machine " + json.dumps(facts))
        print("# detail " + json.dumps({k: v for k, v in detail.items() if k != "ops"}))
        result = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        record = {"machine": facts, "detail": detail, "result": result}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
