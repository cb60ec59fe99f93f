"""Command-line entry point: analyze-tdiff, generate, run, report.

Exit codes: 0 success, 1 runtime error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    MODE_SEQUENCE,
    MODE_TWO_TASK,
    RunSpec,
    load_config,
    load_manifest,
    write_manifest,
)
from .dataio import dataset_fingerprint, load_dataset, read_json, save_dataset
from .errors import ConfigError, EvographError
from .graph import UNLABELED
from .lifelong import run_sequences, two_task_experiment
from .metrics import drift_magnitude, forward_transfer, mean_ci95
from .models import save_checkpoint
from .openworld import GDOC
from .synth import SynthConfig, generate
from .tdiff import history_sizes, k_hop_time_diffs, percentile


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evograph")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze-tdiff", help="time-difference and drift analysis of a dataset")
    p_an.add_argument("dataset")
    p_an.add_argument("--k", type=int, default=2)
    p_an.add_argument("--percentiles", default="25,50,75,100")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("out_dir")
    p_gen.add_argument("--num-timestamps", type=int, default=10)
    p_gen.add_argument("--vertices-per-timestamp", type=int, default=30)
    p_gen.add_argument("--initial-classes", type=int, default=4)
    p_gen.add_argument("--new-class-schedule", default="", help="e.g. 5:1,7:1")
    p_gen.add_argument("--class-skew", type=float, default=1.0)
    p_gen.add_argument("--feature-dim", type=int, default=16)
    p_gen.add_argument("--feature-noise", type=float, default=0.5)
    p_gen.add_argument("--intra-class-edge-prob", type=float, default=0.08)
    p_gen.add_argument("--inter-class-edge-prob", type=float, default=0.01)
    p_gen.add_argument("--window-back", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--features-format", choices=["bin", "csv"], default="bin")

    p_run = sub.add_parser("run", help="execute an experiment config over its seeds")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker slots for seeds")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config file")
    src.add_argument("--from-manifest", help="re-run the config snapshot of a manifest")
    p_run.add_argument(
        "--detector",
        choices=["none", "doc", "gdoc"],
        help="override the config's detector block",
    )
    p_run.add_argument("--tau-min", type=float, help="override detector tau_min")
    p_run.add_argument("--alpha", type=float, help="override detector alpha")
    p_run.add_argument(
        "--risk-reduction",
        choices=["true", "false"],
        help="override detector risk reduction",
    )

    p_rep = sub.add_parser("report", help="tabulate one or more completed runs")
    p_rep.add_argument("reports", nargs="+", help="manifest.json files or run directories")
    p_rep.add_argument("--mode", choices=["accuracy-table", "fwt", "open"], default="accuracy-table")

    # each subcommand takes only the flags it reads, after its name
    for p in (p_an, p_run):
        p.add_argument("--output-dir", default=".", help="directory for emitted files")
    for p in (p_an, p_gen, p_run):
        p.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    return parser


def _class_distribution(g, ts) -> dict:
    sel = (g.time == ts) & (g.labels != UNLABELED)
    labels = g.labels[sel]
    if labels.size == 0:
        return {}
    values, counts = np.unique(labels, return_counts=True)
    return {int(v): float(c) / labels.size for v, c in zip(values, counts)}


def _parse_percentiles(text: str) -> list:
    try:
        ps = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--percentiles: cannot parse {text!r}") from None
    if not ps or not all(0 < p <= 100 for p in ps):
        raise ConfigError(f"--percentiles: need values in (0, 100], got {text!r}")
    return ps


def cmd_analyze(args) -> int:
    ps = _parse_percentiles(args.percentiles)
    if args.k < 1:
        raise ConfigError(f"--k: hop bound must be >= 1, got {args.k}")
    g = load_dataset(args.dataset)
    hist = k_hop_time_diffs(g, args.k)
    pct = {p: (percentile(hist, p) if hist.counts else 0) for p in ps}

    drift = []
    ts = [int(t) for t in g.timestamps()]
    for prev, curr in zip(ts, ts[1:]):
        p_prev = _class_distribution(g, prev)
        p_curr = _class_distribution(g, curr)
        if p_prev and p_curr:
            drift.append({"from": prev, "to": curr, "sigma": drift_magnitude(p_prev, p_curr)})

    report = {
        "dataset": str(args.dataset),
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "feature_dim": g.feature_dim,
        "num_classes": g.num_classes,
        "per_timestamp_counts": {str(t): int((g.time == t).sum()) for t in ts},
        "k": args.k,
        "histogram": {str(d): c for d, c in hist.as_sorted_items()},
        "percentiles": {str(p): pct[p] for p in ps},
        "suggested_history_sizes": history_sizes(hist, ps),
        "drift": drift,
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "tdiff.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    csv_lines = ["difference,count"] + [f"{d},{c}" for d, c in hist.as_sorted_items()]
    (out_dir / "tdiff.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    if not args.quiet:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _parse_schedule(text: str) -> dict:
    schedule = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            ts, count = (int(x) for x in part.split(":"))
        except ValueError:
            raise ConfigError(f"new-class-schedule: cannot parse {part!r}") from None
        if ts in schedule:
            raise ConfigError(f"new-class-schedule: timestamp {ts} given twice")
        schedule[ts] = count
    return schedule


def cmd_generate(args) -> int:
    cfg = SynthConfig(
        num_timestamps=args.num_timestamps,
        vertices_per_timestamp=args.vertices_per_timestamp,
        num_initial_classes=args.initial_classes,
        new_class_schedule=_parse_schedule(args.new_class_schedule),
        class_skew=args.class_skew,
        feature_dim=args.feature_dim,
        feature_noise=args.feature_noise,
        intra_class_edge_prob=args.intra_class_edge_prob,
        inter_class_edge_prob=args.inter_class_edge_prob,
        window_back=args.window_back,
        seed=args.seed,
    )
    g = generate(cfg)
    save_dataset(g, args.out_dir, features_format=args.features_format)
    if not args.quiet:
        print(
            f"wrote {g.num_vertices} vertices, {g.num_edges} edges, "
            f"{g.num_classes} classes to {args.out_dir}"
        )
    return 0


# summary.json's scores per mode: a {mean, ci95} object per seed score, then
# the mean per-step accuracy trace under the last key
_SUMMARY = {
    MODE_SEQUENCE: ("avg_accuracy", "mcc", "open_macro_f1", "per_task_accuracy_mean"),
    MODE_TWO_TASK: ("initial_accuracy", "final_accuracy", "trace_mean"),
}


def _seed_job(spec: RunSpec, g, seed: int):
    """Run one seed: (report text, its scores, per-step accuracies, final model
    or None); top-level so process pools can pickle it."""
    if spec.mode == MODE_SEQUENCE:
        (report,), model = run_sequences(g, [spec.experiment], seed=seed)
        return report.to_jsonl(), report.summary(), report.accuracies(), model
    trace = two_task_experiment(
        g, spec.experiment, spec.pretrain_epochs, spec.inference_epochs, seed=seed
    )
    scores = {"initial_accuracy": trace[0], "final_accuracy": trace[-1]}
    lines = [
        json.dumps({"kind": "epoch", "epoch": i, "accuracy": a}, sort_keys=True)
        for i, a in enumerate(trace)
    ]
    lines.append(json.dumps({"kind": "summary", **scores}, sort_keys=True))
    return "\n".join(lines) + "\n", scores, trace, None


def _detector_overrides(args) -> dict:
    """The config entries that the detector flags set."""
    flags = {
        "detector": args.detector,
        "tau_min": None if args.tau_min is None else repr(args.tau_min),
        "alpha": None if args.alpha is None else repr(args.alpha),
        "risk_reduction": args.risk_reduction,
    }
    return {key: value for key, value in flags.items() if value is not None}


def cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: need at least 1 worker slot, got {args.jobs}")
    if args.config:
        entries = load_config(args.config)
    else:
        manifest = load_manifest(args.from_manifest)
        entries = manifest["config"]
    overrides = _detector_overrides(args)
    try:
        spec = RunSpec({**entries, **overrides})
    except ConfigError as exc:
        # a detector flag that is bad on its own is reported as it is; else the file is at fault
        RunSpec({"dataset": "-", "detector": GDOC, **overrides})
        raise ConfigError(f"{args.config or args.from_manifest}: {exc}") from None

    fingerprint = dataset_fingerprint(spec.dataset)
    if args.from_manifest and manifest["dataset_fingerprint"] != fingerprint:
        raise EvographError(
            f"dataset at {spec.dataset} changed since the manifest was written"
        )

    g = load_dataset(spec.dataset)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = spec.experiment.seeds
    job = partial(_seed_job, spec, g)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(job, seeds))
    else:
        results = [job(seed) for seed in seeds]
    texts, scores, traces, models = zip(*results)

    reports = {}
    for seed, text, model in zip(seeds, texts, models):
        name = f"report_seed{seed}.jsonl"
        (out_dir / name).write_text(text, encoding="utf-8")
        reports[str(seed)] = name
        # final-task model, reusable for warm starts across invocations
        if model is not None:
            save_checkpoint(model, out_dir / f"model_seed{seed}")

    summary = {"mode": spec.mode, "n_seeds": len(seeds), "dataset_fingerprint": fingerprint}
    *score_keys, trace_key = _SUMMARY[spec.mode]
    for key in score_keys:
        mean, ci = mean_ci95([s[key] for s in scores])
        summary[key] = {"mean": mean, "ci95": ci}
    summary[trace_key] = [float(x) for x in np.mean(traces, axis=0)]
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_manifest(
        out_dir / "manifest.json",
        snapshot=spec.snapshot(),
        dataset_fingerprint=fingerprint,
        reports=reports,
        summary="summary.json",
        version=__version__,
    )
    if not args.quiet:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_run(path) -> dict:
    """A sequence run's resolved config, dataset fingerprint and summary."""
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    manifest = load_manifest(p)
    try:
        spec = RunSpec(manifest["config"])
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None
    if spec.mode != MODE_SEQUENCE:
        raise EvographError(f"{path} is a {spec.mode} run; report reads sequence runs only")
    summary_path = p.parent / manifest["summary"]
    *score_keys, trace_key = _SUMMARY[MODE_SEQUENCE]
    summary = read_json(summary_path, EvographError, _SUMMARY[MODE_SEQUENCE])
    for key in score_keys:
        value = summary[key]
        if not (isinstance(value, dict) and all(_is_number(value.get(k)) for k in ("mean", "ci95"))):
            raise EvographError(f'{summary_path}: {key} must be {{"mean": number, "ci95": number}}')
    trace = summary[trace_key]
    if not (isinstance(trace, list) and all(map(_is_number, trace))):
        raise EvographError(f"{summary_path}: {trace_key} must be a list of numbers")
    return {
        "config": spec.snapshot(),
        "fingerprint": manifest["dataset_fingerprint"],
        "summary": summary,
    }


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def cmd_report(args) -> int:
    runs = [_load_run(p) for p in args.reports]
    fingerprints = {r["fingerprint"] for r in runs}
    if len(fingerprints) > 1:
        raise EvographError("reports mix incompatible dataset fingerprints")
    rows = []
    if args.mode == "accuracy-table":
        cells, paths = {}, {}
        for path, r in zip(args.reports, runs):
            cfg = r["config"]
            cell = (cfg["model"], cfg["history_size"], cfg["restart"])
            if cell in paths:
                raise EvographError(
                    f"{paths[cell]} and {path} both fill the {'/'.join(cell)} cell "
                    "of the accuracy table"
                )
            paths[cell] = path
            cells.setdefault(cell[:2], {})[cell[2]] = r["summary"]["avg_accuracy"]
        rows.append("model,history_size,accuracy_cold,ci_cold,accuracy_warm,ci_warm")
        for (model, history), by_restart in sorted(cells.items()):
            cold = by_restart.get("cold")
            warm = by_restart.get("warm")
            rows.append(
                ",".join(
                    [
                        model,
                        history,
                        _fmt(cold["mean"]) if cold else "",
                        _fmt(cold["ci95"]) if cold else "",
                        _fmt(warm["mean"]) if warm else "",
                        _fmt(warm["ci95"]) if warm else "",
                    ]
                )
            )
    elif args.mode == "fwt":
        pairs = {}
        for r in runs:
            cfg = dict(r["config"])
            restart = cfg.pop("restart")
            key = json.dumps(cfg, sort_keys=True)
            pairs.setdefault(key, {})[restart] = r
        rows.append("model,history_size,fwt")
        for key in sorted(pairs):
            sides = pairs[key]
            if "warm" not in sides or "cold" not in sides:
                continue
            cfg = json.loads(key)
            warm_trace = sides["warm"]["summary"]["per_task_accuracy_mean"]
            cold_trace = sides["cold"]["summary"]["per_task_accuracy_mean"]
            fwt = forward_transfer(warm_trace, cold_trace)
            rows.append(f"{cfg['model']},{cfg['history_size']},{_fmt(fwt)}")
    else:  # open
        rows.append("model,history_size,restart,detector,tau_min,alpha,mcc,mcc_ci,open_f1,open_f1_ci")
        entries = []
        for r in runs:
            cfg = r["config"]
            entries.append(
                (
                    cfg["model"], cfg["history_size"], cfg["restart"], cfg["detector"],
                    cfg["tau_min"], cfg["alpha"],
                    r["summary"]["mcc"], r["summary"]["open_macro_f1"],
                )
            )
        for model, history, restart, det, tau, alpha, m, f in sorted(entries, key=lambda e: e[:6]):
            rows.append(
                f"{model},{history},{restart},{det},{tau},{alpha},"
                f"{_fmt(m['mean'])},{_fmt(m['ci95'])},{_fmt(f['mean'])},{_fmt(f['ci95'])}"
            )
    print("\n".join(rows))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze-tdiff":
            return cmd_analyze(args)
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_report(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvographError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
