"""Command-line entry point: analyze-tdiff, generate, run, report.

Exit codes: 0 success, 1 runtime error, 2 usage or config error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    DETECTOR_KEYS,
    MODE_SEQUENCE,
    MODE_TWO_TASK,
    RunSpec,
    load_config,
    load_manifest,
    write_manifest,
)
from .dataio import dataset_fingerprint, load_dataset, read_json, save_dataset
from .errors import ConfigError, EvographError, ValidationError
from .graph import FULL, UNLABELED
from .lifelong import _failure_message, run_sequences, two_task_experiment
from .metrics import drift_magnitude, forward_transfer, mean_ci95
from .models import save_checkpoint
from .openworld import GDOC
from .synth import SynthConfig, generate
from .tdiff import history_sizes, k_hop_time_diffs, percentile


# generate's flag for a SynthConfig field, where it is not the field's name
_SYNTH_FLAGS = {"num_initial_classes": "--initial-classes"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evograph")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze-tdiff", help="time-difference and drift analysis of a dataset")
    p_an.add_argument("dataset")
    p_an.add_argument("--k", type=int, default=2)
    p_an.add_argument("--percentiles", default="25,50,75,100")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset")
    p_gen.add_argument("out_dir")
    # one flag per SynthConfig field; a flag not given leaves the field's default
    for f in fields(SynthConfig):
        flag = _SYNTH_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
        options = {"help": "e.g. 5:1,7:1"} if f.name == "new_class_schedule" else {"type": type(f.default)}
        p_gen.add_argument(flag, dest=f.name, default=argparse.SUPPRESS, **options)

    p_run = sub.add_parser("run", help="execute an experiment config over its seeds")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker slots for seeds")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config file")
    src.add_argument("--from-manifest", help="re-run the config snapshot of a manifest")
    for key, row in DETECTOR_KEYS.items():
        p_run.add_argument("--" + key.replace("_", "-"), help=f"override the config's {key}", **row.flag)

    p_rep = sub.add_parser("report", help="tabulate one or more completed runs")
    p_rep.add_argument("reports", nargs="+", help="manifest.json files or run directories")
    p_rep.add_argument("--mode", choices=["accuracy-table", "fwt", "open"], default="accuracy-table")

    # each subcommand takes only the flags it reads, after its name
    for p in (p_an, p_run):
        p.add_argument("--output-dir", default=".", help="directory for emitted files")
    for p in (p_an, p_gen, p_run):
        p.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    return parser


def _class_shares(g, at, num_ts: int) -> list:
    """Each timestamp's class shares of its labeled vertices, by ascending class,
    ``{}`` where none is labeled; ``at`` holds each vertex's rank among the
    ``num_ts`` distinct timestamps."""
    labeled = g.labels != UNLABELED
    # one count per (timestamp, class) pair that occurs, by timestamp, then class
    cells, counts = np.unique(at[labeled] * g.num_classes + g.labels[labeled], return_counts=True)
    totals = np.bincount(at[labeled], minlength=num_ts).tolist()
    shares = [{} for _ in range(num_ts)]
    for cell, c in zip(cells.tolist(), counts.tolist()):
        t, y = divmod(cell, g.num_classes)
        shares[t][y] = float(c) / totals[t]
    return shares


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
    try:
        hist = k_hop_time_diffs(g, args.k)
    except MemoryError as exc:
        raise EvographError(_failure_message(exc)) from exc

    ts, at, sizes = np.unique(g.time, return_inverse=True, return_counts=True)
    shares = _class_shares(g, at, ts.size)
    ts = ts.tolist()
    drift = []
    for prev, curr, p_prev, p_curr in zip(ts, ts[1:], shares, shares[1:]):
        if p_prev and p_curr:
            drift.append({"from": prev, "to": curr, "sigma": drift_magnitude(p_prev, p_curr)})

    report = {
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "feature_dim": g.feature_dim,
        "num_classes": g.num_classes,
        "per_timestamp_counts": dict(zip(ts, sizes.tolist())),
        "k": args.k,
        "histogram": hist.counts,
        "percentiles": {p: percentile(hist, p) for p in ps},
        "suggested_history_sizes": history_sizes(hist, ps),
        "drift": drift,
    }
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out_dir / "tdiff.json").write_text(text, encoding="utf-8")
    csv_lines = ["difference,count"] + [f"{d},{c}" for d, c in hist.counts.items()]
    (out_dir / "tdiff.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    if not args.quiet:
        print(text, end="")
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
    given = {f.name: getattr(args, f.name) for f in fields(SynthConfig) if hasattr(args, f.name)}
    if "new_class_schedule" in given:
        given["new_class_schedule"] = _parse_schedule(given["new_class_schedule"])
    g = generate(SynthConfig(**given))
    save_dataset(g, args.out_dir)
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


def _chunk_job(spec: RunSpec, g, seeds):
    """The records of a chunk of seeds, in order; top-level so process pools can pickle it.

    One library call trains the chunk's seeds as one stack; :func:`_seed_job` builds each record.
    """
    if spec.mode == MODE_SEQUENCE:
        (reports,), models = run_sequences(g, [spec.experiment], seeds)
        results = zip(reports, models)
    else:
        results = two_task_experiment(g, spec.experiment, spec.pretrain_epochs, spec.inference_epochs, seeds)
    return [_seed_job(spec, result) for result in results]


def _seed_job(spec: RunSpec, result):
    """One seed's record: (report text, its scores, per-step accuracies, final
    model or None), from the seed's result in its chunk's training: a
    sequence run's (report, final model), a two-task run's accuracy trace."""
    if spec.mode == MODE_SEQUENCE:
        report, model = result
        return report.to_jsonl(), report.summary(), report.accuracies(), model
    scores = {"initial_accuracy": result[0], "final_accuracy": result[-1]}
    lines = [
        json.dumps({"kind": "epoch", "epoch": i, "accuracy": a}, sort_keys=True)
        for i, a in enumerate(result)
    ]
    lines.append(json.dumps({"kind": "summary", **scores}, sort_keys=True))
    return "\n".join(lines) + "\n", scores, result, None


def _detector_overrides(args) -> dict:
    """The config entries that the detector flags set, as a snapshot writes them
    (a float as ``repr(float(value))``)."""
    return {
        key: row.show(row.parse(key, str(value)))
        for key, row in DETECTOR_KEYS.items()
        if (value := getattr(args, key)) is not None
    }


def _check_output_dir(path: Path) -> None:
    """Raise the OSError that making directory ``path`` would meet, creating nothing.

    Its nearest existing ancestor must be a directory this process can write.
    """
    ancestor = path
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        code = errno.EEXIST if ancestor == path else errno.ENOTDIR
    elif not os.access(ancestor, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


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

    g = load_dataset(spec.dataset)
    fingerprint = dataset_fingerprint(g)
    if args.from_manifest and manifest["dataset_fingerprint"] != fingerprint:
        raise EvographError(
            f"dataset at {spec.dataset} changed since the manifest was written"
        )

    out_dir = Path(args.output_dir)
    _check_output_dir(out_dir)  # before any seed trains
    seeds = spec.experiment.seeds
    # one job per contiguous chunk of seeds, one chunk per worker slot
    chunks = [c.tolist() for c in np.array_split(seeds, min(args.jobs, len(seeds)))]
    job = partial(_chunk_job, spec, g)
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [pool.submit(job, chunk) for chunk in chunks]
            try:
                results = [record for future in futures for record in future.result()]
            except BrokenProcessPool:
                # a worker died (the OOM killer, say): the pool fails every chunk not yet done
                lost = [seed for future, chunk in zip(futures, chunks) if future.exception() for seed in chunk]
                raise EvographError(
                    f"seeds {','.join(map(str, lost))}: no result, a worker process ended abruptly"
                ) from None
    else:
        results = job(chunks[0])
    texts, scores, traces, models = zip(*results)

    # created only now, so a run that fails leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = {}
    for seed, text, model in zip(seeds, texts, models):
        name = f"report_seed{seed}.jsonl"
        (out_dir / name).write_text(text, encoding="utf-8")
        reports[str(seed)] = name
        # the final task's model, which load_checkpoint reads back
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
    """A JSON number that a float holds (JSON integers have no bound)."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    )


def _load_run(path) -> dict:
    """A sequence run's resolved config, dataset fingerprint, summary and row
    order: model, history size (full last), restart, detector, then a
    detector's tau_min and alpha, numbers compared as numbers."""
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
    cfg, exp = spec.snapshot(), spec.experiment
    det = exp.detector
    return {
        "path": path,
        "config": cfg,
        "fingerprint": manifest["dataset_fingerprint"],
        "summary": summary,
        "order": (
            cfg["model"], float("inf") if exp.history_size is FULL else exp.history_size,
            cfg["restart"], cfg["detector"], *((det.tau_min, det.alpha) if det else ()),
        ),
    }


def _cells(score) -> list:
    """A ``{mean, ci95}`` score's two table cells; two empty cells for no score."""
    return [f"{score['mean']:.4f}", f"{score['ci95']:.4f}"] if score else ["", ""]


def cmd_report(args) -> int:
    runs = [_load_run(p) for p in args.reports]
    for r in runs:
        if r["fingerprint"] != runs[0]["fingerprint"]:
            raise EvographError(f"{r['path']} and {runs[0]['path']} ran on datasets of different fingerprints")
    runs.sort(key=lambda r: r["order"])
    rows = []
    if args.mode == "accuracy-table":
        cells, paths = {}, {}
        for r in runs:
            cfg, path = r["config"], r["path"]
            cell = (cfg["model"], cfg["history_size"], cfg["restart"])
            if cell in paths:
                raise EvographError(
                    f"{paths[cell]} and {path} both fill the {'/'.join(cell)} cell "
                    "of the accuracy table"
                )
            paths[cell] = path
            cells.setdefault(cell[:2], {})[cell[2]] = r["summary"]["avg_accuracy"]
        rows.append("model,history_size,accuracy_cold,ci_cold,accuracy_warm,ci_warm")
        for (model, history), by_restart in cells.items():
            cold, warm = _cells(by_restart.get("cold")), _cells(by_restart.get("warm"))
            rows.append(",".join([model, history, *cold, *warm]))
    elif args.mode == "fwt":
        pairs = {}
        for r in runs:
            cfg = dict(r["config"])
            restart = cfg.pop("restart")
            pairs.setdefault(tuple(sorted(cfg.items())), {})[restart] = r
        rows.append("model,history_size,fwt")
        for sides in pairs.values():
            if "warm" not in sides or "cold" not in sides:
                continue
            warm, cold = sides["warm"], sides["cold"]
            cfg = warm["config"]
            try:
                fwt = forward_transfer(warm["summary"]["per_task_accuracy_mean"],
                                       cold["summary"]["per_task_accuracy_mean"])
            except ValidationError as exc:
                raise EvographError(f"{warm['path']} and {cold['path']}: {exc}") from None
            rows.append(f"{cfg['model']},{cfg['history_size']},{fwt:.4f}")
    else:  # open
        keys = ("model", "history_size", "restart", "detector", "tau_min", "alpha")
        rows.append(",".join(keys) + ",mcc,mcc_ci,open_f1,open_f1_ci")
        for r in runs:
            scores = _cells(r["summary"]["mcc"]) + _cells(r["summary"]["open_macro_f1"])
            rows.append(",".join([r["config"][k] for k in keys] + scores))
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
    except OSError as exc:
        # reads fail as EvographErrors, so this is an output directory or file
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}cannot write ({exc.strerror or exc})", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
