"""Collect paired benchmark records into one ``BENCH_<n>.json`` file.

``perfbench/run.py`` writes one record per run to
``.perfbench_work/results/<workload>-seed<seed>-trace<trace>.json`` and
overwrites it on the next run with the same name.  Copy the record after each
run, then pass the parent commit's and the change's copies, each in run
order::

    python3 tools/bench_record.py --out BENCH_16.json \\
        --parent p1.json p2.json ... --change c1.json c2.json ...

Records pair by workload (and trace mode): the i-th parent record of a
workload with its i-th change record.  For each workload and metric the file
holds both sides' values, medians and quartiles, and how many pairs the
change won and tied, where ``BENCHMARK.json`` says whether lower or higher is
better.  ``gain`` applies the rule for claiming one: the change wins at least
nine tenths of the pairs, and the medians differ, in the better direction, by
more than the distance between the parent's quartiles.  The records' machine
facts must agree, apart from the git commit, which is kept per side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_record(path: Path) -> dict:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        ok = (
            isinstance(record["machine"], dict)
            and "workload" in record["detail"]
            and isinstance(record["result"]["metrics"], dict)
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: {path}: {exc}") from None
    if not ok:
        raise SystemExit(f"error: {path}: not a perfbench result record")
    return record


def directions() -> dict:
    """``better`` ("lower" or "higher") per metric name in ``BENCHMARK.json``."""
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}


def summary(values: list) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better) -> dict:
    out = {"parent": summary(parent), "change": summary(change)}
    if better is None:
        return out
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    spread = out["parent"]["q3"] - out["parent"]["q1"]
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    out.update(better=better, wins=wins, ties=ties, gain=wins >= 0.9 * len(parent) and gap > spread)
    return out


def collect(parent: list, change: list) -> dict:
    """The ``BENCH_<n>.json`` content for two lists of records in run order."""
    machine, commits, groups = None, {"parent": [], "change": []}, {}
    for side, records in (("parent", parent), ("change", change)):
        for record in records:
            facts = dict(record["machine"])
            commit = facts.pop("git_commit", None)
            if commit not in commits[side]:
                commits[side].append(commit)
            if machine is None:
                machine = facts
            elif facts != machine:
                raise SystemExit("error: records come from machines with different facts")
            detail = record["detail"]
            key = detail["workload"] + ("" if detail.get("trace", 0) == 0 else "-trace1")
            groups.setdefault(key, {"parent": [], "change": []})[side].append(record)
    better = directions()
    workloads = {}
    for key, sides in sorted(groups.items()):
        if len(sides["parent"]) != len(sides["change"]):
            raise SystemExit(
                f"error: {key}: {len(sides['parent'])} parent records against "
                f"{len(sides['change'])} change records"
            )
        first = sides["parent"][0]["result"]["metrics"]
        metrics = {}
        for name in first:
            values = {
                side: [r["result"]["metrics"][name]["value"] for r in sides[side]] for side in sides
            }
            metrics[name] = {"unit": first[name]["unit"]}
            metrics[name].update(compare(values["parent"], values["change"], better.get(name)))
        workloads[key] = {
            "pairs": len(sides["parent"]),
            "seeds": [[r["detail"].get("seed") for r in sides[side]] for side in ("parent", "change")],
            "metrics": metrics,
        }
    return {"machine": machine, "commits": commits, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    content = collect([load_record(p) for p in args.parent], [load_record(p) for p in args.change])
    args.out.write_text(json.dumps(content, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
