"""Quick self-check of the benchmark harness.

Runs one operation of every workload in BENCHMARK.json, untraced and traced,
and checks that each run prints every named metric with the unit that
BENCHMARK.json gives it, that no operation failed, and that ok_ratio is 1
(fail_ratio 0).  Run from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(spec: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--max-ops", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    if not trace and got.get("ok_ratio", {}).get("value") != 1.0:
        problems.append("ok_ratio is not 1 (fail_ratio is not 0)")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            print(f"[selfcheck] {'PASS' if not problems else 'FAIL'} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
