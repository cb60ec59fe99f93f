import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}


def record(commit, op_s, quality, seed=1):
    return {
        "machine": dict(MACHINE, git_commit=commit),
        "detail": {"workload": "det-gdoc", "seed": seed, "trace": 0},
        "result": {
            "correct": True,
            "attempted": 30,
            "failed": 0,
            "metrics": {
                "op_s_p50": {"value": op_s, "unit": "s"},
                "quality": {"value": quality, "unit": "ratio"},
            },
        },
    }


def test_two_records_give_medians_wins_and_machine(tmp_path):
    paths = []
    for name, rec in (("p.json", record("aaa", 0.8, 0.5)), ("c.json", record("bbb", 0.7, 0.5))):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(rec), encoding="utf-8")
    out = tmp_path / "BENCH_1.json"
    assert bench_record.main(["--parent", str(paths[0]), "--change", str(paths[1]), "--out", str(out)]) == 0
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert bench["machine"] == MACHINE
    assert bench["commits"] == {"parent": ["aaa"], "change": ["bbb"]}
    det = bench["workloads"]["det-gdoc"]
    assert det["pairs"] == 1 and det["seeds"] == [[1], [1]]
    op = det["metrics"]["op_s_p50"]
    assert op["unit"] == "s" and op["better"] == "lower"
    assert op["parent"] == {"values": [0.8], "median": 0.8, "q1": 0.8, "q3": 0.8}
    assert op["change"]["median"] == 0.7
    assert (op["wins"], op["ties"], op["gain"]) == (1, 0, True)
    quality = det["metrics"]["quality"]
    assert (quality["better"], quality["wins"], quality["ties"], quality["gain"]) == ("higher", 0, 1, False)


def test_unpaired_or_foreign_records_are_refused():
    parent = record("aaa", 0.8, 0.5)
    with pytest.raises(SystemExit, match="1 parent records against 2 change records"):
        bench_record.collect([parent], [record("bbb", 0.7, 0.5)] * 2)
    other = record("bbb", 0.7, 0.5)
    other["machine"]["nproc"] = 4
    with pytest.raises(SystemExit, match="different facts"):
        bench_record.collect([parent], [other])
