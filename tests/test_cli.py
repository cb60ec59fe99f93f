import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import evograph as eg
from conftest import text_copy
from evograph import cli, config, dataio, tdiff
from evograph.cli import main
from evograph.config import RunSpec, parse_config_text
from evograph.errors import EvographError
from evograph.metrics import TaskRecord

NAN = float("nan")

# field[=value] -> (config-file overrides, library constructor call), each out of range
BAD_VALUES = {
    "learning_rate": ({"learning_rate": "nan"}, lambda: eg.ExperimentConfig(learning_rate=NAN)),
    "learning_rate=inf": (
        {"learning_rate": "inf"}, lambda: eg.ExperimentConfig(learning_rate=float("inf"))
    ),
    "weight_decay": ({"weight_decay": "nan"}, lambda: eg.ExperimentConfig(weight_decay=NAN)),
    "weight_decay=inf": (
        {"weight_decay": "inf"}, lambda: eg.ExperimentConfig(weight_decay=float("inf"))
    ),
    "alpha": ({"detector": "gdoc", "alpha": "nan"}, lambda: eg.DetectorConfig(alpha=NAN)),
    "alpha=inf": (
        {"detector": "gdoc", "alpha": "inf", "risk_reduction": "true"}, lambda: eg.DetectorConfig(alpha=float("inf"))
    ),
    "sgc_k": ({"model": "sgc", "sgc_k": "-1"}, lambda: eg.ExperimentConfig(model="sgc", sgc_k=-1)),
    "label_seed": ({"label_seed": "-1"}, lambda: eg.ExperimentConfig(label_seed=-1)),
    "seeds": ({"seeds": "0,0"}, lambda: eg.ExperimentConfig(seeds=(0, 0))),
    "tau_min": ({"detector": "gdoc", "tau_min": "2"}, lambda: eg.DetectorConfig(tau_min=2.0)),
    "epochs": ({"epochs": "0"}, lambda: eg.ExperimentConfig(epochs=0)),
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    rc = main(
        [
            "generate", str(d),
            "--num-timestamps", "8",
            "--vertices-per-timestamp", "20",
            "--new-class-schedule", "4:1",
            "--feature-dim", "8",
            "--seed", "3",
            "--quiet",
        ]
    )
    assert rc == 0
    return d


def write_config(path, dataset, **overrides):
    entries = {
        "format_version": "1",
        "dataset": str(dataset),
        "model": "mlp",
        "epochs": "8",
        "history_size": "1",
        "restart": "warm",
        "seeds": "0,1",
    }
    entries.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return path


def test_generate_produces_loadable_dataset(dataset):
    assert sorted(p.name for p in dataset.iterdir()) == [
        "edges.bin", "features.bin", "labels.bin", "manifest", "times.bin",
    ]
    g = eg.load_dataset(dataset)
    assert g.num_vertices == 160
    assert g.num_classes == 5


# each subcommand takes only the flags it reads, and only after its name
UNREAD_FLAGS = {
    "generate-output-dir": ["generate", "d", "--output-dir", "x"],
    "generate-jobs": ["generate", "d", "--jobs", "2"],
    "generate-features-format": ["generate", "d", "--features-format", "csv"],
    "report-jobs": ["report", "run1", "--jobs", "2"],
    "report-quiet": ["report", "run1", "--quiet"],
    "report-output-dir": ["report", "run1", "--output-dir", "z"],
    "analyze-jobs": ["analyze-tdiff", "d", "--jobs", "2"],
    "before-subcommand": ["--quiet", "generate", "d"],
}


@pytest.mark.parametrize("case", UNREAD_FLAGS)
def test_unread_flag_usage_error(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(UNREAD_FLAGS[case])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_flags_reach_every_synth_field(tmp_path, monkeypatch):
    # one flag per SynthConfig field: a new field with no flag fails here
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = [a.dest for a in sub.choices["generate"]._actions]
    assert all(dests.count(f.name) == 1 for f in dataclasses.fields(eg.SynthConfig))
    built = []
    monkeypatch.setattr(cli, "generate", lambda cfg: built.append(cfg) or eg.generate(eg.SynthConfig()))
    monkeypatch.setattr(cli, "save_dataset", lambda *args: None)
    assert main([
        "generate", str(tmp_path / "d"), "--num-timestamps", "12", "--vertices-per-timestamp", "31",
        "--initial-classes", "5", "--new-class-schedule", "3:1,,6:2, ", "--class-skew", "1.5",
        "--feature-dim", "17", "--feature-noise", "0.25", "--intra-class-edge-prob", "0.09",
        "--inter-class-edge-prob", "0.02", "--window-back", "2", "--seed", "7", "--quiet",
    ]) == 0
    assert built == [eg.SynthConfig(
        num_timestamps=12, vertices_per_timestamp=31, num_initial_classes=5, new_class_schedule={3: 1, 6: 2},
        class_skew=1.5, feature_dim=17, feature_noise=0.25, intra_class_edge_prob=0.09,
        inter_class_edge_prob=0.02, window_back=2, seed=7,
    )]


@pytest.mark.parametrize(
    "schedule, message",
    [
        ("5:1,5:2", "new-class-schedule: timestamp 5 given twice"),
        ("5:1,5", "new-class-schedule: cannot parse '5'"),
        ("5:1,x:2", "new-class-schedule: cannot parse 'x:2'"),
    ],
    ids=["duplicate", "no-count", "non-integer"],
)
def test_generate_bad_schedule_exit_2(tmp_path, capsys, schedule, message):
    out = tmp_path / "dup"
    rc = main(["generate", str(out), "--new-class-schedule", schedule, "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_generate_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "neg"
    assert main(["generate", str(out), "--seed", "-1", "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def analyze_case(name):
    """A small graph for analyze-tdiff's output pins."""
    g = eg.generate(eg.SynthConfig(
        num_timestamps=6, vertices_per_timestamp=12, new_class_schedule={3: 1}, feature_dim=8, seed=5,
    ))
    if name == "edgeless":
        return eg.TemporalGraph(g.num_vertices, [], g.time, g.features, g.labels, g.num_classes)
    if name == "partly-unlabeled":
        labels = g.labels.copy()
        labels[np.arange(g.num_vertices) % 3 == 0] = eg.UNLABELED
        labels[g.time == 2] = eg.UNLABELED
        return eg.TemporalGraph(g.num_vertices, g.edges, g.time, g.features, labels, g.num_classes)
    return g


def per_timestamp_reference(g):
    """analyze-tdiff's per_timestamp_counts and drift, from one masked np.unique per timestamp."""
    ts, sizes = np.unique(g.time, return_counts=True)
    shares = []
    for t in ts:
        labels = g.labels[(g.time == t) & (g.labels != eg.UNLABELED)]
        values, counts = np.unique(labels, return_counts=True)
        shares.append({int(v): float(c) / labels.size for v, c in zip(values, counts)})
    drift = [
        {"from": int(a), "to": int(b), "sigma": eg.drift_magnitude(p, q)}
        for a, b, p, q in zip(ts, ts[1:], shares, shares[1:])
        if p and q
    ]
    return {str(t): int(c) for t, c in zip(ts, sizes)}, drift


# SHA-256 of tdiff.csv and tdiff.json, for --k 2 --percentiles 10,25,50,75,90,99.5,100
ANALYZE_PINS = {
    "synth": (
        "3d380ded80464745818ab7b19a2e3910856d9a7270ebd04e2545fb4ca27ae06d",
        "5d9673f11e1bc9d863b4e936ba69e3eb8ad5fdf08767c12256169274d984fae6",
    ),
    "edgeless": (
        "b47d4764ab1cfe7bd507eb523bb0a47ed3ddf42dcb5fbb603a654fa25ae5e982",
        "424a7299a818bd62f121a07efe3f484cc944316c79b80ead35fe5710ddb11d0d",
    ),
    "partly-unlabeled": (
        "3d380ded80464745818ab7b19a2e3910856d9a7270ebd04e2545fb4ca27ae06d",
        "e6fe25c7b93709b02a1590f3e0ff61e7673dadb043bbde6b12282d55018b24b4",
    ),
}


class TestAnalyze:
    @pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
    def test_outputs_pinned(self, tmp_path, name):
        eg.save_dataset(analyze_case(name), tmp_path / "ds")
        out = tmp_path / "an"
        rc = main(["analyze-tdiff", str(tmp_path / "ds"), "--k", "2",
                   "--percentiles", "10,25,50,75,90,99.5,100", "--output-dir", str(out), "--quiet"])
        assert rc == 0
        digests = tuple(
            hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("tdiff.csv", "tdiff.json")
        )
        assert digests == ANALYZE_PINS[name]

    @pytest.mark.parametrize("name", ["partly-unlabeled", "shuffled"])
    def test_drift_matches_per_timestamp_reference(self, tmp_path, name):
        g = analyze_case("partly-unlabeled")
        if name == "shuffled":
            # timestamps across vertex ids, unlabeled vertices at every timestamp, none labeled at -4
            rng = np.random.default_rng(11)
            time = rng.permutation(np.repeat([-4, 0, 1, 2, 7, 30], g.num_vertices // 6))
            labels = np.where((rng.random(g.num_vertices) < 0.3) | (time == -4), eg.UNLABELED, g.labels)
            g = eg.TemporalGraph(g.num_vertices, g.edges, time, g.features, labels, g.num_classes)
        eg.save_dataset(g, tmp_path / "ds")
        out = tmp_path / "an"
        assert main(["analyze-tdiff", str(tmp_path / "ds"), "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "tdiff.json").read_text())
        counts, drift = per_timestamp_reference(g)
        # as tdiff.json writes them
        for key, expected in (("per_timestamp_counts", counts), ("drift", drift)):
            assert json.dumps(report[key], sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert len(drift) < len(counts) - 1  # the timestamp with no labeled vertex has no drift

    def test_wiring_matches_library(self, dataset, tmp_path, capsys):
        out = tmp_path / "an"
        rc = main(["analyze-tdiff", str(dataset), "--k", "2", "--output-dir", str(out)])
        assert rc == 0
        # without --quiet, stdout is tdiff.json's text, byte for byte
        assert capsys.readouterr().out == (out / "tdiff.json").read_text(encoding="utf-8")
        on_disk = json.loads((out / "tdiff.json").read_text())
        g = eg.load_dataset(dataset)
        hist = eg.k_hop_time_diffs(g, 2)
        assert on_disk["suggested_history_sizes"] == eg.history_sizes(hist, [25, 50, 75, 100])
        assert on_disk["histogram"] == {str(d): c for d, c in hist.counts.items()}
        csv_lines = (out / "tdiff.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "difference,count"
        assert len(csv_lines) == len(hist.counts) + 1
        assert len(on_disk["drift"]) == len(np.unique(g.time)) - 1

    def test_fine_grained_timestamps_histogram_in_order(self, dataset, tmp_path):
        # one random large timestamp per vertex: nearly every pair has its own difference
        g = eg.load_dataset(dataset)
        time = np.random.default_rng(4).integers(0, 10**15, g.num_vertices)
        g = eg.TemporalGraph(g.num_vertices, g.edges, time, g.features, g.labels, g.num_classes)
        eg.save_dataset(g, tmp_path / "ds")
        out = tmp_path / "an"
        assert main(["analyze-tdiff", str(tmp_path / "ds"), "--output-dir", str(out), "--quiet"]) == 0
        counts = eg.k_hop_time_diffs(g, 2).counts
        histogram = json.loads((out / "tdiff.json").read_text())["histogram"]
        rows = [tuple(map(int, line.split(","))) for line in (out / "tdiff.csv").read_text().splitlines()[1:]]
        assert len(counts) > g.num_vertices
        assert {int(d): c for d, c in histogram.items()} == dict(rows) == counts
        assert [d for d, _ in rows] == sorted(counts)
        # json.load keeps the file's key order
        assert list(histogram) == [str(d) for d in sorted(counts)]

    def test_report_keys_in_numeric_order(self, tmp_path):
        # as text, "-1" sorts before "-3", "10" before "2" and "100.0" before "25.0"
        g = analyze_case("synth")
        time = np.repeat([-3, -1, 0, 2, 10, 31], g.num_vertices // 6)
        g = eg.TemporalGraph(g.num_vertices, g.edges, time, g.features, g.labels, g.num_classes)
        eg.save_dataset(g, tmp_path / "ds")
        out = tmp_path / "an"
        assert main(["analyze-tdiff", str(tmp_path / "ds"), "--percentiles", "100,25,50",
                     "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "tdiff.json").read_text())
        assert list(report["per_timestamp_counts"]) == ["-3", "-1", "0", "2", "10", "31"]
        assert list(report["percentiles"]) == ["25.0", "50.0", "100.0"]
        counts = eg.k_hop_time_diffs(g, 2).counts
        assert max(counts) >= 10
        assert list(report["histogram"]) == [str(d) for d in sorted(counts)]

    def test_uniform_timestamps_suggest_one(self, tmp_path):
        g = eg.TemporalGraph(
            4, [(0, 1), (1, 2), (2, 3)], [5, 5, 5, 5],
            np.zeros((4, 2), np.float32), [0, 0, 1, 1], 2,
        )
        eg.save_dataset(g, tmp_path / "uni")
        out = tmp_path / "an2"
        rc = main(["analyze-tdiff", str(tmp_path / "uni"), "--output-dir", str(out), "--quiet"])
        assert rc == 0
        report = json.loads((out / "tdiff.json").read_text())
        assert report["suggested_history_sizes"] == [1]

    def test_difference_beyond_int64_counted(self, tmp_path):
        # 2**62 - (-2**62) = 2**63 does not fit in int64
        g = eg.TemporalGraph(
            3, [(0, 1), (1, 2)], [-2**62, 2**62, 2**62], np.zeros((3, 1), np.float32), [0, 0, 0], 1,
        )
        eg.save_dataset(g, tmp_path / "ds")
        out = tmp_path / "an"
        assert main(["analyze-tdiff", str(tmp_path / "ds"), "--k", "1", "--output-dir", str(out), "--quiet"]) == 0
        assert (out / "tdiff.csv").read_text() == "difference,count\n0,2\n9223372036854775808,1\n"
        assert json.loads((out / "tdiff.json").read_text())["histogram"] == {"0": 2, str(2**63): 1}

    def test_missing_dataset_exit_1(self, tmp_path, capsys):
        rc = main(["analyze-tdiff", str(tmp_path / "absent"), "--quiet"])
        assert rc == 1

    def test_non_numeric_feature_exit_1(self, tmp_path, capsys):
        g = eg.TemporalGraph(
            4, [(0, 1), (1, 2)], [1, 2, 3, 4], np.zeros((4, 2), np.float32), [0, 1, 0, 1], 2,
        )
        eg.save_dataset(g, tmp_path / "ds")
        (tmp_path / "ds" / "features.bin").unlink()
        (tmp_path / "ds" / "features.csv").write_text("0,0\n0,0\nabc,0\n0,0\n")
        rc = main(["analyze-tdiff", str(tmp_path / "ds"), "--output-dir", str(tmp_path / "an")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: features.csv:3: non-numeric value 'abc' in column 1\n"

    @pytest.mark.parametrize(
        "flag, value",
        [pytest.param("--percentiles", v, id=v) for v in ["abc", "150", "0", "-5", "nan", ","]]
        + [pytest.param("--k", v, id=f"k={v}") for v in ["0", "-1"]],
    )
    def test_bad_percentiles_exit_2_before_loading(self, dataset, tmp_path, capsys, flag, value):
        # a bad --percentiles or --k gets one verdict with pairs, without pairs,
        # and before a missing dataset is noticed
        edgeless = eg.TemporalGraph(
            3, np.zeros((0, 2), np.int64), [1, 2, 3], np.zeros((3, 2), np.float32), [0, 1, 0], 2,
        )
        eg.save_dataset(edgeless, tmp_path / "edgeless")
        for data in (dataset, tmp_path / "edgeless", tmp_path / "absent"):
            rc = main(["analyze-tdiff", str(data), flag, value,
                       "--output-dir", str(tmp_path / "an"), "--quiet"])
            assert rc == 2
            assert flag in capsys.readouterr().err
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (MemoryError("Unable to allocate 8.00 EiB"), 1, "error: out of memory: Unable to allocate 8.00 EiB\n"),
            (KeyboardInterrupt(), 130, "error: interrupted\n"),
        ],
        ids=["out-of-memory", "interrupt"],
    )
    def test_failing_block_product_ends_in_one_line(self, dataset, tmp_path, monkeypatch, capsys, error, code, line):
        # four blocks; the second block's product fails, on the worker thread
        g = eg.load_dataset(dataset)
        monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", 40 * g.num_vertices)
        block_reach, threads = tdiff._block_reach, []

        def failing_second(*args):
            threads.append(threading.get_ident())
            if len(threads) == 2:
                raise error
            return block_reach(*args)

        monkeypatch.setattr(tdiff, "_block_reach", failing_second)
        before = threading.active_count()
        out = tmp_path / "an"
        assert main(["analyze-tdiff", str(dataset), "--output-dir", str(out), "--quiet"]) == code
        assert capsys.readouterr().err == line
        assert not out.exists()
        assert len(threads) == 2 and threading.get_ident() not in threads
        assert threading.active_count() == before


class TestRun:
    def test_fan_out_files(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"])
        assert rc == 0
        assert (out / "report_seed0.jsonl").exists()
        assert (out / "report_seed1.jsonl").exists()
        assert (out / "summary.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["reports"] == {
            "0": "report_seed0.jsonl",
            "1": "report_seed1.jsonl",
        }
        assert manifest["dataset_fingerprint"] == eg.dataset_fingerprint(eg.load_dataset(dataset))

    def test_rerun_from_manifest_byte_identical(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset, detector="gdoc")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
        assert main([
            "run", "--from-manifest", str(out1 / "manifest.json"),
            "--output-dir", str(out2), "--quiet",
        ]) == 0
        for name in ("report_seed0.jsonl", "report_seed1.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rerun_from_changed_dataset_exit_1(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        cfg = write_config(tmp_path / "c.cfg", data, seeds="0")
        out = tmp_path / "r1"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        features = data / "features.bin"
        raw = bytearray(features.read_bytes())
        raw[-1] ^= 1
        features.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main([
            "run", "--from-manifest", str(out / "manifest.json"),
            "--output-dir", str(tmp_path / "r2"), "--quiet",
        ]) == 1
        assert "changed since the manifest was written" in capsys.readouterr().err

    def test_rerun_from_unparseable_dataset_names_the_file(self, dataset, tmp_path, capsys):
        # the fingerprint is the loaded graph's, so a file that does not load is named
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        cfg = write_config(tmp_path / "c.cfg", data, seeds="0")
        out = tmp_path / "r1"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        (data / "times.bin").write_bytes(bytes(3))
        capsys.readouterr()
        assert main([
            "run", "--from-manifest", str(out / "manifest.json"),
            "--output-dir", str(tmp_path / "r2"), "--quiet",
        ]) == 1
        assert capsys.readouterr().err == "error: times.bin holds 3 bytes, not a whole number of 8-byte rows\n"
        assert not (tmp_path / "r2").exists()

    def test_one_read_per_dataset_file(self, dataset, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0")
        reads = []
        read_bytes = dataio.read_bytes
        monkeypatch.setattr(dataio, "read_bytes", lambda p, error: reads.append(p) or read_bytes(p, error))
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
        names = [p.name for p in reads if p.parent == dataset]
        assert names == ["manifest", "edges.bin", "times.bin", "labels.bin", "features.bin"]

    def test_text_copy_gives_the_same_outputs(self, dataset, tmp_path):
        # text integer files in place of the binary ones: the same analysis, reports,
        # checkpoints and summary, the dataset fingerprint included
        text = text_copy(dataset, tmp_path / "text")
        runs = {}
        for name, data in (("bin", dataset), ("text", text)):
            an = tmp_path / f"an-{name}"
            assert main(["analyze-tdiff", str(data), "--output-dir", str(an), "--quiet"]) == 0
            cfg = write_config(tmp_path / f"{name}.cfg", data, model="sage", detector="gdoc")
            runs[name] = tmp_path / f"run-{name}"
            assert main(["run", "--config", str(cfg), "--output-dir", str(runs[name]), "--quiet"]) == 0
        for f in ("tdiff.json", "tdiff.csv"):
            assert (tmp_path / "an-bin" / f).read_bytes() == (tmp_path / "an-text" / f).read_bytes()
        files = ["report_seed0.jsonl", "report_seed1.jsonl", "summary.json",
                 "model_seed0/params.bin", "model_seed1/params.bin"]
        for f in files:
            assert (runs["bin"] / f).read_bytes() == (runs["text"] / f).read_bytes()
        # the text dataset's run re-runs from its manifest byte for byte
        rerun = tmp_path / "rerun"
        assert main(["run", "--from-manifest", str(runs["text"] / "manifest.json"),
                     "--output-dir", str(rerun), "--quiet"]) == 0
        for f in ["manifest.json", "model_seed0/manifest", "model_seed1/manifest", *files]:
            assert (runs["text"] / f).read_bytes() == (rerun / f).read_bytes()

    def test_rerun_from_moved_dataset_exit_1(self, dataset, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(dataset, data)
        cfg = write_config(tmp_path / "c.cfg", data, seeds="0")
        out = tmp_path / "r1"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        data.rename(tmp_path / "moved")
        capsys.readouterr()
        assert main([
            "run", "--from-manifest", str(out / "manifest.json"),
            "--output-dir", str(tmp_path / "r2"), "--quiet",
        ]) == 1
        assert capsys.readouterr().err == f"error: not a dataset directory: {data}\n"
        assert not (tmp_path / "r2").exists()

    def test_summary_agrees_with_report_files(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", dataset, detector="doc", seeds="0,1,2")
        out = tmp_path / "s"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
        # without --quiet, run prints the summary it wrote
        assert capsys.readouterr().out == (out / "summary.json").read_text()
        summary = json.loads((out / "summary.json").read_text())
        # a report is one JSON object per line: the task records, then the summary
        reports = []
        for s in (0, 1, 2):
            *tasks, last = map(json.loads, (out / f"report_seed{s}.jsonl").read_text().splitlines())
            assert [obj.pop("kind") for obj in tasks] == ["task"] * len(tasks)
            report = eg.MetricsReport([TaskRecord(**obj) for obj in tasks])
            assert last == {"kind": "summary", **report.summary()}
            reports.append(report)
        for key in ("avg_accuracy", "mcc", "open_macro_f1"):
            mean, ci = eg.mean_ci95([getattr(r, key)() for r in reports])
            assert summary[key] == {"mean": mean, "ci95": ci}
        per_task = np.mean([r.accuracies() for r in reports], axis=0)
        assert summary["per_task_accuracy_mean"] == [float(x) for x in per_task]

    def test_jobs_parallel_identical(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out1), "--quiet"]) == 0
        assert main([
            "run", "--config", str(cfg), "--output-dir", str(out2),
            "--jobs", "2", "--quiet",
        ]) == 0
        for name in ("report_seed0.jsonl", "report_seed1.jsonl", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_seed_chunks_write_the_files_of_one_batch(self, dataset, tmp_path, jobs):
        cfg = write_config(tmp_path / "c.cfg", dataset, model="sage", seeds="0,1,2", detector="gdoc")
        outs = {j: tmp_path / f"jobs{j}" for j in ("1", jobs)}
        for j, out in outs.items():
            assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", j, "--quiet"]) == 0
        files = sorted(p.relative_to(outs["1"]) for p in outs["1"].rglob("*") if p.is_file())
        assert len(files) == 3 + 2 + 3 * 2  # reports, summary and manifest, checkpoints
        for f in files:
            assert (outs["1"] / f).read_bytes() == (outs[jobs] / f).read_bytes()

    @pytest.mark.parametrize("jobs, chunks", [(1, [[0, 1, 2]]), (2, [[0, 1], [2]]), (5, [[0], [1], [2]])])
    def test_one_job_per_contiguous_chunk_of_seeds(self, dataset, tmp_path, monkeypatch, jobs, chunks):
        batches, pools = [], []
        real = cli.run_sequences

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(
            cli, "run_sequences", lambda g, cfgs, seeds: batches.append(seeds) or real(g, cfgs, seeds)
        )
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1,2", epochs="2")
        out = tmp_path / "run"
        argv = ["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", str(jobs), "--quiet"]
        assert main(argv) == 0
        assert batches == chunks
        assert pools == ([len(chunks)] if len(chunks) > 1 else [])

    def test_detector_flags_override(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset)
        out = tmp_path / "ov"
        rc = main([
            "run", "--config", str(cfg), "--output-dir", str(out), "--quiet",
            "--detector", "gdoc", "--tau-min", "0.6", "--alpha", "1.0",
            "--risk-reduction", "true",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["detector"] == "gdoc"
        assert manifest["config"]["tau_min"] == "0.6"
        assert manifest["config"]["risk_reduction"] == "true"

    def test_detector_flags_recorded_config_pinned(self, dataset, tmp_path):
        # a float flag is recorded as repr(float(value)): --alpha 1 as 1.0
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0")
        out = tmp_path / "ov"
        rc = main([
            "run", "--config", str(cfg), "--output-dir", str(out), "--quiet",
            "--detector", "gdoc", "--tau-min", "0.6", "--alpha", "1", "--risk-reduction", "true",
        ])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == {
            "format_version": "1", "mode": "sequence", "dataset": str(dataset), "model": "mlp",
            "hidden_dim": "32", "sgc_k": "2", "dropout": "0.5", "learning_rate": "0.01",
            "weight_decay": "0.0005", "epochs": "8", "loss_mode": "auto", "history_size": "1",
            "restart": "warm", "label_rate": "1.0", "label_seed": "0", "detector": "gdoc",
            "tau_min": "0.6", "alpha": "1.0", "risk_reduction": "true", "seeds": "0",
            "pretrain_epochs": "200", "inference_epochs": "35",
        }

    def test_detector_flag_matches_config_file(self, dataset, tmp_path):
        # both resolve tau_min to DOC's default, 0.5
        plain = write_config(tmp_path / "plain.cfg", dataset, seeds="0")
        doc = write_config(tmp_path / "doc.cfg", dataset, seeds="0", detector="doc")
        flag, file = tmp_path / "flag", tmp_path / "file"
        argv = ["run", "--quiet", "--output-dir"]
        assert main(argv + [str(flag), "--config", str(plain), "--detector", "doc"]) == 0
        assert main(argv + [str(file), "--config", str(doc)]) == 0
        names = sorted(p.relative_to(file) for p in file.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(flag) for p in flag.rglob("*") if p.is_file())
        for name in names:
            assert (flag / name).read_bytes() == (file / name).read_bytes()
        assert json.loads((flag / "manifest.json").read_text())["config"]["tau_min"] == "0.5"

    @pytest.mark.parametrize("source", ["--config", "--from-manifest"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_source_exit_2(self, tmp_path, capsys, source, kind):
        path = tmp_path / "source"
        if kind == "directory":
            path.mkdir()
        assert main(["run", source, str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {path}: cannot read (")
        assert captured.err.count("\n") == 1

    def test_gdoc_summary_has_open_metrics(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset, detector="gdoc", seeds="0")
        out = tmp_path / "g"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "mcc" in summary and "open_macro_f1" in summary

    def test_writes_loadable_model_checkpoints(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0")
        out = tmp_path / "ck"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        model = eg.load_checkpoint(out / "model_seed0")
        assert model.kind == "mlp"
        assert model.output_dim >= 4

    def test_bad_config_exit_2(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", dataset, learning_rate="-3")
        rc = main(["run", "--config", str(cfg), "--quiet"])
        assert rc == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_model_exit_2(self, dataset, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", dataset, model="gat")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_bad_value_rejected_by_library_and_run(self, dataset, tmp_path, capsys, case):
        overrides, construct = BAD_VALUES[case]
        field = case.partition("=")[0]
        with pytest.raises(EvographError, match=field):
            construct()
        cfg = write_config(tmp_path / "bad.cfg", dataset, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_loaded_once(self, dataset, tmp_path, monkeypatch):
        calls = []

        def counting_load(path):
            calls.append(path)
            return eg.load_dataset(path)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1,2,3")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1", "--quiet"]) == 0
        assert len(calls) == 1
        assert json.loads((out / "summary.json").read_text())["n_seeds"] == 4

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_exit_2_before_loading(self, dataset, tmp_path, capsys, jobs):
        for data in (dataset, tmp_path / "absent"):
            cfg = write_config(tmp_path / "c.cfg", data)
            out = tmp_path / "out"
            rc = main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"])
            assert rc == 2
            assert "--jobs" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_dataset_exit_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", tmp_path / "absent")
        assert main(["run", "--config", str(cfg), "--quiet"]) == 1

    def test_two_task_mode(self, dataset, tmp_path):
        cfg = write_config(
            tmp_path / "tt.cfg", dataset, mode="two-task", seeds="0",
            pretrain_epochs="5", inference_epochs="4", model="mlp",
        )
        out = tmp_path / "tt"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        lines = (out / "report_seed0.jsonl").read_text().strip().splitlines()
        epochs = [json.loads(x) for x in lines if json.loads(x)["kind"] == "epoch"]
        assert len(epochs) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trace_mean"] == [e["accuracy"] for e in epochs]

    def test_two_task_summary_agrees_with_report_files(self, dataset, tmp_path):
        cfg = write_config(
            tmp_path / "tt.cfg", dataset, mode="two-task", seeds="0,1,2",
            pretrain_epochs="5", inference_epochs="4",
        )
        out = tmp_path / "tt"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        lines = [
            [json.loads(x) for x in (out / f"report_seed{s}.jsonl").read_text().splitlines()]
            for s in (0, 1, 2)
        ]
        # exactly one summary line per report file
        (finals,) = zip(*[[obj for obj in seed if obj["kind"] == "summary"] for seed in lines])
        for key in ("initial_accuracy", "final_accuracy"):
            mean, ci = eg.mean_ci95([obj[key] for obj in finals])
            assert summary[key] == {"mean": mean, "ci95": ci}
        traces = [[obj["accuracy"] for obj in seed if obj["kind"] == "epoch"] for seed in lines]
        assert summary["trace_mean"] == [float(x) for x in np.mean(traces, axis=0)]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"restart": "warm", "epochs": "20"}, "task 1: non-finite logits at epoch 2"),
            ({"restart": "cold", "epochs": "1"}, "task 1: non-finite logits after epoch 1"),
            # two-task seeds 0-2 train as one stack: it fails, and so does seed 0 alone
            ({"mode": "two-task", "seeds": "0,1,2", "pretrain_epochs": "20", "inference_epochs": "3"},
             "non-finite logits at epoch 2"),
            ({"mode": "two-task", "seeds": "0,1,2", "pretrain_epochs": "0", "inference_epochs": "1"},
             "non-finite logits after epoch 1"),
        ],
        ids=["diverges-in-training", "diverges-in-the-last-update",
             "two-task-diverges-in-training", "two-task-diverges-in-the-last-update"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys, jobs, overrides, message):
        data = tmp_path / "d"
        assert main(["generate", str(data), "--num-timestamps", "6", "--vertices-per-timestamp", "12",
                     "--feature-dim", "4", "--quiet"]) == 0
        cfg = write_config(tmp_path / "c.cfg", data, learning_rate="1e300", **overrides)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_two_class_run_files_do_not_depend_on_jobs(self, tmp_path):
        # two output units on windows of 60 rows and more: seed 2 trains alone at --jobs 2
        data = tmp_path / "d"
        assert main(["generate", str(data), "--num-timestamps", "6", "--vertices-per-timestamp", "30",
                     "--initial-classes", "2", "--feature-dim", "6", "--seed", "3", "--quiet"]) == 0
        cfg = write_config(tmp_path / "c.cfg", data, history_size="full", epochs="20", seeds="0,1,2")
        for jobs in ("1", "2"):
            assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / jobs), "--jobs", jobs,
                         "--quiet"]) == 0
        files = sorted(p.relative_to(tmp_path / "1") for p in (tmp_path / "1").rglob("*") if p.is_file())
        assert len(files) == 3 + 2 + 3 * 2  # reports, summary and manifest, checkpoints
        for f in files:
            assert (tmp_path / "1" / f).read_bytes() == (tmp_path / "2" / f).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_two_task_first_seed_line_wins_over_later_seeds_failing_earlier(self, tmp_path, capsys, jobs):
        data = tmp_path / "d"
        assert main(["generate", str(data), "--num-timestamps", "2", "--vertices-per-timestamp", "60",
                     "--initial-classes", "3", "--feature-dim", "8", "--feature-noise", "0.3",
                     "--intra-class-edge-prob", "0.12", "--inter-class-edge-prob", "0.01", "--window-back", "1",
                     "--seed", "2", "--quiet"]) == 0
        cfg = write_config(tmp_path / "c.cfg", data, mode="two-task", model="sage", hidden_dim="8",
                           learning_rate="3.16e18", loss_mode="bce", seeds="0,1,2,3",
                           pretrain_epochs="3", inference_epochs="3")
        spec = parse_config_text(cfg.read_text())
        g = eg.load_dataset(data)
        alone = {}
        for s in spec.experiment.seeds:
            with pytest.raises(eg.ValidationError) as exc:
                eg.two_task_experiment(g, spec.experiment, 3, 3, seeds=[s])
            alone[s] = str(exc.value)
        # seed 0 fails last; every later seed fails at an earlier epoch
        assert alone == {0: "non-finite logits at epoch 3", **{s: "non-finite logits at epoch 2" for s in (1, 2, 3)}}
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {alone[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, route",
        [
            # float32 training logits overflow: seeds 1, 2 and 3 at task 1, seed 0 at task 2
            # (learning rates 2.42e18 to 2.7e18 do the same)
            ({"epochs": "2", "learning_rate": "2.56e18"}, "at epoch"),
            # a weighted-bce gradient times the learning rate passes float32's range, so the one
            # update leaves a parameter inf: seeds 1 and 2 at task 1, seed 0 at task 4
            ({"epochs": "1", "learning_rate": "2.5e38", "loss_mode": "weighted-bce", "hidden_dim": "4",
              "restart": "cold"}, "after epoch"),
        ],
        ids=["in-training", "in-scoring"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_seed_line_wins_over_later_seeds_failing_earlier(
        self, dataset, tmp_path, capsys, jobs, overrides, route
    ):
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1,2,3", **overrides)
        spec = parse_config_text(cfg.read_text())
        g = eg.load_dataset(dataset)
        alone = {}
        for s in spec.experiment.seeds:
            try:
                eg.run_sequence(g, spec.experiment, seed=s)
            except eg.RunError as exc:
                alone[s] = exc
        # seed 0 fails last; later seeds fail at earlier tasks, by the route under test
        earlier = [s for s, exc in alone.items() if s > 0 and exc.task_index < alone[0].task_index]
        assert len(earlier) >= 2 and all(route in str(alone[s]) for s in earlier)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {alone[0]}\n"
        assert not (out / "manifest.json").exists()

    def test_later_seed_failing_after_the_first_finishes_is_raised(self, dataset, tmp_path, capsys):
        # float32 training logits overflow for seed 1 at task 6; seed 0 finishes every task
        # (learning rates 1.04e18 to 1.36e18 do the same, seed 1 failing at task 6 or 5; at one
        # epoch no learning rate from 1.2e18 to 3.1e18 lets seed 0 finish while seed 1 fails)
        cfg = write_config(tmp_path / "c.cfg", dataset, epochs="2", learning_rate="1.2e18")
        spec = parse_config_text(cfg.read_text())
        g = eg.load_dataset(dataset)
        eg.run_sequence(g, spec.experiment, seed=0)
        with pytest.raises(eg.RunError) as alone:
            eg.run_sequence(g, spec.experiment, seed=1)
        # the batch of both seeds trains seed 0 to the end, then raises seed 1's error
        with pytest.raises(eg.RunError) as batched:
            eg.run_sequences(g, [spec.experiment], [0, 1])
        assert (batched.value.task_index, str(batched.value)) == (alone.value.task_index, str(alone.value))
        for jobs in ("1", "2"):
            out = tmp_path / f"run{jobs}"
            assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"]) == 1
            assert capsys.readouterr().err == f"error: {alone.value}\n"
            assert not out.exists()

    @staticmethod
    def short_of_memory_on_task_2(dataset, monkeypatch, batch_only):
        """Make ``lifelong.train`` run out of memory on task 2's window: on every call, or
        (``batch_only``) only when handed more than one model.  Returns the list of the
        stack sizes of the calls that ran out."""
        g = eg.load_dataset(dataset)
        window = g.time[eg.build_task_sequence(g, 1)[1].train_vertices].tolist()
        real_train, ran_out = eg.lifelong.train, []

        def short_of_memory(models, train_g, *args):
            if train_g.time.tolist() == window and (len(models) > 1 or not batch_only):
                ran_out.append(len(models))
                raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2, 2**61)")
            return real_train(models, train_g, *args)

        monkeypatch.setattr(eg.lifelong, "train", short_of_memory)
        return ran_out

    def test_memory_error_names_its_task(self, dataset, tmp_path, monkeypatch, capsys):
        # the two seeds' batch, and then seed 0 alone, run out of memory on task 2
        ran_out = self.short_of_memory_on_task_2(dataset, monkeypatch, batch_only=False)
        cfg = write_config(tmp_path / "c.cfg", dataset, epochs="1")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1", "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: task 2: out of memory: Unable to allocate 8.00 EiB for an array with shape (2, 2**61)\n"
        )
        assert not out.exists()
        assert ran_out == [2, 1]

    def test_memory_error_of_the_batch_alone_ends_in_a_normal_run(self, dataset, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.cfg", dataset, epochs="1")
        outs = {name: tmp_path / name for name in ("plain", "batch-oom")}
        assert main(["run", "--config", str(cfg), "--output-dir", str(outs["plain"]), "--quiet"]) == 0
        # the two seeds' batch runs out of memory on task 2; each seed alone fits
        ran_out = self.short_of_memory_on_task_2(dataset, monkeypatch, batch_only=True)
        assert main(["run", "--config", str(cfg), "--output-dir", str(outs["batch-oom"]), "--quiet"]) == 0
        assert ran_out == [2]
        files = sorted(p.relative_to(outs["plain"]) for p in outs["plain"].rglob("*") if p.is_file())
        assert len(files) == 2 + 2 + 2 * 2  # reports, summary and manifest, checkpoints
        assert files == sorted(p.relative_to(outs["batch-oom"]) for p in outs["batch-oom"].rglob("*") if p.is_file())
        for f in files:
            assert (outs["plain"] / f).read_bytes() == (outs["batch-oom"] / f).read_bytes()

    @staticmethod
    def short_of_memory_in_two_task_training(monkeypatch, batch_only):
        """Make ``lifelong.train`` run out of memory: on every call, or (``batch_only``) only when
        handed more than one model.  Returns the list of the stack sizes of the calls that ran out."""
        real_train, ran_out = eg.lifelong.train, []

        def short_of_memory(models, *args, **kwargs):
            if len(models) > 1 or not batch_only:
                ran_out.append(len(models))
                raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2, 2**61)")
            return real_train(models, *args, **kwargs)

        monkeypatch.setattr(eg.lifelong, "train", short_of_memory)
        return ran_out

    def test_two_task_memory_error_ends_in_one_line(self, dataset, tmp_path, monkeypatch, capsys):
        # the two seeds' stack, and then seed 0 alone, run out of memory in pre-training
        ran_out = self.short_of_memory_in_two_task_training(monkeypatch, batch_only=False)
        cfg = write_config(tmp_path / "c.cfg", dataset, mode="two-task", pretrain_epochs="3", inference_epochs="2")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", "1", "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 8.00 EiB for an array with shape (2, 2**61)\n"
        )
        assert not out.exists()
        assert ran_out == [2, 1]

    def test_two_task_memory_error_of_the_stack_alone_ends_in_a_normal_run(self, dataset, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.cfg", dataset, mode="two-task", pretrain_epochs="3", inference_epochs="2")
        outs = {name: tmp_path / name for name in ("plain", "stack-oom")}
        assert main(["run", "--config", str(cfg), "--output-dir", str(outs["plain"]), "--quiet"]) == 0
        # the two seeds' stack runs out of memory in pre-training; each seed alone fits
        ran_out = self.short_of_memory_in_two_task_training(monkeypatch, batch_only=True)
        assert main(["run", "--config", str(cfg), "--output-dir", str(outs["stack-oom"]), "--quiet"]) == 0
        assert ran_out == [2]
        files = sorted(p.relative_to(outs["plain"]) for p in outs["plain"].rglob("*") if p.is_file())
        assert len(files) == 2 + 2  # reports, summary and manifest
        assert files == sorted(p.relative_to(outs["stack-oom"]) for p in outs["stack-oom"].rglob("*") if p.is_file())
        for f in files:
            assert (outs["plain"] / f).read_bytes() == (outs["stack-oom"] / f).read_bytes()

    def test_dead_worker_names_the_seeds_without_a_result(self, dataset, tmp_path, monkeypatch, capfd):
        # the worker of chunk [2, 3] dies as if killed; chunk [0, 1] may be done by then or not
        monkeypatch.setattr(cli, "_chunk_job", exit_in_chunk_of_seed_2)
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1,2,3", epochs="1")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", "2", "--quiet"]) == 1
        assert re.fullmatch(r"error: seeds (0,1,)?2,3: no result, a worker process ended abruptly\n",
                            capfd.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_interrupt_ends_in_one_line_and_exit_130(self, dataset, tmp_path, monkeypatch, capfd, jobs):
        shutdowns = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_chunk_job", interrupt_in_chunk)
        cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1,2,3", epochs="1")
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--jobs", jobs, "--quiet"]) == 130
        assert capfd.readouterr().err == "error: interrupted\n"
        assert not out.exists()
        # one worker per chunk, so no chunk waits to start: the pool only leaves its with block
        assert shutdowns == ([] if jobs == "1" else [False])

    def test_two_task_single_timestamp_exit_1(self, tmp_path, capsys):
        data = tmp_path / "one"
        assert main(["generate", str(data), "--num-timestamps", "1", "--quiet"]) == 0
        cfg = write_config(tmp_path / "tt.cfg", data, mode="two-task", seeds="0")
        out = tmp_path / "tt"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: no labeled vertices before the final timestamp 0\n"
        assert not (out / "manifest.json").exists()


def exit_in_chunk_of_seed_2(spec, g, seeds, chunk_job=cli._chunk_job):
    """``cli._chunk_job``, but the process ends at once, as if killed, in the chunk of seed 2;
    top-level so a process pool can pickle it."""
    if 2 in seeds:
        os._exit(9)
    return chunk_job(spec, g, seeds)


def interrupt_in_chunk(spec, g, seeds):
    """``cli._chunk_job`` as if Ctrl-C came while it ran; top-level so a process pool can pickle it."""
    raise KeyboardInterrupt


@pytest.fixture(scope="module")
def warm_cold_runs(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    outs = {}
    for restart in ("warm", "cold"):
        cfg = write_config(root / f"{restart}.cfg", dataset, restart=restart, seeds="0,1")
        out = root / restart
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        outs[restart] = out
    return outs


class TestReport:
    def test_single_report_single_row(self, warm_cold_runs, capsys):
        rc = main(["report", str(warm_cold_runs["warm"]), "--mode", "accuracy-table"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("model,history_size")

    def test_accuracy_table_rejects_two_runs_in_one_cell(self, warm_cold_runs, dataset, tmp_path, capsys):
        # same model, history size and restart as the warm run; only epochs differ
        cfg = write_config(tmp_path / "w2.cfg", dataset, restart="warm", epochs="2", seeds="0,1")
        out = tmp_path / "warm2"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        capsys.readouterr()
        rc = main(["report", str(warm_cold_runs["warm"]), str(out), "--mode", "accuracy-table"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(warm_cold_runs["warm"]) in captured.err and str(out) in captured.err

    def test_fwt_matches_metrics_module(self, warm_cold_runs, capsys):
        rc = main([
            "report", str(warm_cold_runs["warm"]), str(warm_cold_runs["cold"]),
            "--mode", "fwt",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        reported = float(lines[1].split(",")[-1])
        warm = json.loads((warm_cold_runs["warm"] / "summary.json").read_text())
        cold = json.loads((warm_cold_runs["cold"] / "summary.json").read_text())
        expected = eg.forward_transfer(
            warm["per_task_accuracy_mean"], cold["per_task_accuracy_mean"]
        )
        assert abs(reported - expected) < 1e-4
        # a config without its warm/cold pair gets no row
        assert main(["report", str(warm_cold_runs["warm"]), "--mode", "fwt"]) == 0
        assert capsys.readouterr().out == "model,history_size,fwt\n"

    def test_open_mode_columns(self, warm_cold_runs, capsys):
        rc = main(["report", str(warm_cold_runs["warm"]), "--mode", "open"])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.split(",")[:4] == ["model", "history_size", "restart", "detector"]

    def test_missing_summary_exit_1(self, warm_cold_runs, tmp_path, capsys):
        run = tmp_path / "warm"
        shutil.copytree(warm_cold_runs["warm"], run)
        (run / "summary.json").unlink()
        assert main(["report", str(run)]) == 1
        assert capsys.readouterr().err == (
            f"error: {run / 'summary.json'}: cannot read (No such file or directory)\n"
        )

    @pytest.mark.parametrize("mode", ["accuracy-table", "fwt", "open"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"x": 1}', "missing key 'avg_accuracy'"),
            ('{"avg_accuracy": {"mean"', "not valid JSON"),
            ("[1]", "expected a JSON object"),
        ],
        ids=["missing-key", "truncated", "not-an-object"],
    )
    def test_bad_summary_exit_1(self, warm_cold_runs, tmp_path, capsys, mode, text, message):
        run = tmp_path / "warm"
        shutil.copytree(warm_cold_runs["warm"], run)
        (run / "summary.json").write_text(text)
        assert main(["report", str(run), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {run / 'summary.json'}: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["accuracy-table", "fwt", "open"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("avg_accuracy", "x"),
            ("mcc", {"ci95": 0.1}),
            ("open_macro_f1", {"mean": 0.5, "ci95": "0.1"}),
            ("avg_accuracy", {"mean": True, "ci95": 0.1}),
            ("per_task_accuracy_mean", {"0": 0.5}),
            ("per_task_accuracy_mean", [0.5, None]),
            # JSON integers have no bound; these once ended in an OverflowError traceback
            ("mcc", {"mean": 10**400, "ci95": 0.1}),
            ("per_task_accuracy_mean", [0.5, -(10**400)]),
        ],
        ids=["string", "no-mean", "string-ci95", "bool-mean", "trace-object", "trace-null",
             "integer-beyond-float", "trace-integer-beyond-float"],
    )
    def test_bad_summary_value_exit_1(self, warm_cold_runs, tmp_path, capsys, mode, key, value):
        run = tmp_path / "warm"
        shutil.copytree(warm_cold_runs["warm"], run)
        summary = json.loads((run / "summary.json").read_text())
        summary[key] = value
        (run / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(run), "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        shape = "a list of numbers" if key == "per_task_accuracy_mean" else '{"mean": number, "ci95": number}'
        assert captured.err == f"error: {run / 'summary.json'}: {key} must be {shape}\n"

    def test_empty_args_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--mode", "fwt"])
        assert exc.value.code == 2

    def test_mixed_fingerprints_error(self, warm_cold_runs, dataset, tmp_path, capsys):
        other_ds = tmp_path / "other"
        main(["generate", str(other_ds), "--seed", "99", "--feature-dim", "8", "--quiet"])
        cfg = write_config(tmp_path / "o.cfg", other_ds, seeds="0")
        out = tmp_path / "orun"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        rc = main(["report", str(warm_cold_runs["warm"]), str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {out} and {warm_cold_runs['warm']} ran on datasets of different fingerprints\n"
        )

    @pytest.mark.parametrize(
        "warm_trace, cold_trace, message",
        [
            (slice(None), slice(-1), "warm/cold accuracy sequences differ in length"),
            (slice(1), slice(1), "forward transfer needs at least 2 tasks"),
        ],
        ids=["cold-trace-shorter", "one-task"],
    )
    def test_fwt_of_traces_that_do_not_pair_exit_1(self, warm_cold_runs, tmp_path, capsys,
                                                    warm_trace, cold_trace, message):
        runs = {}
        for side, cut in (("warm", warm_trace), ("cold", cold_trace)):
            runs[side] = tmp_path / side
            shutil.copytree(warm_cold_runs[side], runs[side])
            summary = json.loads((runs[side] / "summary.json").read_text())
            summary["per_task_accuracy_mean"] = summary["per_task_accuracy_mean"][cut]
            (runs[side] / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(runs["warm"]), str(runs["cold"]), "--mode", "fwt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {runs['warm']} and {runs['cold']}: {message}\n"

    @pytest.mark.parametrize("mode", ["accuracy-table", "fwt", "open"])
    def test_two_task_run_rejected(self, warm_cold_runs, dataset, tmp_path, capsys, mode):
        cfg = write_config(
            tmp_path / "tt.cfg", dataset, mode="two-task", seeds="0",
            pretrain_epochs="3", inference_epochs="2",
        )
        out = tmp_path / "tt"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        capsys.readouterr()
        rc = main(["report", str(warm_cold_runs["warm"]), str(out), "--mode", mode])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out) in captured.err and "two-task" in captured.err

    @staticmethod
    def edited_copies(warm_cold_runs, root, configs, sides=("warm", "cold")):
        """Copies of the warm and cold runs, one per config edit and side, in that order."""
        runs = []
        for i, edit in enumerate(configs):
            for side in sides:
                run = root / f"{side}{i}"
                shutil.copytree(warm_cold_runs[side], run)
                payload = json.loads((run / "manifest.json").read_text())
                payload["config"].update(edit)
                (run / "manifest.json").write_text(json.dumps(payload))
                runs.append(str(run))
        return runs

    @pytest.mark.parametrize("mode", ["accuracy-table", "fwt", "open"])
    def test_rows_by_history_size(self, warm_cold_runs, tmp_path, capsys, mode):
        # as text, "10" sorts before "2"; full comes last
        configs = [{"history_size": h} for h in ("full", "10", "2", "1")]
        runs = self.edited_copies(warm_cold_runs, tmp_path, configs)
        assert main(["report", *runs, "--mode", mode]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        per_size = 2 if mode == "open" else 1  # open has a row per restart, cold first
        assert [row[1] for row in rows] == [h for h in ("1", "2", "10", "full") for _ in range(per_size)]
        if mode == "open":
            assert [row[2] for row in rows] == ["cold", "warm"] * 4

    def test_open_rows_by_detector_tau_min_and_alpha(self, warm_cold_runs, tmp_path, capsys):
        # as text, "0.5" sorts before "1e-3" and "10.0" before "2.0"
        configs = [{"detector": "gdoc", "tau_min": t, "alpha": a}
                   for t, a in (("0.5", "10.0"), ("0.5", "2.0"), ("1e-3", "2.0"))]
        runs = self.edited_copies(warm_cold_runs, tmp_path, [{}, *configs], sides=("warm",))
        assert main(["report", *runs, "--mode", "open"]) == 0
        rows = [row.split(",")[3:6] for row in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["gdoc", "1e-3", "2.0"], ["gdoc", "0.5", "2.0"], ["gdoc", "0.5", "10.0"],
                        ["none", "0.75", "0.0"]]


def _edit(change):
    """A manifest.json edit that applies ``change`` to the parsed object."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


# run manifest.json edit -> what the config error says about the file
BAD_RUN_MANIFESTS = {
    "truncated": (lambda text: text[: len(text) // 2], "not valid JSON"),
    "format-version-only": (lambda text: '{"format_version": 1}', "missing key 'config'"),
    **{f"no-{key}": (_edit(lambda m, key=key: m.pop(key)), f"missing key '{key}'")
       for key in ("config", "dataset_fingerprint", "reports", "summary")},
    "config-list": (
        _edit(lambda m: m.update(config=["model=mlp"])), "config must be an object of string values"
    ),
    "config-number": (
        _edit(lambda m: m["config"].update(dataset=5)), "config must be an object of string values"
    ),
    "summary-number": (
        _edit(lambda m: m.update(summary=5)), "summary and dataset_fingerprint must be strings"
    ),
    "format-version-2": (_edit(lambda m: m.update(format_version=2)), "unsupported format_version"),
}

# command -> its mode arguments; "report" runs the default mode
MANIFEST_COMMANDS = {
    "run": [],
    "report": [],
    "report-fwt": ["--mode", "fwt"],
    "report-open": ["--mode", "open"],
}


@pytest.mark.parametrize("command", MANIFEST_COMMANDS)
@pytest.mark.parametrize("case", BAD_RUN_MANIFESTS)
def test_bad_run_manifest_exit_2(warm_cold_runs, tmp_path, capsys, command, case):
    run = tmp_path / "warm"
    shutil.copytree(warm_cold_runs["warm"], run)
    manifest = run / "manifest.json"
    edit, message = BAD_RUN_MANIFESTS[case]
    manifest.write_text(edit(manifest.read_text()))
    if command == "run":
        argv = ["run", "--from-manifest", str(manifest), "--output-dir", str(tmp_path / "r"), "--quiet"]
    else:
        argv = ["report", str(run), *MANIFEST_COMMANDS[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {manifest}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("source", ["--config", "--from-manifest"])
@pytest.mark.parametrize(
    "entries, flags, message",
    [
        ({"model": "gat"}, [], "{path}: model must be one of"),
        ({}, ["--detector", "gdoc", "--tau-min", "2"], "tau_min must be in (0, 1]"),
        # the file's tau_min is checked once a flag turns its detector on
        ({"detector": "none", "tau_min": "2"}, ["--detector", "gdoc"], "{path}: tau_min must be in (0, 1]"),
        # the file's bad detector is overridden; the flag's tau_min is at fault
        ({"detector": "bogus"}, ["--detector", "gdoc", "--tau-min", "2"], "tau_min must be in (0, 1]"),
        ({"detector": "bogus"}, [], "{path}: detector: expected none, doc, or gdoc, got 'bogus'"),
        ({"format_version": "2"}, [], "{path}: format_version: unsupported '2'"),
        ({"hidden_dim": "ten"}, [], "{path}: hidden_dim: cannot parse 'ten'"),
        ({"detector": "doc", "risk_reduction": "maybe"}, [],
         "{path}: risk_reduction: expected true/false, got 'maybe'"),
        ({"inference_epochs": "-1"}, [], "{path}: pretrain_epochs and inference_epochs must be >= 0"),
    ],
    ids=["bad-entry", "bad-flag", "flag-checks-entry", "flag-overrides-entry", "bad-detector",
         "bad-format-version", "unparsable-number", "bad-bool", "negative-epoch-count"],
)
def test_run_config_error_names_file_of_bad_entry(
    warm_cold_runs, dataset, tmp_path, capsys, source, entries, flags, message
):
    if source == "--config":
        path = write_config(tmp_path / "c.cfg", dataset, **entries)
    else:
        run = tmp_path / "warm"
        shutil.copytree(warm_cold_runs["warm"], run)
        path = run / "manifest.json"
        payload = json.loads(path.read_text())
        payload["config"].update(entries)
        path.write_text(json.dumps(payload))
    out = tmp_path / "r"
    assert main(["run", source, str(path), "--output-dir", str(out), "--quiet", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: " + message.format(path=path))
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["run", "--config", "{cfg}", "--output-dir", "{file}/out"], "{file}/out"),
        (["analyze-tdiff", "{data}", "--output-dir", "{file}"], "{file}"),
        (["generate", "{file}"], "{file}"),
    ],
    ids=["run", "analyze-tdiff", "generate"],
)
def test_output_dir_that_cannot_be_created_exit_1(dataset, tmp_path, capsys, argv, out):
    # a regular file stands where the output directory would go
    names = {"cfg": write_config(tmp_path / "c.cfg", dataset, seeds="0", epochs="2"), "data": dataset,
             "file": tmp_path / "file"}
    names["file"].write_text("")
    assert main([arg.format(**names) for arg in argv] + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out.format(**names)}: cannot write (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("out, reason", [("{file}/out", "Not a directory"), ("{file}", "File exists")])
def test_run_output_dir_checked_before_training(dataset, tmp_path, capsys, monkeypatch, out, reason):
    def run_sequences(*args, **kwargs):
        pytest.fail("a seed trained although the output directory cannot be created")

    monkeypatch.setattr(cli, "run_sequences", run_sequences)
    cfg = write_config(tmp_path / "c.cfg", dataset, seeds="0,1", epochs="2")
    (tmp_path / "file").write_text("")
    out = out.format(file=tmp_path / "file")
    assert main(["run", "--config", str(cfg), "--output-dir", out, "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {out}: cannot write ({reason})\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("mode", ["accuracy-table", "fwt", "open"])
def test_report_reads_manifest_config_with_defaults(warm_cold_runs, tmp_path, capsys, mode):
    # a config key the manifest lacks takes its default, as under run --from-manifest
    def report(edit):
        runs = []
        for side in ("warm", "cold"):
            run = tmp_path / edit.__name__ / side
            shutil.copytree(warm_cold_runs[side], run)
            payload = json.loads((run / "manifest.json").read_text())
            edit(payload["config"])
            (run / "manifest.json").write_text(json.dumps(payload))
            runs.append(str(run))
        rc = main(["report", *runs, "--mode", mode])
        return rc, capsys.readouterr()

    def dropped(config):
        del config["mode"], config["model"]

    def explicit(config):
        config.update(mode="sequence", model="sage")

    def bad_model(config):
        config["model"] = "gat"

    rc, out = report(dropped)
    assert rc == 0
    assert (rc, out) == report(explicit)
    assert "sage," in out.out
    rc, out = report(bad_model)
    assert rc == 2
    manifest = tmp_path / "bad_model" / "warm" / "manifest.json"
    assert out.err.startswith(f"config error: {manifest}: model must be one of")
    assert out.err.count("\n") == 1


def test_readme_example_config_parses(dataset):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert "dataset=data/toy\n" in block
    # the example names every config key, once
    keys = [line.partition("=")[0] for line in block.splitlines() if not line.startswith("#")]
    assert sorted(keys) == sorted(config._KEYS)
    spec = parse_config_text(block.replace("dataset=data/toy\n", f"dataset={dataset}\n"))
    assert spec.dataset == str(dataset)
    assert spec.mode == "sequence"
    assert spec.experiment.model == "sage"
    assert spec.experiment.history_size == 3
    assert spec.experiment.detector.variant == eg.GDOC
    assert spec.experiment.seeds == tuple(range(10))


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {})


def test_run_spec_defaults_are_the_library_defaults():
    assert RunSpec({"dataset": "x"}).experiment == eg.ExperimentConfig()
    for variant in (eg.DOC, eg.GDOC):
        spec = RunSpec({"dataset": "x", "detector": variant})
        assert spec.experiment.detector == eg.DetectorConfig(variant=variant)


def test_generate_defaults_are_the_library_defaults(tmp_path, monkeypatch):
    built = []

    def fake_generate(cfg):
        built.append(cfg)
        return eg.TemporalGraph(2, [], [0, 1], np.zeros((2, 1), np.float32), [0, 1], 2)

    monkeypatch.setattr(cli, "generate", fake_generate)
    monkeypatch.setattr(cli, "save_dataset", lambda *args: None)
    assert main(["generate", str(tmp_path / "d")]) == 0
    assert built == [eg.SynthConfig()]
