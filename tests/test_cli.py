import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import evograph as eg
from evograph import cli
from evograph.cli import main
from evograph.config import parse_config_text
from evograph.errors import EvographError

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
    g = eg.load_dataset(dataset)
    assert g.num_vertices == 160
    assert g.num_classes == 5


# each subcommand takes only the flags it reads, and only after its name
UNREAD_FLAGS = {
    "generate-output-dir": ["generate", "d", "--output-dir", "x"],
    "generate-jobs": ["generate", "d", "--jobs", "2"],
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


def test_generate_duplicate_schedule_timestamp_exit_2(tmp_path, capsys):
    out = tmp_path / "dup"
    rc = main(["generate", str(out), "--new-class-schedule", "5:1,5:2", "--quiet"])
    assert rc == 2
    assert "timestamp 5 given twice" in capsys.readouterr().err
    assert not out.exists()


class TestAnalyze:
    def test_wiring_matches_library(self, dataset, tmp_path, capsys):
        out = tmp_path / "an"
        rc = main(["analyze-tdiff", str(dataset), "--k", "2", "--output-dir", str(out)])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads((out / "tdiff.json").read_text())
        assert printed == on_disk
        g = eg.load_dataset(dataset)
        assert on_disk["suggested_history_sizes"] == eg.suggest_history_sizes(
            g, 2, [25, 50, 75, 100]
        )
        hist = eg.k_hop_time_diffs(g, 2)
        assert on_disk["histogram"] == {str(d): c for d, c in hist.counts.items()}
        csv_lines = (out / "tdiff.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "difference,count"
        assert len(csv_lines) == len(hist.counts) + 1
        assert len(on_disk["drift"]) == len(np.unique(g.time)) - 1

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

    def test_missing_dataset_exit_1(self, tmp_path, capsys):
        rc = main(["analyze-tdiff", str(tmp_path / "absent"), "--quiet"])
        assert rc == 1

    def test_non_numeric_feature_exit_1(self, tmp_path, capsys):
        g = eg.TemporalGraph(
            4, [(0, 1), (1, 2)], [1, 2, 3, 4], np.zeros((4, 2), np.float32), [0, 1, 0, 1], 2,
        )
        eg.save_dataset(g, tmp_path / "ds", features_format="csv")
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
        assert manifest["dataset_fingerprint"] == eg.dataset_fingerprint(dataset)

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

    def test_summary_agrees_with_report_files(self, dataset, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", dataset, detector="doc", seeds="0,1,2")
        out = tmp_path / "s"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        reports = [
            eg.MetricsReport.from_jsonl((out / f"report_seed{s}.jsonl").read_text())
            for s in (0, 1, 2)
        ]
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

    def test_two_task_single_timestamp_exit_1(self, tmp_path, capsys):
        data = tmp_path / "one"
        assert main(["generate", str(data), "--num-timestamps", "1", "--quiet"]) == 0
        cfg = write_config(tmp_path / "tt.cfg", data, mode="two-task", seeds="0")
        out = tmp_path / "tt"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: no labeled vertices before the final timestamp 0\n"
        assert not (out / "manifest.json").exists()


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
        ],
        ids=["string", "no-mean", "string-ci95", "bool-mean", "trace-object", "trace-null"],
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
        assert "fingerprint" in capsys.readouterr().err

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
    ],
    ids=["bad-entry", "bad-flag", "flag-checks-entry", "flag-overrides-entry"],
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
    spec = parse_config_text(block.replace("dataset=data/toy\n", f"dataset={dataset}\n"))
    assert spec.dataset == str(dataset)
    assert spec.mode == "sequence"
    assert spec.experiment.model == "sage"
    assert spec.experiment.history_size == 3
    assert spec.experiment.detector.variant == eg.GDOC
    assert spec.experiment.seeds == tuple(range(10))
