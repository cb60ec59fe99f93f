import json
import math
import pickle

import numpy as np
import pytest

import evograph as eg
import reference_kernels as ref
from evograph.errors import ConfigError, RunError, ValidationError
from evograph.lifelong import _derive_seed, _unit_labels
from conftest import raises_exactly


def schedule_graph(seed=0):
    """4 initial classes, one new class entering at timestamp 4."""
    return eg.generate(
        eg.SynthConfig(
            num_timestamps=8,
            vertices_per_timestamp=20,
            num_initial_classes=4,
            new_class_schedule={4: 1},
            feature_dim=8,
            seed=seed,
        )
    )


def first_window_unsampled_graph():
    """The first window has labels, but the 50% sample at label_seed=6 takes none."""
    n = 20
    return eg.TemporalGraph(
        n, [(i, i + 1) for i in range(n - 1)], [1] * 5 + [2] * 5 + [3] * 10,
        np.zeros((n, 2), np.float32),
        [0, 1] + [eg.UNLABELED] * 3 + [0, 1] * 7 + [eg.UNLABELED], 2,
    )


class TestLabelRateSubsample:
    def test_rate_one_selects_all_labeled(self, graph_factory):
        g = graph_factory(0, unlabeled_frac=0.3)
        mask = eg.label_rate_subsample(g, 1.0, seed=0)
        assert np.array_equal(mask, g.labels != eg.UNLABELED)

    def test_no_labeled_vertices_empty_mask(self):
        g = eg.TemporalGraph(4, [], np.arange(4), np.zeros((4, 2), np.float32), [eg.UNLABELED] * 4, 2)
        assert not eg.label_rate_subsample(g, 1.0, seed=0).any()

    def test_half_rate_exact_count(self):
        g = eg.TemporalGraph(
            12, [], np.arange(12) % 3, np.zeros((12, 2), np.float32),
            [0, 1] * 5 + [eg.UNLABELED] * 2, 2,
        )
        mask = eg.label_rate_subsample(g, 0.5, seed=1)
        assert mask.sum() == 5
        assert not np.any(mask & (g.labels == eg.UNLABELED))

    def test_same_seed_same_mask(self, graph_factory):
        g = graph_factory(1)
        a = eg.label_rate_subsample(g, 0.4, seed=7)
        b = eg.label_rate_subsample(g, 0.4, seed=7)
        assert np.array_equal(a, b)

    def test_bad_rate_errors(self, graph_factory):
        g = graph_factory(2)
        with pytest.raises(ConfigError):
            eg.label_rate_subsample(g, 0.0, seed=0)


class TestRunSequence:
    @pytest.mark.parametrize(
        "cfg",
        [
            eg.ExperimentConfig(
                model="sage", history_size=3, restart="warm", epochs=40,
                detector=eg.DetectorConfig(alpha=2.0, use_risk_reduction=True),
            ),
            eg.ExperimentConfig(model="sgc", history_size=eg.FULL, restart="cold", epochs=40),
            eg.ExperimentConfig(model="mlp", loss_mode=eg.CATEGORICAL, label_rate=0.5, epochs=40),
        ],
        ids=["sage-gdoc-warm-h3", "sgc-cold-full", "mlp-categorical-half-labels"],
    )
    def test_report_equals_reference_kernels(self, cfg, monkeypatch):
        g = schedule_graph(seed=3)
        report = eg.run_sequence(g, cfg, seed=2)

        def reference_train(models, g, labels, train_mask, cfg, seeds):
            X = eg.model_inputs(models[0], g)
            return [ref.train(m, g, X, labels, train_mask, cfg, s, dtype=np.float32) for m, s in zip(models, seeds)]

        def reference_forward(model, g):
            H_in, prop = ref._graph_inputs(model, g, eg.model_inputs(model, g))
            return ref._forward_cached(model, H_in, prop, None)[0]

        monkeypatch.setattr(eg.lifelong, "train", reference_train)
        monkeypatch.setattr(eg.lifelong, "forward", reference_forward)
        monkeypatch.setattr(eg.lifelong, "sigmoid", ref.sigmoid)
        monkeypatch.setattr(eg.openworld, "sigmoid", ref.sigmoid)
        expected = eg.run_sequence(g, cfg, seed=2)
        assert report.to_jsonl() == expected.to_jsonl()
        assert report.events == expected.events

    def test_no_new_classes_never_grows(self):
        g = eg.generate(eg.SynthConfig(num_timestamps=7, vertices_per_timestamp=15, seed=1))
        cfg = eg.ExperimentConfig(model="mlp", epochs=5, restart="cold")
        report = eg.run_sequence(g, cfg, seed=0)
        dims = [t["output_dim"] for t in report.events]
        assert len(set(dims)) == 1
        n_eval_times = sum(1 for s in g.timestamps() if s > eg.start_timestamp(g))
        assert len(report.records) == n_eval_times

    def test_output_grows_when_class_enters_training(self):
        g = schedule_graph()
        cfg = eg.ExperimentConfig(model="mlp", epochs=5, restart="warm")
        events = eg.run_sequence(g, cfg, seed=0).events
        new_class_time = int(g.time[g.labels == 4].min())
        for entry in events:
            if entry["time"] <= new_class_time:
                assert 4 not in entry["known_classes"]
                assert entry["output_dim"] == 4
            else:
                assert 4 in entry["known_classes"]
                assert entry["output_dim"] == 5
        grew = [e["t"] for e in events if e["new_classes"]]
        # growth happens exactly once after the initial task
        assert len(grew) == 2 and grew[0] == 1

    def test_warm_cold_share_first_task(self):
        g = schedule_graph(seed=3)
        base = dict(model="mlp", epochs=8, history_size=1)
        warm = eg.run_sequence(g, eg.ExperimentConfig(restart="warm", **base), seed=5)
        cold = eg.run_sequence(g, eg.ExperimentConfig(restart="cold", **base), seed=5)
        assert warm.records[0] == cold.records[0]
        assert len(warm.records) == len(cold.records)

    def test_deterministic(self):
        g = schedule_graph(seed=4)
        cfg = eg.ExperimentConfig(model="sage", epochs=10, history_size=2)
        a = eg.run_sequence(g, cfg, seed=1)
        b = eg.run_sequence(g, cfg, seed=1)
        assert a.records == b.records

    def test_no_label_leakage_from_future(self):
        g = schedule_graph(seed=5)
        last = int(g.time.max())
        labels2 = g.labels.copy()
        future = g.time == last
        labels2[future] = (labels2[future] + 1) % 4
        feats2 = g.features.copy()
        feats2[future] += 3.0
        g2 = eg.TemporalGraph(
            g.num_vertices, g.edges, g.time, feats2, labels2, g.num_classes
        )
        cfg = eg.ExperimentConfig(model="sage", epochs=8, history_size=1)
        a = eg.run_sequence(g, cfg, seed=2)
        b = eg.run_sequence(g2, cfg, seed=2)
        # every task before the final timestamp is untouched by future edits
        for ra, rb in zip(a.records[:-1], b.records[:-1]):
            assert ra == rb

    def test_cold_full_equals_single_shot_retrain(self):
        g = schedule_graph(seed=6)
        cfg = eg.ExperimentConfig(model="sgc", epochs=15, history_size=eg.FULL, restart="cold")
        seed = 9
        report = eg.run_sequence(g, cfg, seed=seed)
        tasks = eg.build_task_sequence(g, eg.FULL)
        t_star = 3
        task = tasks[t_star - 1]
        timestamps = g.timestamps()
        prev_time = int(timestamps[timestamps < task.time][-1])

        # independent single-shot training on everything through prev_time
        label_mask = eg.label_rate_subsample(g, 1.0, 0)
        train_keep = np.nonzero(g.time <= prev_time)[0]
        train_g = eg.induced_subgraph(g, train_keep)
        train_sel = (train_g.labels != eg.UNLABELED) & label_mask[train_keep]
        known_order = []
        for tk in tasks[:t_star]:
            window_keep = np.nonzero(g.time <= timestamps[timestamps < tk.time][-1])[0]
            window_g = eg.induced_subgraph(g, window_keep)
            sel = (window_g.labels != eg.UNLABELED) & label_mask[window_keep]
            for c in np.unique(window_g.labels[sel]):
                if int(c) not in known_order:
                    known_order.append(int(c))
        model = eg.init_model(
            "sgc", g.feature_dim, 32, len(known_order),
            sgc_k=2, dropout_rate=0.5, seed=_derive_seed(seed, t_star, 0),
        )
        y_units = _unit_labels(train_g.labels, known_order)
        (model,) = eg.train(
            [model], train_g, y_units, train_sel,
            eg.TrainConfig(epochs=15, loss_mode=eg.CATEGORICAL), [_derive_seed(seed, t_star, 2)],
        )
        eval_g = eg.induced_subgraph(g, np.nonzero(g.time <= task.time)[0])
        logits = eg.forward(model, eval_g)
        test_sel = (eval_g.time == task.time) & (eval_g.labels != eg.UNLABELED)
        pred = np.asarray(known_order)[np.argmax(logits[test_sel], axis=1)]
        accuracy = float(np.mean(pred == eval_g.labels[test_sel]))
        assert accuracy == report.records[t_star - 1].accuracy

    def test_known_classes_cover_training_windows(self):
        g = schedule_graph(seed=7)
        cfg = eg.ExperimentConfig(model="mlp", epochs=5)
        events = eg.run_sequence(g, cfg, seed=0).events
        final_known = set(events[-1]["known_classes"])
        expected = set()
        timestamps = g.timestamps()
        assert cfg.history_size is eg.FULL
        for task in eg.build_task_sequence(g, cfg.history_size):
            prev_time = int(timestamps[timestamps < task.time][-1])
            window = eg.induced_subgraph(g, np.nonzero(g.time <= prev_time)[0])
            expected.update(int(c) for c in window.labels[window.labels != eg.UNLABELED])
        assert final_known == expected

    def test_detector_produces_counts(self):
        g = schedule_graph(seed=8)
        cfg = eg.ExperimentConfig(
            model="sage", epochs=10, history_size=1,
            detector=eg.DetectorConfig(variant=eg.GDOC),
        )
        report = eg.run_sequence(g, cfg, seed=0)
        tp, tn, fp, fn = report.counts()
        assert tp + tn + fp + fn == sum(
            r.tp + r.tn + r.fp + r.fn for r in report.records
        )
        assert tn + fp > 0

    def test_no_detector_never_rejects(self):
        g = schedule_graph(seed=9)
        cfg = eg.ExperimentConfig(model="mlp", epochs=5)
        report = eg.run_sequence(g, cfg, seed=0)
        assert all(r.tp == 0 and r.fp == 0 for r in report.records)

    def test_abort_carries_task_index(self):
        g = eg.TemporalGraph(
            4, [(0, 1), (1, 2), (2, 3)], [1, 1, 2, 3],
            np.zeros((4, 2), np.float32),
            [eg.UNLABELED, eg.UNLABELED, 0, 0], 1,
        )
        cfg = eg.ExperimentConfig(model="mlp", epochs=2)
        with pytest.raises(RunError, match="task 1"):
            eg.run_sequence(g, cfg, seed=0)

    def test_first_window_without_sampled_labels_aborts(self):
        g = first_window_unsampled_graph()
        cfg = eg.ExperimentConfig(model="mlp", epochs=2, label_rate=0.5, label_seed=6)
        # the first window has labels, but the 50% sample takes none of them
        assert not eg.label_rate_subsample(g, 0.5, 6)[g.time == 1].any()
        with pytest.raises(RunError, match=r"^task 1: no labeled training vertices in the window$"):
            eg.run_sequence(g, cfg, seed=0)

    @pytest.mark.parametrize("label_rate", [1.0, 0.5])
    def test_unlabeled_task_timestamp_aborts(self, label_rate, monkeypatch):
        g = schedule_graph(seed=2)
        tasks = eg.build_task_sequence(g, eg.FULL)
        labels = g.labels.copy()
        labels[g.time == tasks[2].time] = eg.UNLABELED
        g = eg.TemporalGraph(g.num_vertices, g.edges, g.time, g.features, labels, g.num_classes)
        cfg = eg.ExperimentConfig(model="mlp", epochs=2, label_rate=label_rate)
        trained = []
        train = eg.lifelong.train
        monkeypatch.setattr(eg.lifelong, "train", lambda *a: trained.append(a) or train(*a))
        with pytest.raises(RunError, match=r"^task 3: no labeled test vertices at this timestamp$"):
            eg.run_sequence(g, cfg, seed=0)
        # the task that cannot be scored fails before it trains
        assert len(trained) == 2

    @pytest.mark.parametrize("model", ["sgc", "sage"])
    @pytest.mark.parametrize("restart", ["warm", "cold"])
    def test_each_window_induced_once(self, monkeypatch, model, restart):
        g = schedule_graph(seed=1)
        n_tasks = len(eg.build_task_sequence(g, eg.FULL))
        counts = {"induced_subgraph": 0, "model_inputs": 0}
        for module, name in ((eg.lifelong, "induced_subgraph"), (eg.models, "model_inputs")):
            def counted(*a, _fn=getattr(module, name), _name=name):
                counts[_name] += 1
                return _fn(*a)
            monkeypatch.setattr(module, name, counted)
        cfg = eg.ExperimentConfig(model=model, restart=restart, epochs=2, detector=eg.DetectorConfig())
        eg.run_sequence(g, cfg, seed=0)
        assert counts == {"induced_subgraph": n_tasks + 1, "model_inputs": n_tasks + 1}

    def test_derived_graph_runs_like_its_copy(self):
        # label_mask is indexed by ids of the graph passed in, not of its source
        src = schedule_graph(seed=4)
        g = eg.induced_subgraph(src, np.arange(10, src.num_vertices))
        plain = eg.TemporalGraph(
            g.num_vertices, g.edges, g.time, g.features, g.labels, g.num_classes
        )
        cfg = eg.ExperimentConfig(model="mlp", epochs=3, label_rate=0.5)
        expected = eg.run_sequence(plain, cfg, seed=0).to_jsonl()
        assert eg.run_sequence(g, cfg, seed=0).to_jsonl() == expected

    def test_diverging_run_names_task_and_epoch(self):
        g = schedule_graph(seed=1)
        cfg = eg.ExperimentConfig(model="mlp", epochs=5, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RunError, match=r"^task 1: non-finite logits at epoch \d+$"):
                eg.run_sequence(g, cfg, seed=0)

    def test_divergence_in_the_last_update_is_not_scored(self):
        # one epoch per task: the update that diverges is the last before scoring;
        # without an errstate here, an overflow warning would fail the test too
        g = schedule_graph(seed=1)
        cfg = eg.ExperimentConfig(model="mlp", epochs=1, restart="cold", learning_rate=1e300)
        with pytest.raises(RunError, match=r"^task 1: non-finite logits after epoch 1$"):
            eg.run_sequence(g, cfg, seed=0)

    @pytest.mark.parametrize("phase", ["train", "_scoring_logits"])
    def test_memory_error_names_its_task(self, monkeypatch, phase):
        # the second call of the phase, at task 2, runs out of memory
        calls, real = [], getattr(eg.lifelong, phase)

        def short_of_memory(*args):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError()
            return real(*args)

        monkeypatch.setattr(eg.lifelong, phase, short_of_memory)
        cfg = eg.ExperimentConfig(model="mlp", epochs=1)
        with pytest.raises(RunError, match=r"^task 2: out of memory$") as exc:
            eg.run_sequence(schedule_graph(seed=1), cfg, seed=0)
        assert exc.value.task_index == 2

    def test_run_error_round_trips_through_pickle(self):
        # a process pool sends a failed seed's RunError back pickled
        err = pickle.loads(pickle.dumps(RunError(3, "x")))
        assert type(err) is RunError
        assert str(err) == "task 3: x" and err.task_index == 3


DOC_05 = eg.DetectorConfig(variant="doc", tau_min=0.5)
DOC_075 = eg.DetectorConfig(variant="doc", tau_min=0.75)
GDOC_SWEEP = [
    eg.DetectorConfig(variant="gdoc", tau_min=0.75),
    eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=1.0, use_risk_reduction=True),
    eg.DetectorConfig(variant="gdoc", tau_min=0.75, alpha=3.0, use_risk_reduction=True),
    eg.DetectorConfig(variant="gdoc", tau_min=0.5, alpha=1.0, use_risk_reduction=True),
]


class TestExperimentConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 0),
            ("learning_rate", -1),
            ("loss_mode", "bogus"),
            ("model", "gat"),
            ("hidden_dim", 0),
            ("dropout_rate", 1.0),
        ],
    )
    def test_bad_training_field_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            eg.ExperimentConfig(**{field: value})


class TestRunSequences:
    @pytest.mark.parametrize(
        "base",
        [
            dict(model="mlp", restart="warm"),
            dict(model="sgc", restart="cold", label_rate=0.5),
            dict(model="sage", restart="warm", label_rate=0.5, history_size=2),
            dict(model="sage", restart="cold"),
        ],
        ids=["mlp-warm", "sgc-cold-half-labels", "sage-warm-half-labels-h2", "sage-cold"],
    )
    @pytest.mark.parametrize(
        "loss_mode, detectors",
        [
            ("auto", [DOC_05, DOC_075]),
            ("auto", GDOC_SWEEP),
            (eg.BCE, [None, DOC_05]),
            (eg.WEIGHTED_BCE, [GDOC_SWEEP[2], None]),
        ],
        ids=["doc-tau-sweep", "gdoc-alpha-tau-sweep", "bce-none-and-doc", "wbce-gdoc-and-none"],
    )
    def test_each_config_equals_its_own_run(self, base, loss_mode, detectors):
        g = schedule_graph(seed=6)
        cfgs = [
            eg.ExperimentConfig(epochs=12, loss_mode=loss_mode, detector=d, **base)
            for d in detectors
        ]
        reports, (model,) = eg.run_sequences(g, cfgs, [4])
        assert len(reports) == len(cfgs)
        for cfg, (report,) in zip(cfgs, reports):
            ((expected,),), (expected_model,) = eg.run_sequences(g, [cfg], [4])
            assert report.to_jsonl() == expected.to_jsonl()
            assert json.dumps(report.events) == json.dumps(expected.events)
            for (w, b), (we, be) in zip(model.layers, expected_model.layers):
                assert np.array_equal(w, we) and np.array_equal(b, be)

    def _error_texts(self, g, cfgs, seed=0):
        texts = []
        for cfg in cfgs:
            with pytest.raises(RunError) as alone:
                eg.run_sequence(g, cfg, seed=seed)
            texts.append(str(alone.value))
        with pytest.raises(RunError) as shared:
            eg.run_sequences(g, cfgs, [seed])
        return texts, str(shared.value)

    def test_unlabeled_first_window_error_matches(self):
        g = first_window_unsampled_graph()
        cfgs = [
            eg.ExperimentConfig(model="mlp", epochs=2, label_rate=0.5, label_seed=6, detector=d)
            for d in GDOC_SWEEP
        ]
        alone, shared = self._error_texts(g, cfgs)
        assert alone == [shared] * len(cfgs)
        assert shared == "task 1: no labeled training vertices in the window"

    def test_divergence_error_matches(self):
        g = schedule_graph(seed=1)
        cfgs = [
            eg.ExperimentConfig(model="mlp", epochs=5, learning_rate=1e200, detector=d)
            for d in (DOC_05, DOC_075)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            alone, shared = self._error_texts(g, cfgs)
        assert alone == [shared] * len(cfgs)
        assert shared.startswith("task 1: non-finite logits at epoch ")

    @pytest.mark.parametrize(
        "cfgs, match",
        [
            ([], "at least one config"),
            (
                [eg.ExperimentConfig(detector=DOC_05), eg.ExperimentConfig(detector=GDOC_SWEEP[0])],
                "loss mode",
            ),
            ([eg.ExperimentConfig(), eg.ExperimentConfig(loss_mode=eg.BCE, detector=DOC_05)], "detector"),
            (
                [eg.ExperimentConfig(detector=DOC_05), eg.ExperimentConfig(epochs=3, detector=DOC_075)],
                "detector",
            ),
        ],
        ids=["empty", "mixed-loss-modes", "loss-mode-field-differs", "epochs-differ"],
    )
    def test_lists_that_cannot_share_a_training_are_rejected(self, cfgs, match):
        g = schedule_graph()
        with pytest.raises(ConfigError, match=match):
            eg.run_sequences(g, cfgs)


def _params_bin(model, path) -> bytes:
    eg.save_checkpoint(model, path)
    return (path / "params.bin").read_bytes()


class TestSeedBatches:
    """A batched ``run_sequences`` against per-seed runs: reports, events and checkpoint bytes."""

    SEEDS = (3, 0, 7)
    # case -> (config fields, detectors); schedule_graph grows the output layer at timestamp 4
    CASES = {
        "mlp-warm-gdoc-sweep": (dict(model="mlp"), GDOC_SWEEP[:3]),
        "sgc-cold-half-labels-doc": (dict(model="sgc", restart="cold", label_rate=0.5), [DOC_05, DOC_075]),
        "sage-warm-h2-half-labels": (dict(model="sage", history_size=2, label_rate=0.5), [None]),
        "sage-cold-gdoc": (dict(model="sage", restart="cold"), [GDOC_SWEEP[2]]),
        "sage-warm-bce-none-and-doc": (dict(model="sage", loss_mode=eg.BCE), [None, DOC_05]),
        # a width-1 hidden layer: the stack trains one model at a time
        "mlp-hidden-1": (dict(model="mlp", hidden_dim=1), [None]),
    }

    @staticmethod
    def record_stacks(monkeypatch):
        """Record the stack size of each ``lifelong.train`` call, and ``(rows, models)`` of each epoch workspace."""
        stacks, workspaces = [], []
        real_train, real_workspace = eg.lifelong.train, eg.models._Workspace.__init__

        def counted(models, *args):
            stacks.append(len(models))
            return real_train(models, *args)

        def workspace(self, models, g, dtype):
            workspaces.append((g.num_vertices, len(models)))
            real_workspace(self, models, g, dtype)

        monkeypatch.setattr(eg.lifelong, "train", counted)
        monkeypatch.setattr(eg.models._Workspace, "__init__", workspace)
        return stacks, workspaces

    @staticmethod
    def assert_equal_to_per_seed_runs(g, cfgs, seeds, reports, models, tmp_path):
        assert len(models) == len(seeds) and all(len(r) == len(seeds) for r in reports)
        for j, s in enumerate(seeds):
            alone, (model,) = eg.run_sequences(g, cfgs, [s])
            for per_seed, (expected,) in zip(reports, alone):
                assert per_seed[j].to_jsonl() == expected.to_jsonl()
                assert json.dumps(per_seed[j].events) == json.dumps(expected.events)
            assert _params_bin(models[j], tmp_path / f"b{j}") == _params_bin(model, tmp_path / f"a{j}")

    @pytest.mark.parametrize("capped", [False, True], ids=["one-batch", "capped-batches"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_batch_equals_per_seed_runs(self, case, capped, tmp_path, monkeypatch):
        base, detectors = self.CASES[case]
        g = schedule_graph(seed=6)
        cfgs = [eg.ExperimentConfig(epochs=12, detector=d, seeds=self.SEEDS, **base) for d in detectors]
        tasks = eg.build_task_sequence(g, cfgs[0].history_size)
        hidden = 0 if cfgs[0].model == "sgc" else cfgs[0].hidden_dim
        budget = eg.models._STACK_ENTRIES
        if capped:
            # the budget of two seeds on the largest window: stacks of 2 and 1 there
            budget = 2 * max(t.train_vertices.size for t in tasks) * (hidden + g.num_classes)
            monkeypatch.setattr(eg.models, "_STACK_ENTRIES", budget)
        stacks, workspaces = self.record_stacks(monkeypatch)
        reports, models = eg.run_sequences(g, cfgs)
        assert stacks == [3] * len(tasks)
        # train's one rule: stacks of 1 with a width-1 layer, else what the budget fits on the window
        expected = []
        for task, event in zip(tasks, reports[0][0].events):
            n = task.train_vertices.size
            size = 1 if hidden == 1 else max(1, budget // (n * (hidden + event["output_dim"])))
            expected += [(n, min(size, 3 - lo)) for lo in range(0, 3, size)]
        assert workspaces == expected
        if capped or hidden == 1:
            assert (max(t.train_vertices.size for t in tasks), 1) in workspaces
        self.assert_equal_to_per_seed_runs(g, cfgs, self.SEEDS, reports, models, tmp_path)

    def test_full_history_stacks_shrink_as_the_window_grows(self, tmp_path, monkeypatch):
        g = schedule_graph(seed=6)
        seeds = (3, 0, 7, 1)
        cfgs = [
            eg.ExperimentConfig(model="sage", epochs=12, loss_mode=eg.BCE, detector=d, seeds=seeds)
            for d in (None, DOC_05)
        ]
        tasks = eg.build_task_sequence(g, eg.FULL)
        first, last = tasks[0].train_vertices.size, tasks[-1].train_vertices.size
        # the budget of two models on the last window (140 rows) fits all four on the first (40)
        monkeypatch.setattr(eg.models, "_STACK_ENTRIES", 2 * last * (cfgs[0].hidden_dim + g.num_classes))
        stacks, workspaces = self.record_stacks(monkeypatch)
        reports, models = eg.run_sequences(g, cfgs)
        assert stacks == [4] * len(tasks)
        assert workspaces[0] == (first, 4) and workspaces[-2:] == [(last, 2)] * 2
        self.assert_equal_to_per_seed_runs(g, cfgs, seeds, reports, models, tmp_path)

    def test_first_seed_error_wins_over_a_later_seed_failing_earlier(self):
        g = schedule_graph(seed=1)
        # train's float32 epochs overflow near lr 2e18: seed 1 fails at task 5, seed 0 at task 2
        # (learning rates 1.6e18 to 2.04e18 do the same); at no learning rate from 3e17 to 2.44e18
        # does seed 1 fail at an earlier task than seed 0, so seed 1 leads the batch here
        cfg = eg.ExperimentConfig(model="mlp", epochs=4, learning_rate=2e18, history_size=2)
        alone = {}
        for s in (0, 1):
            with pytest.raises(RunError) as exc:
                eg.run_sequence(g, cfg, seed=s)
            alone[s] = exc.value
        # the later seed fails at an earlier task
        assert alone[0].task_index < alone[1].task_index
        with pytest.raises(RunError) as batched:
            eg.run_sequences(g, [cfg], [1, 0])
        assert str(batched.value) == str(alone[1])
        with pytest.raises(RunError) as batched:
            eg.run_sequences(g, [cfg], [0, 1])
        assert str(batched.value) == str(alone[0])

    def test_batch_out_of_memory_runs_each_seed_alone(self, tmp_path, monkeypatch):
        g = schedule_graph(seed=6)
        cfg = eg.ExperimentConfig(model="sage", epochs=12, detector=DOC_05, seeds=(0, 1, 2))
        stacks, trained = [], []
        real_train = eg.lifelong.train

        def batch_out_of_memory(models, *args):
            stacks.append(len(models))
            if len(models) > 1:
                raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (3, 2**61)")
            trained.append(real_train(models, *args))
            return trained[-1]

        monkeypatch.setattr(eg.lifelong, "train", batch_out_of_memory)
        (reports,), models = eg.run_sequences(g, [cfg])
        # the batch fails at its first task, then each seed trains alone at every task
        assert stacks == [3] + [1] * (3 * len(reports[0].records))
        for j, s in enumerate(cfg.seeds):
            trained.clear()
            alone = eg.run_sequence(g, cfg, seed=s)
            (final,) = trained[-1]
            assert reports[j].to_jsonl() == alone.to_jsonl()
            assert json.dumps(reports[j].events) == json.dumps(alone.events)
            assert _params_bin(models[j], tmp_path / f"b{j}") == _params_bin(final, tmp_path / f"a{j}")

    def test_gdoc_sweep_fits_the_sds_once_per_task_and_seed(self, monkeypatch):
        calls = []
        real = eg.lifelong.class_sd
        monkeypatch.setattr(eg.lifelong, "class_sd", lambda *a: calls.append(1) or real(*a))
        g = schedule_graph(seed=2)
        sweep = [eg.DetectorConfig(alpha=a, use_risk_reduction=True) for a in (1.0, 2.0, 3.0)]
        cfgs = [eg.ExperimentConfig(model="mlp", epochs=5, detector=d, seeds=(0, 1)) for d in sweep]
        reports, _ = eg.run_sequences(g, cfgs)
        n_tasks = len(eg.build_task_sequence(g, eg.FULL))
        assert len(calls) == 2 * n_tasks
        for per_seed in zip(*reports):
            sds = [[e["sd"] for e in r.events] for r in per_seed]
            assert sds[0] == sds[1] == sds[2]


def _plain_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def _plain_f1(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def plain_task_scores(logits, y_true, known, tau):
    """A task record's fields, recounted in plain Python; ``tau`` None: no detector."""
    unseen = eg.UNSEEN
    pred, said = [], []
    for z in logits:
        cls = known[max(range(len(z)), key=lambda j: z[j])]
        pred.append(cls)
        rejected = tau is not None and all(_plain_sigmoid(zj) < tj for zj, tj in zip(z, tau))
        said.append(unseen if rejected else cls)
    mapped = [y if y in known else unseen for y in y_true]
    pairs = list(zip(said, mapped))
    counts = (
        sum(1 for s, y in pairs if s == unseen and y == unseen),  # tp
        sum(1 for s, y in pairs if s != unseen and y != unseen),  # tn
        sum(1 for s, y in pairs if s == unseen and y != unseen),  # fp
        sum(1 for s, y in pairs if s != unseen and y == unseen),  # fn
    )
    f1s = []
    for cls in list(known) + [unseen]:
        tp = sum(1 for s, y in pairs if s == cls and y == cls)
        n_said = sum(1 for s in said if s == cls)
        n_true = sum(1 for y in mapped if y == cls)
        if n_said or n_true:
            f1s.append(_plain_f1(tp, n_said - tp, n_true - tp))
    accuracy = sum(1 for p, y in zip(pred, y_true) if p == y) / len(y_true)
    return accuracy, counts, sum(f1s) / len(f1s)


class TestScoringOracle:
    """Every task record against a plain recount from that task's trained model."""

    @pytest.mark.parametrize(
        "model, detectors",
        [("sage", GDOC_SWEEP[:3]), ("mlp", [None])],
        ids=["gdoc-sweep", "no-detector"],
    )
    def test_records_match_plain_recount(self, model, detectors, monkeypatch):
        real_train = eg.lifelong.train
        trained = []

        def capture(*args, **kwargs):
            (model,) = result = real_train(*args, **kwargs)
            trained.append(model)
            return result

        monkeypatch.setattr(eg.lifelong, "train", capture)
        g = schedule_graph(seed=5)
        cfgs = [
            eg.ExperimentConfig(model=model, epochs=15, history_size=2, detector=d)
            for d in detectors
        ]
        reports, _ = eg.run_sequences(g, cfgs, [1])
        reports = [report for (report,) in reports]
        tasks = eg.build_task_sequence(g, 2)
        assert len(trained) == len(tasks)
        said_unseen = truly_unseen = 0
        for report in reports:
            assert len(report.records) == len(report.events) == len(tasks)
            for task, m, record, event in zip(tasks, trained, report.records, report.events):
                sub = eg.induced_subgraph(g, task.vertices)
                logits = eg.forward(m, sub)[task.test_mask].tolist()
                y_true = sub.labels[task.test_mask].tolist()
                accuracy, counts, open_f1 = plain_task_scores(
                    logits, y_true, event["known_classes"], event.get("thresholds")
                )
                assert record.t == task.t
                assert record.accuracy == pytest.approx(accuracy, rel=0, abs=1e-12)
                assert (record.tp, record.tn, record.fp, record.fn) == counts
                assert record.open_f1 == pytest.approx(open_f1, rel=0, abs=1e-12)
                said_unseen += counts[0] + counts[2]
                truly_unseen += counts[0] + counts[3]
        # the runs exercise both sides of the unseen decision
        assert truly_unseen > 0
        assert (said_unseen > 0) == (detectors[0] is not None)


class TestTwoTask:
    def fixture(self, seed=0):
        """Two timestamps: pre-training sees labels at 0, evaluation those at 1."""
        return eg.generate(
            eg.SynthConfig(
                num_timestamps=2,
                vertices_per_timestamp=60,
                num_initial_classes=3,
                feature_dim=8,
                feature_noise=0.3,
                intra_class_edge_prob=0.12,
                inter_class_edge_prob=0.01,
                window_back=1,
                seed=seed,
            )
        )

    def test_trace_length_and_determinism(self):
        g = self.fixture(seed=2)
        cfg = eg.ExperimentConfig(model="sage", epochs=5, learning_rate=0.01)
        (a,) = eg.two_task_experiment(g, cfg, 20, 10, seeds=[3])
        (b,) = eg.two_task_experiment(g, cfg, 20, 10, seeds=[3])
        assert len(a) == 11
        assert a == b

    def test_untrained_starts_near_chance_and_rises(self):
        g = self.fixture(seed=4)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02)
        (trace,) = eg.two_task_experiment(g, cfg, 0, 30, seeds=[1])
        assert trace[0] < 0.6
        assert max(trace[10:]) > trace[0] + 0.2

    @pytest.mark.parametrize("pretrain_epochs, inference_epochs", [(1, 0), (0, 1)])
    def test_divergence_in_the_last_update_is_not_scored(self, pretrain_epochs, inference_epochs):
        g = self.fixture(seed=2)
        cfg = eg.ExperimentConfig(model="mlp", learning_rate=1e300)
        with pytest.raises(ValidationError, match=r"^non-finite logits after epoch 1$"):
            eg.two_task_experiment(g, cfg, pretrain_epochs, inference_epochs, seeds=[0])

    def test_no_inference_epochs_gives_pretrained_accuracy_only(self):
        g = self.fixture(seed=2)
        cfg = eg.ExperimentConfig(model="mlp")
        (trace,) = eg.two_task_experiment(g, cfg, 10, 0, seeds=[1])
        assert len(trace) == 1
        assert trace == eg.two_task_experiment(g, cfg, 10, 4, seeds=[1])[0][:1]

    def test_inference_phase_matches_explicit_update_loop(self):
        g = self.fixture(seed=1)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02, detector=eg.DetectorConfig())
        (trace,) = eg.two_task_experiment(g, cfg, 0, 6, seeds=[5])

        labeled = g.labels != eg.UNLABELED
        train_mask = labeled & (g.time == 0)
        test_mask = labeled & (g.time == 1)
        classes = sorted(int(c) for c in np.unique(g.labels[train_mask]))
        y = _unit_labels(g.labels, classes)
        model = eg.init_model(
            "sage", g.feature_dim, cfg.hidden_dim, len(classes),
            dropout_rate=cfg.dropout_rate, seed=_derive_seed(5, 0),
        )
        X = eg.model_inputs(model, g)
        weights = eg.class_weights(y, train_mask, len(classes))

        def accuracy(m):
            pred = np.asarray(classes)[np.argmax(eg.forward(m, g)[test_mask], axis=1)]
            return float(np.mean(pred == g.labels[test_mask]))

        expected = [accuracy(model)]
        ref_cfg = eg.TrainConfig(
            learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay, epochs=6, loss_mode=eg.WEIGHTED_BCE,
        )
        ref.train(
            model, g, X, y, train_mask, ref_cfg, _derive_seed(5, 2), weights,
            on_epoch=lambda epoch, loss, m: expected.append(accuracy(m)), dtype=np.float32,
        )
        assert trace == expected

    def test_pretraining_sees_only_the_labeled_past(self):
        g = self.fixture(seed=3)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02)
        (trace,) = eg.two_task_experiment(g, cfg, 7, 0, seeds=[2])

        labeled = g.labels != eg.UNLABELED
        g_train = eg.induced_subgraph(g, np.nonzero(labeled & (g.time == 0))[0])
        classes = sorted(int(c) for c in np.unique(g_train.labels))
        model = eg.init_model(
            "sage", g.feature_dim, cfg.hidden_dim, len(classes),
            dropout_rate=cfg.dropout_rate, seed=_derive_seed(2, 0),
        )
        (model,) = eg.train(
            [model], g_train, _unit_labels(g_train.labels, classes),
            np.ones(g_train.num_vertices, bool),
            eg.TrainConfig(
                learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay, epochs=7, loss_mode=eg.CATEGORICAL,
            ),
            [_derive_seed(2, 1)],
        )
        test_mask = labeled & (g.time == 1)
        pred = np.asarray(classes)[np.argmax(eg.forward(model, g)[test_mask], axis=1)]
        assert trace == [float(np.mean(pred == g.labels[test_mask]))]

    @pytest.mark.parametrize(
        "pretrain_epochs, inference_epochs", [(6, 0), (0, 5), (6, 5)], ids=["pretrain", "inference", "both"]
    )
    @pytest.mark.parametrize("split", ["one-stack", "sub-stacks", "one-class-past"])
    def test_stacked_seeds_equal_lone_runs(self, pretrain_epochs, inference_epochs, split, monkeypatch):
        g = self.fixture(seed=2)
        past = (g.labels != eg.UNLABELED) & (g.time == 0)
        if split == "one-class-past":
            # only class 0 stays labeled before the final timestamp: a width-1 output layer
            labels = np.where(past & (g.labels != 0), eg.UNLABELED, g.labels)
            g = eg.TemporalGraph(g.num_vertices, g.edges, g.time, g.features, labels, g.num_classes)
        elif split == "sub-stacks":
            # the budget fits two models of h = 8, C = 3 on the pre-training rows, one on all rows
            monkeypatch.setattr(eg.models, "_STACK_ENTRIES", 2 * int(past.sum()) * (8 + 3) + 1)
        cfg = eg.ExperimentConfig(model="sage", hidden_dim=8, learning_rate=0.02)
        real_train, real_workspace = eg.lifelong.train, eg.models._Workspace.__init__
        trained, sizes = [], []

        def spy(models, *args, **kwargs):
            out = real_train(models, *args, **kwargs)
            trained.append([[ref.bits(a).tolist() for pair in m.layers for a in pair] for m in out])
            return out

        def workspace(ws, stack, *args):
            sizes.append(len(stack))
            real_workspace(ws, stack, *args)

        monkeypatch.setattr(eg.lifelong, "train", spy)
        monkeypatch.setattr(eg.models._Workspace, "__init__", workspace)
        seeds = [3, 0, 5]
        stacked = eg.two_task_experiment(g, cfg, pretrain_epochs, inference_epochs, seeds=seeds)
        phases = [n for n in (pretrain_epochs, inference_epochs) if n > 0]
        assert len(trained) == len(phases) and all(len(t) == 3 for t in trained)
        by_phase = {"one-stack": ([3], [3]), "sub-stacks": ([2, 1], [1, 1, 1]), "one-class-past": ([1] * 3, [1] * 3)}
        assert sizes == [n for phase, n in zip(by_phase[split], (pretrain_epochs, inference_epochs)) if n for n in phase]
        stacked_models, trained[:] = list(trained), []
        assert len(stacked) == 3 and all(len(trace) == inference_epochs + 1 for trace in stacked)
        for j, s in enumerate(seeds):
            assert stacked[j] == eg.two_task_experiment(g, cfg, pretrain_epochs, inference_epochs, seeds=[s])[0]
            # each phase's trained model too, bit for bit
            assert trained[-len(phases):] == [[models[j]] for models in stacked_models]

    @pytest.mark.parametrize(
        "loss_mode, seeds",
        # seed 0 diverges at epoch 2 and seed 1 at epoch 3 (auto); seed 0 at 3 and seeds 1-3 at 2 (bce)
        [(eg.lifelong.LOSS_AUTO, [2, 1, 0]), (eg.BCE, [0, 1, 2, 3])],
        ids=["first-seed-finishes", "first-seed-fails-last"],
    )
    def test_diverging_seeds_raise_the_lone_error_of_the_first_failing_seed(self, loss_mode, seeds, monkeypatch):
        g = self.fixture(seed=2)
        cfg = eg.ExperimentConfig(model="sage", hidden_dim=8, learning_rate=3.16e18, loss_mode=loss_mode)
        alone = {}
        for s in seeds:
            try:
                eg.two_task_experiment(g, cfg, 3, 3, seeds=[s])
            except ValidationError as exc:
                alone[s] = str(exc)
        first = next(s for s in seeds if s in alone)
        assert alone[first] == "non-finite logits at epoch 3"
        real_train, raised = eg.lifelong.train, []

        def spy(models, *args, **kwargs):
            try:
                return real_train(models, *args, **kwargs)
            except ValidationError as exc:
                raised.append((len(models), str(exc)))
                raise

        monkeypatch.setattr(eg.lifelong, "train", spy)
        with pytest.raises(ValidationError) as stacked:
            eg.two_task_experiment(g, cfg, 3, 3, seeds=seeds)
        assert str(stacked.value) == alone[first]
        # the stack fails first at an earlier epoch, then the seeds run one at a time
        assert raised == [(len(seeds), "non-finite logits at epoch 2"), (1, alone[first])]

    @pytest.mark.parametrize(
        "times, labels, match",
        [
            ([3, 3, 3], [0, 1, 0], "no labeled vertices before the final timestamp 3"),
            ([1, 1, 2, 2], [-1, -1, 0, 1], "no labeled vertices before the final timestamp 2"),
            ([1, 1, 2, 2], [0, 1, -1, -1], "no labeled vertices at the final timestamp 2"),
            ([], [], "the graph has no vertices"),
        ],
        ids=["single-timestamp", "unlabeled-past", "unlabeled-final", "empty"],
    )
    def test_split_without_labels_raises(self, times, labels, match):
        n = len(times)
        g = eg.TemporalGraph(n, [], times, np.ones((n, 2), np.float32), labels, 2)
        with pytest.raises(ValidationError, match=match):
            eg.two_task_experiment(g, eg.ExperimentConfig(model="mlp", epochs=2), 2, 2)


def _path_graph(n=4):
    return eg.TemporalGraph(n, [(i, i + 1) for i in range(n - 1)], list(range(n)),
                            np.zeros((n, 2), np.float32), [0, 1] * (n // 2), 2)


# call, exception class, whole message
ARGUMENT_ERRORS = {
    "restart": (lambda: eg.ExperimentConfig(restart="lukewarm"),
                ConfigError, "restart must be warm or cold, got 'lukewarm'"),
    "negative-seed": (lambda: eg.ExperimentConfig(seeds=(0, -1)), ConfigError, "seeds must be non-negative"),
    "label-subsample-negative-seed": (lambda: eg.label_rate_subsample(_path_graph(), 0.5, -1),
                                      ConfigError, "seed must be >= 0, got -1"),
    "run-sequence-negative-seed": (lambda: eg.run_sequence(_path_graph(), eg.ExperimentConfig(), seed=-1),
                                   ConfigError, "seed must be >= 0, got -1"),
    "run-sequences-negative-seed": (lambda: eg.run_sequences(_path_graph(), [eg.ExperimentConfig()], [0, -1]),
                                    ConfigError, "seed must be >= 0, got -1"),
    "two-task-negative-seed": (lambda: eg.two_task_experiment(_path_graph(), eg.ExperimentConfig(), 1, 1, seeds=[-1]),
                               ConfigError, "seed must be >= 0, got -1"),
    "run-sequences-no-seed": (lambda: eg.run_sequences(_path_graph(), [eg.ExperimentConfig()], []),
                              ConfigError, "need at least one seed"),
    "two-task-negative-pretrain": (lambda: eg.two_task_experiment(_path_graph(), eg.ExperimentConfig(), -1, 2),
                                   ConfigError, "epoch counts must be >= 0"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_bad_argument_raises(case):
    raises_exactly(*ARGUMENT_ERRORS[case])
