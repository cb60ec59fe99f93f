import json

import numpy as np
import pytest

import evograph as eg
import reference_kernels as ref
from evograph.errors import ConfigError, RunError, ValidationError
from evograph.lifelong import _derive_seed, _unit_labels


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

        def reference_train(model, g, labels, train_mask, cfg, on_epoch=None):
            X = eg.model_inputs(model, g)
            return ref.train(model, g, X, labels, train_mask, cfg, on_epoch=on_epoch)

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
        y_units = _unit_labels(train_g.labels, {c: j for j, c in enumerate(known_order)})
        model = eg.train(
            model, train_g, y_units, train_sel,
            eg.TrainConfig(epochs=15, loss_mode=eg.CATEGORICAL, seed=_derive_seed(seed, t_star, 2)),
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
        reports, model = eg.run_sequences(g, cfgs, seed=4)
        assert len(reports) == len(cfgs)
        for cfg, report in zip(cfgs, reports):
            (expected,), expected_model = eg.run_sequences(g, [cfg], seed=4)
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
            eg.run_sequences(g, cfgs, seed=seed)
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
        a = eg.two_task_experiment(g, cfg, 20, 10, seed=3)
        b = eg.two_task_experiment(g, cfg, 20, 10, seed=3)
        assert len(a) == 11
        assert a == b

    def test_untrained_starts_near_chance_and_rises(self):
        g = self.fixture(seed=4)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02)
        trace = eg.two_task_experiment(g, cfg, 0, 30, seed=1)
        assert trace[0] < 0.6
        assert max(trace[10:]) > trace[0] + 0.2

    def test_no_inference_epochs_gives_pretrained_accuracy_only(self):
        g = self.fixture(seed=2)
        cfg = eg.ExperimentConfig(model="mlp")
        trace = eg.two_task_experiment(g, cfg, 10, 0, seed=1)
        assert len(trace) == 1
        assert trace == eg.two_task_experiment(g, cfg, 10, 4, seed=1)[:1]

    def test_inference_phase_matches_explicit_update_loop(self):
        g = self.fixture(seed=1)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02, detector=eg.DetectorConfig())
        trace = eg.two_task_experiment(g, cfg, 0, 6, seed=5)

        labeled = g.labels != eg.UNLABELED
        train_mask = labeled & (g.time == 0)
        test_mask = labeled & (g.time == 1)
        classes = sorted(int(c) for c in np.unique(g.labels[train_mask]))
        y = _unit_labels(g.labels, {c: j for j, c in enumerate(classes)})
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
            learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay, epochs=6,
            loss_mode=eg.WEIGHTED_BCE, seed=_derive_seed(5, 2),
        )
        ref.train(
            model, g, X, y, train_mask, ref_cfg, weights,
            on_epoch=lambda epoch, loss, m: expected.append(accuracy(m)),
        )
        assert trace == expected

    def test_pretraining_sees_only_the_labeled_past(self):
        g = self.fixture(seed=3)
        cfg = eg.ExperimentConfig(model="sage", learning_rate=0.02)
        trace = eg.two_task_experiment(g, cfg, 7, 0, seed=2)

        labeled = g.labels != eg.UNLABELED
        g_train = eg.induced_subgraph(g, np.nonzero(labeled & (g.time == 0))[0])
        classes = sorted(int(c) for c in np.unique(g_train.labels))
        model = eg.init_model(
            "sage", g.feature_dim, cfg.hidden_dim, len(classes),
            dropout_rate=cfg.dropout_rate, seed=_derive_seed(2, 0),
        )
        model = eg.train(
            model, g_train, _unit_labels(g_train.labels, {c: j for j, c in enumerate(classes)}),
            np.ones(g_train.num_vertices, bool),
            eg.TrainConfig(
                learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay, epochs=7,
                loss_mode=eg.CATEGORICAL, seed=_derive_seed(2, 1),
            ),
        )
        test_mask = labeled & (g.time == 1)
        pred = np.asarray(classes)[np.argmax(eg.forward(model, g)[test_mask], axis=1)]
        assert trace == [float(np.mean(pred == g.labels[test_mask]))]

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
