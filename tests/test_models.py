import hashlib
import re
import warnings

import numpy as np
import pytest
from dataclasses import replace

import evograph as eg
import reference_kernels as ref
from evograph.errors import ValidationError
from conftest import two_class_blobs


def small_graph(seed=0, n=6, dim=3, num_classes=3, time_span=3):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return eg.TemporalGraph(
        num_vertices=n,
        edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        time=rng.integers(0, time_span, n),
        features=rng.normal(size=(n, dim)).astype(np.float32),
        labels=rng.integers(0, num_classes, n),
        num_classes=num_classes,
    )


def perturbed(model, layer, which, index, delta):
    layers = [(w.copy(), b.copy()) for w, b in model.layers]
    layers[layer][which].flat[index] += delta
    return replace(model, layers=layers)


def fd_gradients(model, g, labels, mask, loss_mode, step=1e-3):
    """Central finite differences of the loss w.r.t. every parameter."""

    def loss_of(m):
        logits = eg.forward(m, g)
        value, _ = eg.loss_from_logits(logits, labels, mask, loss_mode)
        return value

    grads = []
    for li, (w, b) in enumerate(model.layers):
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for which, (arr, out) in enumerate(((w, gw), (b, gb))):
            for idx in range(arr.size):
                hi = loss_of(perturbed(model, li, which, idx, +step))
                lo = loss_of(perturbed(model, li, which, idx, -step))
                out.flat[idx] = (hi - lo) / (2 * step)
        grads.append((gw, gb))
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6):
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            err = np.abs(a - n)
            tol = atol + rtol * np.maximum(np.abs(a), np.abs(n))
            assert np.all(err <= tol), f"max gradient error {err.max()}"


class TestGlorot:
    def test_deterministic(self):
        a = eg.glorot_init(3, 3, seed=42)
        b = eg.glorot_init(3, 3, seed=42)
        assert np.array_equal(a, b)

    def test_bound(self):
        w = eg.glorot_init(600, 600, seed=0)
        assert np.all(np.abs(w) <= 0.1)

    def test_empirical_mean(self):
        w = eg.glorot_init(100, 100, seed=1)
        assert abs(w.mean()) < 0.01


class TestSgcPrecompute:
    def test_k0_identity(self, graph_factory):
        g = graph_factory(2)
        out = eg.sgc_precompute(g, 0)
        assert np.array_equal(out, g.features.astype(np.float64))

    def test_single_vertex(self):
        g = eg.TemporalGraph(1, [], [0], np.array([[2.5, -1.0]], dtype=np.float32), [0], 1)
        for k in (1, 3):
            assert np.allclose(eg.sgc_precompute(g, k), g.features)

    def test_two_vertices_hand_computed(self):
        g = eg.TemporalGraph(
            2, [(0, 1)], [0, 0], np.eye(2, dtype=np.float32), [0, 0], 1
        )
        out = eg.sgc_precompute(g, 1)
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_dense_oracle(self, graph_factory):
        for seed in range(5):
            g = graph_factory(seed)
            A = g.adjacency().toarray() + np.eye(g.num_vertices)
            dinv = 1.0 / np.sqrt(A.sum(axis=1))
            S = dinv[:, None] * A * dinv[None, :]
            for K in (1, 2, 3):
                expected = np.linalg.matrix_power(S, K) @ g.features.astype(np.float64)
                assert np.allclose(eg.sgc_precompute(g, K), expected, atol=1e-10)

    def test_forward_matches_dense_oracle_end_to_end(self, graph_factory):
        g = graph_factory(7, num_classes=3)
        m = eg.init_model("sgc", g.feature_dim, 0, 3, sgc_k=2, seed=3)
        logits = eg.forward(m, g)
        A = g.adjacency().toarray() + np.eye(g.num_vertices)
        dinv = 1.0 / np.sqrt(A.sum(axis=1))
        S = dinv[:, None] * A * dinv[None, :]
        w, b = m.layers[0]
        oracle = np.linalg.matrix_power(S, 2) @ g.features.astype(np.float64) @ w + b
        assert np.allclose(logits, oracle, atol=1e-5)


class TestForward:
    def test_zero_weights_zero_logits(self):
        g = small_graph()
        for kind in eg.models.MODEL_KINDS:
            m = eg.init_model(kind, 3, 4, 3, seed=0)
            m = replace(m, layers=[(np.zeros_like(w), np.zeros_like(b)) for w, b in m.layers])
            assert np.all(eg.forward(m, g) == 0)

    def test_sage_isolated_vertex_uses_self_half_only(self):
        g = eg.TemporalGraph(
            2, [], [0, 0], np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), [0, 0], 1
        )
        m = eg.init_model("sage", 2, 3, 2, seed=5)
        logits = eg.forward(m, g)
        # neighbor half of the concatenation is zero: only the top half of W1 matters
        w1, b1 = m.layers[0]
        w1_top_only = np.vstack([w1[:2], np.zeros_like(w1[2:])])
        m2 = replace(m, layers=[(w1_top_only, b1), m.layers[1]])
        assert np.allclose(logits, eg.forward(m2, g))

    def test_sage_hand_unrolled(self):
        g = eg.TemporalGraph(
            2, [(0, 1)], [0, 0], np.array([[1.0], [2.0]], dtype=np.float32), [0, 0], 1
        )
        m = eg.init_model("sage", 1, 1, 1, seed=0, dropout_rate=0.0)
        layers = [
            (np.array([[0.5], [0.25]]), np.array([0.1])),
            (np.array([[1.0], [-0.5]]), np.array([0.2])),
        ]
        m = replace(m, layers=layers)
        logits = eg.forward(m, g)
        # a_u = relu(0.5*1 + 0.25*2 + 0.1) = 1.1 ; a_v = relu(0.5*2 + 0.25*1 + 0.1) = 1.35
        assert np.allclose(logits, [[1.0 * 1.1 - 0.5 * 1.35 + 0.2], [1.0 * 1.35 - 0.5 * 1.1 + 0.2]])

    def test_shape_mismatch_raises(self):
        g = small_graph()
        mask = np.ones(g.num_vertices, bool)
        match = "feature width 3 does not match layer-0 input 5"
        for kind in ("mlp", "sgc", "sage"):
            m = eg.init_model(kind, 5, 4, 3, seed=0)
            with pytest.raises(ValidationError, match=match):
                eg.forward(m, g)
            with pytest.raises(ValidationError, match=match):
                eg.train(m, g, g.labels, mask, eg.TrainConfig(epochs=1))
            with pytest.raises(ValidationError, match=match):
                eg.loss_and_grad(m, g, g.labels, mask, eg.CATEGORICAL)

    def test_permutation_equivariance(self, graph_factory):
        for kind in ("mlp", "sage", "sgc"):
            g = graph_factory(4, num_classes=3)
            m = eg.init_model(kind, g.feature_dim, 4, 3, seed=1, dropout_rate=0.0)
            logits = eg.forward(m, g)
            rng = np.random.default_rng(0)
            perm = rng.permutation(g.num_vertices)
            inv = np.argsort(perm)
            g2 = eg.TemporalGraph(
                g.num_vertices,
                inv[g.edges] if g.num_edges else g.edges,
                g.time[perm],
                g.features[perm],
                g.labels[perm],
                g.num_classes,
            )
            logits2 = eg.forward(m, g2)
            assert np.allclose(logits2, logits[perm], atol=1e-10)


class TestWorkspace:
    @staticmethod
    def arrays(value):
        """Every ndarray in ``value``, looking into lists, tuples and model states."""
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from TestWorkspace.arrays(item)
        elif isinstance(value, eg.ModelState):
            yield from TestWorkspace.arrays(value.layers)

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_every_buffer_is_float64(self, kind):
        g = small_graph(seed=2, n=12)
        m = eg.init_model(kind, 3, 4, 3, seed=0)
        ws = eg.models._Workspace(m, g)
        targets = eg.models._loss_targets(g.labels, np.arange(12) % 3 > 0, ws.logits.shape, eg.BCE)
        ws.forward(np.random.default_rng(1))
        ws.backward(targets, eg.BCE, want_loss=True)
        arrays = list(self.arrays(list(vars(ws).values())))
        assert {id(a) for a in arrays} >= {id(ws.params), id(ws.grads), id(ws.logits)}
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_forward_only_allocates_no_backward_buffers(self, kind):
        g = small_graph(seed=2, n=12)
        f = eg.models._Forward(eg.init_model(kind, 3, 4, 3, seed=0), g)
        f.forward()
        assert not {"drop", "dH", "grads", "dlogits", "params"} & set(vars(f))

    def test_sage_holds_no_concatenated_hidden_layer(self):
        # layer 1 runs as H @ W_s + P @ (H @ W_n): nothing is (n, 2h) wide, in either pass
        g = small_graph(seed=2, n=12)
        m = eg.init_model("sage", 3, 4, 3, seed=0)
        ws = eg.models._Workspace(m, g)
        targets = eg.models._loss_targets(g.labels, np.ones(12, bool), ws.logits.shape, eg.BCE)
        ws.forward(np.random.default_rng(1))
        ws.backward(targets, eg.BCE, want_loss=True)
        shapes = [a.shape for a in self.arrays(list(vars(ws).values()))]
        assert (12, 4) in shapes and (12, 3) in shapes
        assert not [s for s in shapes if len(s) == 2 and s[1] == 2 * m.hidden_dim]


class TestGraphInputs:
    """Layer 0's input and sage's propagation pair, built once per graph and model kind."""

    def test_built_once_across_train_and_forward(self, monkeypatch):
        calls = {"model_inputs": 0, "mean_propagation": 0}
        for name in calls:
            original = getattr(eg.models, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(eg.models, name, counted)
        g = small_graph(seed=4)
        m = eg.init_model("sage", 3, 4, 3, seed=0)
        m = eg.train(m, g, g.labels, np.ones(g.num_vertices, bool), eg.TrainConfig(epochs=3))
        eg.forward(m, g)
        eg.forward(m, g)
        assert calls == {"model_inputs": 1, "mean_propagation": 1}

    def test_sgc_powers_share_a_graph(self):
        g = small_graph(seed=5)
        models = [eg.init_model("sgc", 3, 0, 3, sgc_k=k, seed=1) for k in (1, 3)]
        shared = [eg.forward(m, g) for m in models]
        for m, logits in zip(models, shared):
            fresh = small_graph(seed=5)
            assert np.array_equal(logits, eg.forward(m, fresh))
        assert not np.array_equal(shared[0], shared[1])

    def test_cached_inputs_read_only(self):
        g = small_graph(seed=6)
        for kind in eg.models.MODEL_KINDS:
            eg.forward(eg.init_model(kind, 3, 4, 3, seed=0), g)
        assert len(g._model_inputs) == 3
        for H_in, _ in g._model_inputs.values():
            with pytest.raises(ValueError, match="read-only"):
                H_in[0, 0] = 1.0


class TestLoss:
    def test_bce_at_zero_logits_is_ln2(self):
        logits = np.zeros((4, 3))
        loss, _ = eg.loss_from_logits(logits, [0, 1, 2, 0], np.ones(4, bool), eg.BCE)
        assert np.isclose(loss, np.log(2.0))

    def test_bce_saturated_limit(self):
        y = np.array([0, 1])
        logits = np.where(np.eye(2)[y] == 1, 40.0, -40.0)
        loss, _ = eg.loss_from_logits(logits, y, np.ones(2, bool), eg.BCE)
        assert loss < 1e-6

    def test_categorical_uniform_pair_is_ln2(self):
        loss, _ = eg.loss_from_logits(np.zeros((1, 2)), [0], np.ones(1, bool), eg.CATEGORICAL)
        assert np.isclose(loss, np.log(2.0))

    def test_empty_mask_errors(self):
        with pytest.raises(ValidationError):
            eg.loss_from_logits(np.zeros((2, 2)), [0, 1], np.zeros(2, bool), eg.BCE)

    def test_nonfinite_logits_error(self):
        bad = np.array([[np.inf, 0.0]])
        with pytest.raises(ValidationError):
            eg.loss_from_logits(bad, [0], np.ones(1, bool), eg.BCE)

    def test_mask_length_must_match_rows(self):
        with pytest.raises(ValidationError, match="train mask of shape"):
            eg.loss_from_logits(np.zeros((3, 2)), [0, 1, 0], np.ones(2, bool), eg.BCE)


    @pytest.mark.parametrize(
        "loss_mode, share",
        [(eg.CATEGORICAL, 2 / 3), (eg.BCE, 5 / 9), (eg.WEIGHTED_BCE, 7 / 9)],
        ids=eg.models.LOSS_MODES,
    )
    def test_finite_mean_of_overflowing_terms(self, loss_mode, share):
        # every term is finite and so is their mean, but their sum is not; weighted-bce's
        # weight 2 on unit 0 also overflows single weighted terms
        big = 1e308
        logits = np.array([[big, big, 0.0]] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, _ = eg.loss_from_logits(logits, [0, 2, 2], np.ones(3, bool), loss_mode)
        assert np.isclose(loss, share * big, rtol=1e-14, atol=0.0)


class TestGradients:
    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    @pytest.mark.parametrize("loss_mode", [eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE])
    def test_matches_finite_differences(self, kind, loss_mode):
        for seed in (0, 1):
            g = small_graph(seed=seed)
            m = eg.init_model(kind, 3, 4, 3, seed=seed)
            mask = np.ones(g.num_vertices, bool)
            _, analytic = eg.loss_and_grad(m, g, g.labels, mask, loss_mode)
            numeric = fd_gradients(m, g, g.labels, mask, loss_mode)
            assert_grads_close(analytic, numeric)

    def test_partial_mask_gradcheck(self):
        g = small_graph(seed=3)
        m = eg.init_model("sage", 3, 4, 3, seed=3)
        mask = np.zeros(g.num_vertices, bool)
        mask[[0, 2, 4]] = True
        _, analytic = eg.loss_and_grad(m, g, g.labels, mask, eg.CATEGORICAL)
        numeric = fd_gradients(m, g, g.labels, mask, eg.CATEGORICAL)
        assert_grads_close(analytic, numeric)


class TestAdam:
    """The update rule of ``models._adam_update`` on flat parameter arrays."""

    @staticmethod
    def run(params, grads, steps=1, lr=0.1, weight_decay=0.0):
        params = np.array(params, dtype=np.float64)
        grads = np.array(grads, dtype=np.float64)
        state = np.zeros((4, params.size))
        for step in range(1, steps + 1):
            eg.models._adam_update(params, grads, state, step, lr, weight_decay)
        return params

    def test_zero_gradient_fixed_point(self):
        assert np.array_equal(self.run([0.7], [0.0]), [0.7])

    def test_first_step_moves_by_lr(self):
        # bias-corrected first step: lr * 1 / (1 + eps)
        assert abs(self.run([0.0], [1.0])[0] + 0.1) < 1e-7

    def test_elementwise_rule(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        gw = rng.normal(size=4)
        out = self.run(w, gw, steps=3, lr=0.05)
        # compare each entry against an independent scalar run
        for idx in range(4):
            assert np.isclose(out[idx], self.run([w[idx]], [gw[idx]], steps=3, lr=0.05)[0])

    def test_weight_decay_enters_gradient(self):
        # effective gradient 0.1*1.0 -> first step is -lr
        assert abs(self.run([1.0], [0.0], weight_decay=0.1)[0] - 0.9) < 1e-6


class TestTrain:
    def test_epochs_zero_disallowed(self):
        with pytest.raises(ValidationError):
            eg.TrainConfig(epochs=0)

    def test_one_epoch_changes_parameters(self):
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        cfg = eg.TrainConfig(epochs=1, seed=0)
        m2 = eg.train(m, g, g.labels, np.ones(g.num_vertices, bool), cfg)
        assert not np.array_equal(m2.layers[0][0], m.layers[0][0])

    def test_separable_toy_reaches_full_accuracy(self):
        g = two_class_blobs()
        m = eg.init_model("mlp", 2, 8, 2, seed=0)
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=200, seed=0)
        m2 = eg.train(m, g, g.labels, np.ones(g.num_vertices, bool), cfg)
        pred = np.argmax(eg.forward(m2, g), axis=1)
        assert np.mean(pred == g.labels) == 1.0

    def test_diverging_run_names_epoch(self):
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        cfg = eg.TrainConfig(learning_rate=1e200, epochs=5, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite logits at epoch 2$"):
                eg.train(m, g, g.labels, np.ones(g.num_vertices, bool), cfg)

    def test_overflowing_logit_sum_neither_raises_nor_warns(self):
        # every logit is finite though their sum is not; the finite check must not trip on
        # it, and train without on_epoch computes no loss value, which would overflow here
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        m.layers[-1][1][:2] = 1e308
        mask = np.ones(g.num_vertices, bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logits = eg.forward(m, g)
            assert np.all(np.isfinite(logits)) and logits[:, :2].min() > 1e307
            eg.train(m, g, g.labels, mask, eg.TrainConfig(weight_decay=0.0, epochs=3))
            # labels on the two large units keep the loss value itself finite
            eg.loss_from_logits(logits, g.labels % 2, mask, eg.CATEGORICAL)

    @pytest.mark.parametrize("w, bad", [(1.0, np.inf), (0.0, np.nan)], ids=["inf", "nan"])
    def test_nonfinite_logit_outside_mask_names_epoch(self, w, bad):
        g0 = small_graph()
        features = np.array(g0.features)
        features[0] = [3e38, 0.0, 0.0]
        g = eg.TemporalGraph(g0.num_vertices, g0.edges, g0.time, features, g0.labels, 3)
        m = eg.init_model("mlp", 3, 4, 3, seed=0, dropout_rate=0.0)
        # vertex 0's first hidden unit overflows to inf; w * inf is its first logit
        m.layers[0][0][0, 0] = 1e300
        m.layers[1][0][0, 0] = w
        mask = np.ones(g.num_vertices, bool)
        mask[0] = False
        with np.errstate(over="ignore", invalid="ignore"):
            logits = eg.forward(m, g)
            assert np.array_equal(logits[0, 0], bad, equal_nan=True) and np.all(np.isfinite(logits[1:]))
            with pytest.raises(ValidationError, match="non-finite logits at epoch 1$"):
                eg.train(m, g, g.labels, mask, eg.TrainConfig(epochs=3))

    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_bad_masked_label_is_validation_error(self, loss_mode, bad):
        g = small_graph()
        labels = g.labels.copy()
        labels[0] = bad
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        cfg = eg.TrainConfig(epochs=1, loss_mode=loss_mode)
        with pytest.raises(ValidationError, match="labels on masked rows must be valid"):
            eg.train(m, g, labels, np.ones(g.num_vertices, bool), cfg)

    def test_deterministic_given_seed(self):
        g = small_graph(seed=2)
        mask = np.ones(g.num_vertices, bool)
        cfg = eg.TrainConfig(epochs=20, seed=9)
        runs = []
        for _ in range(2):
            m = eg.init_model("sage", 3, 4, 3, seed=1)
            runs.append(eg.train(m, g, g.labels, mask, cfg))
        for (w1, b1), (w2, b2) in zip(runs[0].layers, runs[1].layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


class TestExpandOutputLayer:
    def test_identity_when_zero(self):
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        m2 = eg.expand_output_layer(m, 0, seed=1)
        for (w1, b1), (w2, b2) in zip(m.layers, m2.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    def test_preserves_existing_units(self, kind):
        m = eg.init_model(kind, 3, 4, 3, seed=0)
        m2 = eg.expand_output_layer(m, 2, seed=7)
        assert m2.output_dim == 5
        w_old, b_old = m.layers[-1]
        w_new, b_new = m2.layers[-1]
        assert np.array_equal(w_new[:, :3], w_old)
        assert np.array_equal(b_new[:3], b_old)
        assert np.all(b_new[3:] == 0)

    def test_old_class_logits_unchanged(self):
        g = small_graph()
        for kind in ("mlp", "sgc", "sage"):
            m = eg.init_model(kind, 3, 4, 3, seed=2, dropout_rate=0.0)
            before = eg.forward(m, g)
            after = eg.forward(eg.expand_output_layer(m, 2, seed=3), g)
            assert np.array_equal(after[:, :3], before)
            assert np.array_equal(
                np.argmax(after[:, :3], axis=1), np.argmax(before, axis=1)
            )


class TestCheckpoint:
    def test_round_trip_float32_exact(self, tmp_path):
        m = eg.init_model("sage", 5, 4, 3, seed=11)
        eg.save_checkpoint(m, tmp_path / "ckpt")
        back = eg.load_checkpoint(tmp_path / "ckpt")
        assert back.kind == m.kind and back.output_dim == m.output_dim
        for (w1, b1), (w2, b2) in zip(m.layers, back.layers):
            assert np.array_equal(w1.astype(np.float32), w2.astype(np.float32))
            assert np.array_equal(b1.astype(np.float32), b2.astype(np.float32))

    # sage 3 -> 4 -> 4 holds (6*4 + 4) + (8*4 + 4) = 64 floats
    DIMS = {"sage": (3, 4, 4), "sgc": (4, 8, 3), "mlp": (4, 8, 3)}

    # SHA-256 prefixes of params.bin for init_model(kind, *DIMS[kind], seed=11)
    PARAMS_SHA256 = {"sage": "f585ac288c511994", "sgc": "1451f3d277340300", "mlp": "daba65b662241a73"}

    @pytest.mark.parametrize("kind", list(DIMS))
    def test_params_bin_bytes_pinned(self, tmp_path, kind):
        eg.save_checkpoint(eg.init_model(kind, *self.DIMS[kind], seed=11), tmp_path)
        digest = hashlib.sha256((tmp_path / "params.bin").read_bytes()).hexdigest()
        assert digest[:16] == self.PARAMS_SHA256[kind]

    # format-1 manifests as earlier versions wrote them for DIMS, seed=11
    FORMAT1_MANIFESTS = {
        "sage": "format_version=1\nkind=sage\nhidden_dim=4\noutput_dim=4\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=2\nlayer0_shape=6,4\nlayer1_shape=8,4\n",
        "sgc": "format_version=1\nkind=sgc\nhidden_dim=0\noutput_dim=3\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=1\nlayer0_shape=4,3\n",
        "mlp": "format_version=1\nkind=mlp\nhidden_dim=8\noutput_dim=3\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=2\nlayer0_shape=4,8\nlayer1_shape=8,3\n",
    }

    @pytest.mark.parametrize("kind", list(DIMS))
    def test_format1_loads_like_format2(self, tmp_path, kind):
        m = eg.init_model(kind, *self.DIMS[kind], seed=11)
        eg.save_checkpoint(m, tmp_path / "v2")
        eg.save_checkpoint(m, tmp_path / "v1")
        (tmp_path / "v1" / "manifest").write_text(self.FORMAT1_MANIFESTS[kind])
        v1, v2 = eg.load_checkpoint(tmp_path / "v1"), eg.load_checkpoint(tmp_path / "v2")
        assert v1.kind == v2.kind == kind and v1.sgc_k == v2.sgc_k == 2
        assert v1.dropout_rate == v2.dropout_rate == 0.5
        assert (v1.hidden_dim, v1.output_dim) == (v2.hidden_dim, v2.output_dim) == (m.hidden_dim, m.output_dim)
        TestReferenceOracle.assert_same_layers(v1.layers, v2.layers)

    @pytest.mark.parametrize(
        "kind, edits, params_bytes, match",
        [
            pytest.param("sage", {}, -8, "params.bin holds 62 floats, expected 64", id="short"),
            pytest.param("sage", {}, 4, "params.bin holds 65 floats, expected 64", id="trailing"),
            # would load as a one-layer "mlp" that forward runs as a linear model
            pytest.param(
                "sgc", {"kind=sgc": "kind=mlp"}, 0,
                "num_layers=1, but a mlp model has 2", id="sgc-as-mlp",
            ),
            # as many floats as the 4 -> 8 -> 3 mlp, so params.bin's length passes
            pytest.param(
                "mlp", {"layer1_shape=8,3": "layer1_shape=26,1"}, 0,
                "layer1_shape=26,1, but a mlp model with hidden_dim=8 and output_dim=1 has 8,1",
                id="mlp-reshaped",
            ),
        ],
    )
    def test_inconsistent_checkpoint_raises(self, tmp_path, kind, edits, params_bytes, match):
        eg.save_checkpoint(eg.init_model(kind, *self.DIMS[kind], seed=11), tmp_path)
        params, manifest = tmp_path / "params.bin", tmp_path / "manifest"
        data = params.read_bytes()
        params.write_bytes(data[:params_bytes] if params_bytes < 0 else data + bytes(params_bytes))
        text = manifest.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        manifest.write_text(text)
        with pytest.raises(ValidationError, match=match):
            eg.load_checkpoint(tmp_path)

    # case -> (manifest key, its replacement line or None to drop it, expected message)
    BAD_MANIFESTS = {
        **{
            f"missing-{key}": (key, None, f"checkpoint manifest: missing key '{key}'")
            for key in (
                "format_version", "kind", "sgc_k", "dropout_rate", "num_layers",
                "layer0_shape", "layer1_shape",
            )
        },
        "no-equals": ("sgc_k", "sgc_k 2", "manifest:3: expected key=value, got 'sgc_k 2'"),
        "sgc_k=two": ("sgc_k", "sgc_k=two", "bad value sgc_k='two'"),
        "dropout_rate=half": ("dropout_rate", "dropout_rate=half", "bad value dropout_rate='half'"),
        "num_layers=two": ("num_layers", "num_layers=two", "bad value num_layers='two'"),
        "num_layers=0": ("num_layers", "num_layers=0", "bad value num_layers='0'"),
        "layer0_shape=6": ("layer0_shape", "layer0_shape=6", "bad value layer0_shape='6'"),
        "layer0_shape=6,x": ("layer0_shape", "layer0_shape=6,x", "bad value layer0_shape='6,x'"),
        "format_version=x": ("format_version", "format_version=x", "bad value format_version='x'"),
        "format_version=3": (
            "format_version", "format_version=3", "unsupported format_version '3'"
        ),
        "kind=gat": ("kind", "kind=gat", "unknown model kind 'gat'"),
        # the ranges ExperimentConfig applies
        "dropout_rate=1.5": ("dropout_rate", "dropout_rate=1.5", "dropout_rate 1.5 outside [0, 1)"),
        "dropout_rate=nan": ("dropout_rate", "dropout_rate=nan", "dropout_rate nan outside [0, 1)"),
        "dropout_rate=-0.1": ("dropout_rate", "dropout_rate=-0.1", "dropout_rate -0.1 outside [0, 1)"),
        "sgc_k=-3": ("sgc_k", "sgc_k=-3", "sgc_k must be >= 0, got -3"),
    }

    @pytest.mark.parametrize("case", list(BAD_MANIFESTS))
    def test_bad_manifest_raises(self, tmp_path, case):
        key, line, match = self.BAD_MANIFESTS[case]
        eg.save_checkpoint(eg.init_model("sage", 3, 4, 4, seed=11), tmp_path)
        manifest = tmp_path / "manifest"
        lines = [
            (line if x.split("=", 1)[0] == key else x)
            for x in manifest.read_text().splitlines()
        ]
        manifest.write_text("".join(f"{x}\n" for x in lines if x is not None))
        with pytest.raises(ValidationError, match=re.escape(match)):
            eg.load_checkpoint(tmp_path)

    def test_forward_close_after_round_trip(self, tmp_path):
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=4)
        eg.save_checkpoint(m, tmp_path / "c2")
        back = eg.load_checkpoint(tmp_path / "c2")
        a = eg.forward(m, g)
        b = eg.forward(back, g)
        assert np.allclose(a, b, atol=1e-5)


class TestReferenceOracle:
    """``train`` against the per-array reference kernels, bit for bit."""

    @staticmethod
    def graph_with_isolated_vertex():
        g0 = small_graph(seed=8, n=30, dim=5, num_classes=4)
        g = eg.TemporalGraph(
            30, g0.edges[(g0.edges != 29).all(axis=1)], g0.time, g0.features, g0.labels, 4
        )
        assert g.adjacency()[29].nnz == 0 and g.num_edges > 0
        return g

    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    @pytest.mark.parametrize("loss_mode", [eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_train_equals_reference(self, kind, loss_mode, full_mask, dropout):
        g = self.graph_with_isolated_vertex()
        m = eg.init_model(kind, 5, 8, 4, seed=3, dropout_rate=dropout)
        before = m.copy()
        X = eg.model_inputs(m, g)
        mask = np.ones(30, bool)
        if not full_mask:
            mask[[0, 4, 5, 17, 29]] = False
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode, seed=6)

        def recorder(out):
            return lambda epoch, loss, model: out.append(
                (epoch, loss, [ref.bits(a).tolist() for pair in model.layers for a in pair])
            )

        seen, expected_seen = [], []
        trained = eg.train(m, g, g.labels, mask, cfg, on_epoch=recorder(seen))
        expected = ref.train(m, g, X, g.labels, mask, cfg, on_epoch=recorder(expected_seen))
        for (w1, b1), (w2, b2) in zip(trained.layers, expected.layers):
            assert np.array_equal(ref.bits(w1), ref.bits(w2))
            assert np.array_equal(ref.bits(b1), ref.bits(b2))
        assert seen == expected_seen
        # train works on its own copy: the caller's model is untouched
        for (w1, b1), (w2, b2) in zip(m.layers, before.layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    @staticmethod
    def grid_point(kind, full_mask, dropout):
        g = TestReferenceOracle.graph_with_isolated_vertex()
        m = eg.init_model(kind, 5, 8, 4, seed=3, dropout_rate=dropout)
        mask = np.ones(30, bool)
        if not full_mask:
            mask[[0, 4, 5, 17, 29]] = False
        return g, m, mask

    @staticmethod
    def assert_same_layers(got, expected):
        assert len(got) == len(expected)
        for (w1, b1), (w2, b2) in zip(got, expected):
            assert np.array_equal(ref.bits(w1), ref.bits(w2))
            assert np.array_equal(ref.bits(b1), ref.bits(b2))

    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    @pytest.mark.parametrize("loss_mode", [eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.5, 0.3])
    def test_train_without_on_epoch_equals_reference(self, kind, loss_mode, full_mask, dropout):
        # without on_epoch no loss value is computed; the updates stay the same
        g, m, mask = self.grid_point(kind, full_mask, dropout)
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode, seed=6)
        expected = ref.train(m, g, eg.model_inputs(m, g), g.labels, mask, cfg)
        self.assert_same_layers(eg.train(m, g, g.labels, mask, cfg).layers, expected.layers)

    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    @pytest.mark.parametrize("loss_mode", [eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_forward_and_loss_and_grad_equal_reference(self, kind, loss_mode, full_mask, dropout):
        g, m, mask = self.grid_point(kind, full_mask, dropout)
        # a trained model, so that dead relu units and nonzero biases occur
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode, seed=6)
        m = eg.train(m, g, g.labels, mask, cfg)
        H_in, prop = ref._graph_inputs(m, g, eg.model_inputs(m, g))
        logits, cache = ref._forward_cached(m, H_in, prop, None)
        assert np.array_equal(ref.bits(eg.forward(m, g)), ref.bits(logits))
        weights = eg.class_weights(g.labels, mask, 4) if loss_mode == eg.WEIGHTED_BCE else None
        targets = ref._loss_targets(g.labels, mask, 4, loss_mode, weights)
        loss, dlogits = ref._loss_kernel(logits, targets, loss_mode)
        got_loss, got_grads = eg.loss_and_grad(m, g, g.labels, mask, loss_mode)
        assert ref.bits(np.float64(got_loss)) == ref.bits(np.float64(loss))
        self.assert_same_layers(got_grads, ref._backward(m, cache, dlogits))


class TestOrderOracle:
    """sage's re-associated output layer against the concatenated order, within the stated bound."""

    GRAPHS = {
        "isolated-vertex": TestReferenceOracle.graph_with_isolated_vertex,
        "dense": lambda: small_graph(seed=11, n=40, dim=5, num_classes=4),
        "synth": lambda: eg.generate(
            eg.SynthConfig(num_timestamps=4, vertices_per_timestamp=30, feature_dim=5, seed=3)
        ),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_within_bound_of_concatenated_order(self, graph, loss_mode, dropout):
        g = self.GRAPHS[graph]()
        mask = np.arange(g.num_vertices) % 5 > 0
        m = eg.init_model("sage", 5, 32, 4, seed=3, dropout_rate=dropout)
        X = eg.model_inputs(m, g)
        cfg = eg.TrainConfig(learning_rate=0.02, epochs=200, loss_mode=loss_mode, seed=6)
        concat = (ref._forward_cached_concat, ref._backward_concat)
        trained = eg.train(m, g, g.labels, mask, cfg)
        oracle = ref.train(m, g, X, g.labels, mask, cfg, kernels=concat)
        for got, want in zip(trained.layers, oracle.layers):
            for a, b in zip(got, want):
                assert ref.rel_dev(a, b) <= ref.TRAINED_RTOL
        # one pass of a briefly trained model: dead relu units and nonzero biases occur, and
        # its gradients are not yet the near-cancelling sums of a converged one
        m = eg.train(m, g, g.labels, mask, replace(cfg, epochs=15))
        H_in, prop = ref._graph_inputs(m, g, X)
        logits, cache = ref._forward_cached_concat(m, H_in, prop, None)
        assert ref.rel_dev(eg.forward(m, g), logits) <= ref.PASS_RTOL
        weights = eg.class_weights(g.labels, mask, 4) if loss_mode == eg.WEIGHTED_BCE else None
        targets = ref._loss_targets(g.labels, mask, 4, loss_mode, weights)
        loss, dlogits = ref._loss_kernel(logits, targets, loss_mode)
        got_loss, got_grads = eg.loss_and_grad(m, g, g.labels, mask, loss_mode)
        assert ref.rel_dev(got_loss, loss) <= ref.PASS_RTOL
        for got, want in zip(got_grads, ref._backward_concat(m, cache, dlogits)):
            for a, b in zip(got, want):
                assert ref.rel_dev(a, b) <= ref.PASS_RTOL
