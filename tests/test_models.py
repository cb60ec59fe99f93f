import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

import evograph as eg
import reference_kernels as ref
from evograph.errors import ValidationError
from conftest import raises_exactly, two_class_blobs


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
                eg.train([m], g, g.labels, mask, eg.TrainConfig(epochs=1), [0])
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

    @staticmethod
    def peak_allocation(fn) -> int:
        """Bytes allocated by ``fn()`` at its peak, over what was allocated before, per tracemalloc."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    def test_epoch_buffers_are_float32(self, kind, loss_mode):
        g = small_graph(seed=2, n=12)
        m = eg.init_model(kind, 3, 4, 3, seed=0)
        ws = eg.models._Workspace([m], g, np.float32)
        targets = eg.models._loss_targets(g.labels, np.arange(12) % 3 > 0, ws.logits, loss_mode)
        assert {a.dtype for a in self.arrays([targets.onehot, targets.weights, targets.scale])} == {
            np.dtype(np.float32)
        }
        ws.forward([np.random.default_rng(1)])
        ws.backward(targets, loss_mode, want_loss=True)
        arrays = {name: list(self.arrays(a)) for name, a in vars(ws).items()}
        assert {"params", "grads", "logits", "dlogits", "work", "H_in"} <= set(arrays)
        # only the caller's model, kept for its settings, stays float64; no dropout buffer is float64
        assert {name for name, a in arrays.items() if a} - {"model"} == {
            name for name, a in arrays.items() if {b.dtype for b in a} == {np.dtype(np.float32)}
        }
        assert not hasattr(ws, "draw")
        if ws.prop is not None:
            assert {P.dtype for P in ws.prop} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_train_runs_in_float32_and_forward_and_loss_and_grad_in_float64(self, kind, monkeypatch):
        g = small_graph(seed=2, n=12)
        m = eg.init_model(kind, 3, 4, 3, seed=0)
        mask = np.arange(12) % 3 > 0
        passes, pass_ = [], eg.models._Forward.forward
        monkeypatch.setattr(
            eg.models._Forward, "forward", lambda self, *a: passes.append(self) or pass_(self, *a)
        )
        seen = []
        cfg = eg.TrainConfig(epochs=2)
        (trained,) = eg.train([m], g, g.labels, mask, cfg, [0], on_epoch=lambda *a: seen.append(a[3]))
        # the working model is float32; the returned one float64, with float32 values
        assert {a.dtype for a in self.arrays(seen)} == {np.dtype(np.float32)}
        assert {a.dtype for a in self.arrays(trained)} == {np.dtype(np.float64)}
        for a in self.arrays(trained):
            assert np.array_equal(a, a.astype(np.float32))
        assert [type(p) for p in passes] == [eg.models._Workspace] * 2 and passes[0] is passes[1]
        assert passes[0].params.dtype == np.float32
        assert eg.forward(trained, g).dtype == np.float64
        _, grads = eg.loss_and_grad(trained, g, g.labels, mask, eg.BCE)
        assert {a.dtype for a in self.arrays(grads)} == {np.dtype(np.float64)}
        for p in passes[2:]:
            arrays = list(self.arrays(list(vars(p).values())))
            assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
        assert [type(p) for p in passes[2:]] == [eg.models._Forward, eg.models._Workspace]

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_forward_only_allocates_no_backward_buffers(self, kind):
        g = small_graph(seed=2, n=12)
        f = eg.models._Forward(eg.init_model(kind, 3, 4, 3, seed=0), g)
        f.forward()
        assert not {"draw", "drop", "dH", "grads", "gWb0", "dlogits", "work", "params", "ones"} & set(vars(f))

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_layer0_weights_and_bias_are_one_view_into_the_flat_rows(self, kind):
        g = small_graph(seed=2, n=12)
        models = [eg.init_model(kind, 3, 4, 3, seed=s) for s in range(2)]
        for m in models:
            m.layers[0][1][:] = np.arange(1.0, m.layers[0][1].size + 1)
        ws = eg.models._Workspace(models, g, np.float32)
        fan_in, fan_out = models[0].layers[0][0].shape
        assert ws.Wb0.shape == ws.gWb0.shape == (2, fan_in + 1, fan_out)
        assert np.shares_memory(ws.Wb0, ws.params) and np.shares_memory(ws.gWb0, ws.grads)
        ws.grads[:] = np.arange(ws.grads.size).reshape(ws.grads.shape)
        gW0, gb0 = ws.grad_layers[0]
        for s, m in enumerate(models):
            assert np.array_equal(ws.Wb0[s], np.vstack(m.layers[0]).astype(np.float32))
            assert np.array_equal(ws.gWb0[s], np.vstack([gW0[s], gb0[s]]))

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_cached_input_ends_in_a_read_only_ones_column(self, kind):
        g = small_graph(seed=2, n=12)
        m = eg.init_model(kind, 3, 4, 3, seed=0)
        H_in, prop = eg.models._graph_inputs(m, g, np.float64)
        X = eg.model_inputs(m, g)
        assert np.array_equal(H_in[:, :-1], X if prop is None else np.hstack([X, prop[0] @ X]))
        assert np.array_equal(H_in[:, -1], np.ones(12))
        # the float32 entry is the float64 one, cast once
        H_in32, prop32 = eg.models._graph_inputs(m, g, np.float32)
        assert H_in32.dtype == np.float32 and np.array_equal(H_in32, H_in.astype(np.float32))
        assert eg.models._graph_inputs(m, g, np.float32)[0] is H_in32
        if prop is not None:
            assert prop32[0].dtype == np.float32 and (prop32[0] != prop[0].astype(np.float32)).nnz == 0
            assert (prop32[1] != prop32[0].T).nnz == 0
        for a in (H_in, H_in32):
            with pytest.raises(ValueError, match="read-only"):
                a[0, -1] = 2.0

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_epoch_allocates_no_hidden_buffer_and_rebinds_none(self, kind, monkeypatch):
        S, n, h, C = 2, 300, 64, 3
        g = small_graph(seed=2, n=n, dim=5, num_classes=C)
        models = [eg.init_model(kind, 5, h, C, seed=s, dropout_rate=0.5) for s in range(S)]
        ws = eg.models._Workspace(models, g, np.float32)
        targets = eg.models._loss_targets(g.labels, np.ones(n, bool), ws.logits, eg.BCE)
        rngs = [np.random.default_rng(s) for s in range(S)]

        def operator(*args):
            raise AssertionError("an epoch ran a scipy sparse operator")

        # sage's sparse products run scipy's kernels into the workspace, not its operators, which
        # allocate their result
        monkeypatch.setattr(sp._base._spbase, "_matmul_dispatch", operator)
        ws.forward(rngs)
        ws.backward(targets, eg.BCE, want_loss=False)
        buffers = {name: id(a) for name, a in vars(ws).items() if isinstance(a, np.ndarray)}
        peak = self.peak_allocation(lambda: (ws.forward(rngs), ws.backward(targets, eg.BCE, want_loss=False)))
        # every (S, n, h) and (n, S, C) buffer is the workspace's own, made once
        assert buffers == {name: id(a) for name, a in vars(ws).items() if isinstance(a, np.ndarray)}
        # what an epoch allocates (the dropout lanes and numpy's iteration buffers, at most
        # 32 KB each) stays below one float32 (S, n, h) buffer, 21 times an (n, S, C) one
        assert peak < S * n * h * 4

    @pytest.mark.parametrize("graph", ["edges", "isolated-vertices", "no-edges"])
    @pytest.mark.parametrize("S, C", [(1, 3), (3, 3), (1, 1)], ids=["S1", "S3", "one-column"])
    @pytest.mark.parametrize("full_mask", [True, False], ids=["full-mask", "partial-mask"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["train", "score"])
    def test_sparse_products_equal_scipys_operators(self, dtype, full_mask, S, C, graph):
        # sage's P @ (H @ W_n) and P.T @ dZ run scipy's private kernels csr_matvecs and
        # csc_matvecs into the shared PX buffer; their bits must be the operators', which at
        # S * C = 1 run csr_matvec and csc_matvec instead
        n, rng = 30, np.random.default_rng(4)
        linked = {"edges": n, "isolated-vertices": 20, "no-edges": 0}[graph]
        pairs = [(i, j) for i in range(linked) for j in range(i + 1, linked) if rng.random() < 0.25]
        g = eg.TemporalGraph(
            n, np.asarray(pairs, np.int64).reshape(-1, 2), rng.integers(0, 3, n),
            rng.normal(size=(n, 4)).astype(np.float32), rng.integers(0, C, n), C,
        )
        mask = np.ones(n, bool) if full_mask else np.arange(n) % 3 > 0
        models = [eg.init_model("sage", 4, 8, C, seed=s) for s in range(S)]
        ws = eg.models._Workspace(models, g, dtype)
        P, P_T = ws.prop
        assert P.dtype == P_T.dtype == dtype
        assert not np.diff(P.indptr)[linked:].any() and (P.nnz == 0) == (graph == "no-edges")
        targets = eg.models._loss_targets(g.labels, mask, ws.logits, eg.BCE)
        rngs = [np.random.default_rng(s) for s in range(S)] if dtype == np.float32 else None
        same_bits = lambda a, b: a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # twice: the second forward product starts from the Q the first backward pass left in PX
        for _ in range(2):
            ws.forward(rngs)
            assert same_bits(ws.PX, P @ ws.HWn.reshape(n, -1))
            ws.backward(targets, eg.BCE, want_loss=False)
            assert full_mask or not ws.dlogits[~mask].any()
            assert same_bits(ws.PX, P_T @ ws.dlogits.reshape(n, -1))
        if dtype == np.float64:  # forward's scoring pass
            f = eg.models._Forward(models[0], g)
            f.forward()
            assert same_bits(f.PX, P @ f.HWn.reshape(n, -1))

    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("full_mask", [True, False])
    def test_loss_kernel_writes_into_the_workspace(self, loss_mode, full_mask):
        S, n, C = 2, 6000, 3
        rng = np.random.default_rng(2)
        features, labels = rng.normal(size=(n, 5)), rng.integers(0, C, n)
        g = eg.TemporalGraph(n, np.empty((0, 2), np.int64), np.zeros(n, np.int64), features, labels, C)
        ws = eg.models._Workspace([eg.init_model("sgc", 5, 0, C, seed=s) for s in range(S)], g, np.float32)
        mask = np.ones(n, bool) if full_mask else np.arange(n) % 4 > 0
        targets = eg.models._loss_targets(g.labels, mask, ws.logits, loss_mode)
        logits = ws.forward().copy()
        kernel = lambda: eg.models._loss_kernel(
            ws.logits, targets, loss_mode, False, ws.dlogits, ws.work, ws.rows
        )
        assert kernel()[1] is ws.dlogits
        if loss_mode != eg.CATEGORICAL and full_mask:
            # the work buffer holds 1 + exp(-|z|), the sigmoid's denominator
            e = np.exp(-np.abs(logits))
            assert np.array_equal(ws.work, e + np.float32(1.0))
        peak, unit = self.peak_allocation(kernel), ws.logits.nbytes
        if full_mask and loss_mode != eg.CATEGORICAL:
            # the one-hot targets and the gradient's scale are of the gradient's shape, so no
            # operand is broadcast through one of numpy's iteration buffers (32 KB, 0.23 unit)
            assert peak < 0.05 * unit
        elif full_mask:
            # numpy's iteration buffers, at most 32 KB
            assert peak < 0.5 * unit
        else:
            # plus the gathered masked rows, in which the gradient is computed
            assert peak < 1.5 * unit

    def test_categorical_loss_value_with_a_shift_beyond_float32(self):
        # row 0's other units shift to -inf in float32; the loss value reads only the label's unit
        logits = np.array([[3e38, -3e38, 0.0], [1.0, 2.0, 3.0]], np.float32)[:, None]
        targets = eg.models._loss_targets(np.array([0, 2]), np.ones(2, bool), logits, eg.CATEGORICAL)
        with np.errstate(over="ignore"):
            (loss,), grad = eg.models._loss_kernel(
                logits, targets, eg.CATEGORICAL, True, np.zeros_like(logits), np.empty_like(logits),
                np.empty((2, 2), np.float32),
            )
        assert loss == pytest.approx(np.log(np.exp(-2.0) + np.exp(-1.0) + 1.0) / 2, rel=1e-6)
        assert np.isfinite(grad).all()

    def test_sage_holds_no_concatenated_hidden_layer(self):
        # layer 1 runs as H @ W_s + P @ (H @ W_n): nothing is (n, 2h) wide, in either pass
        g = small_graph(seed=2, n=12)
        m = eg.init_model("sage", 3, 4, 3, seed=0)
        ws = eg.models._Workspace([m], g, np.float32)
        targets = eg.models._loss_targets(g.labels, np.ones(12, bool), ws.logits, eg.BCE)
        ws.forward([np.random.default_rng(1)])
        ws.backward(targets, eg.BCE, want_loss=True)
        # (S, n, h) hidden buffers and (n, S, C) output buffers, S = 1
        shapes = [a.shape for a in self.arrays(list(vars(ws).values()))]
        assert (1, 12, 4) in shapes and (12, 1, 3) in shapes
        assert not [s for s in shapes if len(s) >= 2 and s[-1] == 2 * m.hidden_dim]


class TestDropoutMasks:
    """Each epoch, model s keeps unit (i, j) iff lane ``i * h + j`` of its raw PCG64 words is >= round(rate * 2**16)."""

    @staticmethod
    def oracle(seed, n, h, cut):
        """Per epoch, the (n, h) keep mask of ``PCG64(seed)``: its words cut into 16-bit lanes, low bits first."""
        bits = np.random.PCG64(seed)
        while True:
            words = [int(w) for w in bits.random_raw(-(-n * h // 4))]
            lanes = [(w >> shift) & 0xFFFF for w in words for shift in (0, 16, 32, 48)]
            yield np.array(lanes[: n * h]).reshape(n, h) >= cut

    @pytest.mark.parametrize("kind", ["mlp", "sage"])
    @pytest.mark.parametrize(
        "rate, cut",
        # 0.3 * 2**16 = 19660.8; a rate above 1 - 2**-17 rounds to 2**16, which no uint16 lane reaches
        [(0.5, 32768), (0.3, 19661), (1 - 2**-18, 65536), (2**-18, 0)],
    )
    @pytest.mark.parametrize("n, h", [(12, 4), (7, 3)], ids=["n*h=48", "n*h=21"])
    def test_masks_equal_the_lane_oracle_per_model(self, kind, rate, cut, n, h):
        # 21 units take 6 words; their last 3 lanes are read by no unit
        g = small_graph(seed=2, n=n)
        models = [eg.init_model(kind, 3, h, 3, seed=s, dropout_rate=rate) for s in range(2)]
        ws = eg.models._Workspace(models, g, np.float32)
        assert ws.cut == cut and type(ws.cut) is int
        rngs, oracles = [np.random.default_rng(s) for s in (5, 9)], [self.oracle(s, n, h, cut) for s in (5, 9)]
        for _ in range(3):
            ws.forward(rngs)
            assert ws.drop.dtype == np.float32
            for drop, oracle in zip(ws.drop, oracles):
                assert np.array_equal(drop, next(oracle))
        if cut == 65536:
            assert not ws.drop.any() and not ws.H.any()
        if cut == 0:
            assert ws.drop.all()

    @pytest.mark.parametrize("rate", [0.5, 0.3])
    def test_keep_rate(self, rate):
        # 4 epochs of a 2048 x 128 hidden layer: N = 2**20 units, each kept with probability
        # p = 1 - cut / 2**16, within 2**-17 of 1 - rate; the count lies within 6 binomial
        # standard deviations of N p, which a fair stream misses with probability below 2e-9
        n, h, epochs = 2048, 128, 4
        zeros = np.zeros(n, np.int64)
        g = eg.TemporalGraph(n, np.empty((0, 2), np.int64), zeros, np.ones((n, 3)), zeros, 3)
        ws = eg.models._Workspace([eg.init_model("mlp", 3, h, 3, seed=0, dropout_rate=rate)], g, np.float32)
        p = 1 - ws.cut / 2**16
        assert abs(p - (1 - rate)) <= 2**-17
        rngs, kept = [np.random.default_rng(7)], 0
        for _ in range(epochs):
            ws.forward(rngs)
            kept += int(ws.drop.sum(dtype=np.int64))
        N = epochs * n * h
        assert abs(kept - N * p) < 6 * np.sqrt(N * p * (1 - p))


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
        (m,) = eg.train([m], g, g.labels, np.ones(g.num_vertices, bool), eg.TrainConfig(epochs=3), [0])
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
        cfg = eg.TrainConfig(epochs=1)
        (m2,) = eg.train([m], g, g.labels, np.ones(g.num_vertices, bool), cfg, [0])
        assert not np.array_equal(m2.layers[0][0], m.layers[0][0])

    def test_separable_toy_reaches_full_accuracy(self):
        g = two_class_blobs()
        m = eg.init_model("mlp", 2, 8, 2, seed=0)
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=200)
        (m2,) = eg.train([m], g, g.labels, np.ones(g.num_vertices, bool), cfg, [0])
        pred = np.argmax(eg.forward(m2, g), axis=1)
        assert np.mean(pred == g.labels) == 1.0

    def test_diverging_run_names_epoch(self):
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        cfg = eg.TrainConfig(learning_rate=1e200, epochs=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite logits at epoch 2$"):
                eg.train([m], g, g.labels, np.ones(g.num_vertices, bool), cfg, [0])

    def test_overflowing_logit_sum_neither_raises_nor_warns(self):
        # every logit is finite though their sum is not, in train's float32; the finite check
        # must not trip on it, and train without on_epoch computes no loss value, which would
        # overflow here
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        m.layers[-1][1][:2] = 3e38
        mask = np.ones(g.num_vertices, bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logits = eg.forward(m, g)
            assert np.all(np.isfinite(logits.astype(np.float32))) and logits[:, :2].min() > 2e38
            with np.errstate(over="ignore"):
                assert np.isinf(logits.astype(np.float32).sum(axis=1)).all()
            eg.train([m], g, g.labels, mask, eg.TrainConfig(weight_decay=0.0, epochs=3), [0])
            # labels on the two large units keep the loss value itself finite
            eg.loss_from_logits(logits, g.labels % 2, mask, eg.CATEGORICAL)

    def test_parameter_beyond_float32_fails_at_epoch_1_without_warning(self):
        # train casts the model to float32, where 1e39 is inf, and reports the logits it gives
        g = small_graph()
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        m.layers[-1][1][0] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite logits at epoch 1$"):
                eg.train([m], g, g.labels, np.ones(g.num_vertices, bool), eg.TrainConfig(epochs=3), [0])

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
                eg.train([m], g, g.labels, mask, eg.TrainConfig(epochs=3), [0])

    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_bad_masked_label_is_validation_error(self, loss_mode, bad):
        g = small_graph()
        labels = g.labels.copy()
        labels[0] = bad
        m = eg.init_model("mlp", 3, 4, 3, seed=0)
        cfg = eg.TrainConfig(epochs=1, loss_mode=loss_mode)
        with pytest.raises(ValidationError, match="labels on masked rows must be valid"):
            eg.train([m], g, labels, np.ones(g.num_vertices, bool), cfg, [0])

    def test_deterministic_given_seed(self):
        g = small_graph(seed=2)
        mask = np.ones(g.num_vertices, bool)
        cfg = eg.TrainConfig(epochs=20)
        runs = []
        for _ in range(2):
            m = eg.init_model("sage", 3, 4, 3, seed=1)
            (trained,) = eg.train([m], g, g.labels, mask, cfg, [9])
            runs.append(trained)
        for (w1, b1), (w2, b2) in zip(runs[0].layers, runs[1].layers):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


class TestTrainStack:
    """``train`` on a list of models: each gets the bits it gets when trained alone."""

    @staticmethod
    def stack(kind, n, dropout, S=3, hidden=8, out=4, dim=5):
        g = small_graph(seed=8, n=n, dim=dim, num_classes=4)
        models = [eg.init_model(kind, dim, hidden, out, seed=20 + s, dropout_rate=dropout) for s in range(S)]
        return g, models

    @staticmethod
    def record_sub_stacks(monkeypatch) -> list:
        """The size of each sub-stack that ``train`` builds an epoch workspace for, in order."""
        sizes, real_workspace = [], eg.models._Workspace.__init__

        def workspace(ws, stack, *args):
            sizes.append(len(stack))
            real_workspace(ws, stack, *args)

        monkeypatch.setattr(eg.models._Workspace, "__init__", workspace)
        return sizes

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_each_model_equals_its_lone_training(self, kind, loss_mode, full_mask, dropout):
        g, models = self.stack(kind, 30, dropout)
        mask = np.arange(30) % 4 > 0 if not full_mask else np.ones(30, bool)
        cfg, seeds = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode), [6, 1, 9]
        stacked = eg.train(models, g, g.labels, mask, cfg, seeds)
        for m, seed, got in zip(models, seeds, stacked):
            (alone,) = eg.train([m], g, g.labels, mask, cfg, [seed])
            TestReferenceOracle.assert_same_layers(got.layers, alone.layers)

    @pytest.mark.parametrize(
        "kind, dim, hidden, out",
        [("sage", 5, 1, 4), ("sage", 5, 8, 1), ("mlp", 1, 8, 4), ("sgc", 1, 8, 4)],
        ids=["one-hidden-unit", "one-output-unit", "mlp-one-input-column", "sgc-one-input-column"],
    )
    def test_width_one_layers_equal_lone_training(self, kind, dim, hidden, out, monkeypatch):
        # a hidden or output width of 1 trains one model at a time; one input column does not,
        # as layer 0 multiplies [X | 1]
        g, models = self.stack(kind, 30, 0.5, hidden=hidden, out=out, dim=dim)
        labels = np.zeros(30, dtype=np.int64) if out == 1 else g.labels
        mask = np.ones(30, bool)
        cfg = eg.TrainConfig(epochs=10, loss_mode=eg.BCE)
        sizes = self.record_sub_stacks(monkeypatch)
        stacked = eg.train(models, g, labels, mask, cfg, range(3))
        assert sizes == ([1, 1, 1] if min(hidden, out) == 1 else [3])
        for seed, (m, got) in enumerate(zip(models, stacked)):
            (alone,) = eg.train([m], g, labels, mask, cfg, [seed])
            TestReferenceOracle.assert_same_layers(got.layers, alone.layers)

    @pytest.mark.parametrize("kind", ["mlp", "sage"])
    @pytest.mark.parametrize("out", [2, 3])
    def test_narrow_output_layers_on_many_rows_equal_lone_training(self, kind, out):
        # from about 56 rows on, ones(n) @ dZ over 2 or 3 output columns gives other bits when
        # the columns are a slice of the stack's (n, S, C) rows than when they are contiguous
        g, models = self.stack(kind, 64, 0.5, out=out)
        labels, mask = g.labels % out, np.ones(64, bool)
        cfg = eg.TrainConfig(epochs=5)
        stacked = eg.train(models, g, labels, mask, cfg, range(3))
        for seed, (m, got) in enumerate(zip(models, stacked)):
            (alone,) = eg.train([m], g, labels, mask, cfg, [seed])
            TestReferenceOracle.assert_same_layers(got.layers, alone.layers)
            expected = ref.train(m, g, eg.model_inputs(m, g), labels, mask, cfg, seed, dtype=np.float32)
            TestReferenceOracle.assert_same_layers(got.layers, expected.layers)

    def test_stack_over_the_budget_trains_as_consecutive_sub_stacks(self, monkeypatch):
        g, models = self.stack("sage", 30, 0.5, S=5)
        # the budget fits two models of h = 8, C = 4 on 30 rows
        monkeypatch.setattr(eg.models, "_STACK_ENTRIES", 2 * 30 * (8 + 4) + 1)
        sizes = self.record_sub_stacks(monkeypatch)
        cfg, seeds = eg.TrainConfig(epochs=10, loss_mode=eg.WEIGHTED_BCE), [4, 0, 8, 2, 6]
        mask = np.ones(30, bool)
        stacked = eg.train(models, g, g.labels, mask, cfg, seeds)
        assert sizes == [2, 2, 1]
        for m, seed, got in zip(models, seeds, stacked):
            (alone,) = eg.train([m], g, g.labels, mask, cfg, [seed])
            TestReferenceOracle.assert_same_layers(got.layers, alone.layers)
        assert sizes == [2, 2, 1] + [1] * 5

    @pytest.mark.parametrize("split", ["one-stack", "sub-stacks", "one-output-unit"])
    def test_hook_runs_once_per_epoch_and_model_with_its_lone_loss(self, split, monkeypatch):
        out = 1 if split == "one-output-unit" else 4
        g, models = self.stack("sage", 30, 0.5, S=5, out=out)
        labels = np.zeros(30, dtype=np.int64) if out == 1 else g.labels
        if split == "sub-stacks":
            # the budget fits two models of h = 8, C = 4 on 30 rows: sub-stacks of 2, 2 and 1
            monkeypatch.setattr(eg.models, "_STACK_ENTRIES", 2 * 30 * (8 + 4) + 1)
        loss_mode = eg.BCE if out == 1 else eg.WEIGHTED_BCE
        cfg, seeds = eg.TrainConfig(epochs=6, loss_mode=loss_mode), [4, 0, 8, 2, 6]
        mask = np.arange(30) % 4 > 0

        def record(calls, epoch, s, loss, model):
            calls.append((epoch, s, loss, [ref.bits(a).tolist() for pair in model.layers for a in pair]))

        seen = []
        trained = eg.train(models, g, labels, mask, cfg, seeds, on_epoch=lambda *a: record(seen, *a))
        # once per (epoch, s), with s the index in the full list; a sub-stack runs all its epochs first
        stacks = {"one-stack": [range(5)], "sub-stacks": [range(2), range(2, 4), range(4, 5)],
                  "one-output-unit": [range(s, s + 1) for s in range(5)]}[split]
        assert [(e, s) for e, s, *_ in seen] == [(e, s) for st in stacks for e in range(1, 7) for s in st]
        X = eg.model_inputs(models[0], g)
        for s, (m, seed, got) in enumerate(zip(models, seeds, trained)):
            alone = []
            expected = ref.train(
                m, g, X, labels, mask, cfg, seed, on_epoch=lambda e, loss, mm: record(alone, e, s, loss, mm),
                dtype=np.float32,
            )
            assert [call for call in seen if call[1] == s] == alone
            TestReferenceOracle.assert_same_layers(got.layers, expected.layers)

    def test_diverging_model_raises_its_lone_error(self):
        g, models = self.stack("mlp", 12, 0.5)
        models[1].layers[0][0][0, 0] = 1e300
        models[1].layers[1][0][0, 0] = 1e300
        cfg = eg.TrainConfig(epochs=5)
        mask = np.ones(12, bool)
        with pytest.raises(ValidationError, match="^non-finite logits at epoch") as alone:
            eg.train(models[1:2], g, g.labels, mask, cfg, [1])
        with pytest.raises(ValidationError) as stacked:
            eg.train(models, g, g.labels, mask, cfg, range(3))
        assert str(stacked.value) == str(alone.value)
        # the other two train alone without error: the stack's error is model 1's
        for s in (0, 2):
            eg.train([models[s]], g, g.labels, mask, cfg, [s])

    def test_stack_leaves_inputs_untouched_and_returns_one_model_per_input(self):
        g, models = self.stack("sage", 12, 0.5)
        before = [m.copy() for m in models]
        out = eg.train(models, g, g.labels, np.ones(12, bool), eg.TrainConfig(epochs=2), range(3))
        assert len(out) == 3 and all(isinstance(m, eg.ModelState) for m in out)
        for m, b in zip(models, before):
            TestReferenceOracle.assert_same_layers(m.layers, b.layers)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("shapes-differ", "share kind, settings and shapes"),
            ("count-differs", "need one seed per model"),
        ],
    )
    def test_stack_misuse_raises(self, case, match):
        g, models = self.stack("mlp", 12, 0.5, S=2)
        seeds = [0, 1]
        if case == "shapes-differ":
            models[1] = eg.init_model("mlp", 5, 8, 3, seed=1)
        else:
            seeds = seeds[:1]
        with pytest.raises(ValidationError, match=match):
            eg.train(models, g, g.labels, np.ones(12, bool), eg.TrainConfig(epochs=2), seeds)


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

    # format-1 manifests as earlier versions wrote them for DIMS, seed=11; their extra keys
    # (hidden_dim, output_dim, rng_seed) must not hide the version from the message
    FORMAT1_MANIFESTS = {
        "sage": "format_version=1\nkind=sage\nhidden_dim=4\noutput_dim=4\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=2\nlayer0_shape=6,4\nlayer1_shape=8,4\n",
        "sgc": "format_version=1\nkind=sgc\nhidden_dim=0\noutput_dim=3\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=1\nlayer0_shape=4,3\n",
        "mlp": "format_version=1\nkind=mlp\nhidden_dim=8\noutput_dim=3\nsgc_k=2\n"
        "dropout_rate=0.5\nrng_seed=11\nnum_layers=2\nlayer0_shape=4,8\nlayer1_shape=8,3\n",
    }

    @pytest.mark.parametrize("kind", list(DIMS))
    def test_format1_checkpoint_is_refused(self, tmp_path, kind):
        eg.save_checkpoint(eg.init_model(kind, *self.DIMS[kind], seed=11), tmp_path)
        (tmp_path / "manifest").write_text(self.FORMAT1_MANIFESTS[kind])
        message = f"{tmp_path / 'manifest'}: unsupported format_version '1'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            eg.load_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "kind, edits, params_bytes, match",
        [
            pytest.param("sage", {}, -8, "params.bin holds 62 floats, expected 64", id="short"),
            pytest.param("sage", {}, 4, "params.bin holds 65 floats, expected 64", id="trailing"),
            # would load as a one-layer "mlp" that forward runs as a linear model
            pytest.param(
                "sgc", {"kind=sgc": "kind=mlp"}, 0,
                "manifest: num_layers=1, but a mlp model has 2", id="sgc-as-mlp",
            ),
            # as many floats as the 4 -> 8 -> 3 mlp, so params.bin's length passes
            pytest.param(
                "mlp", {"layer1_shape=8,3": "layer1_shape=26,1"}, 0,
                "manifest: layer1_shape=26,1, but a mlp model with hidden_dim=8 and output_dim=1 has 8,1",
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
        with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path / match))}$"):
            eg.load_checkpoint(tmp_path)

    # case -> (manifest key, its replacement line or None to drop it, expected message after
    # the manifest's path)
    BAD_MANIFESTS = {
        **{
            f"missing-{key}": (key, None, f": missing key '{key}'")
            for key in (
                "format_version", "kind", "sgc_k", "dropout_rate", "num_layers",
                "layer0_shape", "layer1_shape",
            )
        },
        "no-equals": ("sgc_k", "sgc_k 2", ":3: expected key=value, got 'sgc_k 2'"),
        "sgc_k=two": ("sgc_k", "sgc_k=two", ": bad value sgc_k='two'"),
        "dropout_rate=half": ("dropout_rate", "dropout_rate=half", ": bad value dropout_rate='half'"),
        "num_layers=two": ("num_layers", "num_layers=two", ": bad value num_layers='two'"),
        "num_layers=0": ("num_layers", "num_layers=0", ": bad value num_layers='0'"),
        "layer0_shape=6": ("layer0_shape", "layer0_shape=6", ": bad value layer0_shape='6'"),
        "layer0_shape=6,x": ("layer0_shape", "layer0_shape=6,x", ": bad value layer0_shape='6,x'"),
        "format_version=x": ("format_version", "format_version=x", ": bad value format_version='x'"),
        "format_version=1": (
            "format_version", "format_version=1", ": unsupported format_version '1'"
        ),
        "format_version=3": (
            "format_version", "format_version=3", ": unsupported format_version '3'"
        ),
        "kind=gat": ("kind", "kind=gat", ": unknown model kind 'gat'"),
        # the ranges ExperimentConfig applies
        "dropout_rate=1.5": ("dropout_rate", "dropout_rate=1.5", ": dropout_rate 1.5 outside [0, 1)"),
        "dropout_rate=nan": ("dropout_rate", "dropout_rate=nan", ": dropout_rate nan outside [0, 1)"),
        "dropout_rate=-0.1": ("dropout_rate", "dropout_rate=-0.1", ": dropout_rate -0.1 outside [0, 1)"),
        "sgc_k=-3": ("sgc_k", "sgc_k=-3", ": sgc_k must be >= 0, got -3"),
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
        with pytest.raises(ValidationError, match=f"^{re.escape(str(manifest) + match)}$"):
            eg.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_parameters_beyond_float32_raise_before_writing(self, tmp_path, layer):
        m = eg.init_model("mlp", 3, 4, 3, seed=4)
        m.layers[layer][1][0] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = f"^layer {layer} has parameters outside the float32 range"
            with pytest.raises(ValidationError, match=match):
                eg.save_checkpoint(m, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_parameters_raise_before_writing(self, tmp_path, bad):
        # the only parameters a trained model can hold that a checkpoint cannot
        m = eg.init_model("sage", 3, 4, 3, seed=4)
        m.layers[0][1][2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^layer 0 has parameters outside the float32 range"):
                eg.save_checkpoint(m, tmp_path / "c")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_trained_model_round_trips_losslessly(self, tmp_path, kind):
        g = small_graph(seed=3, n=12)
        m = eg.init_model(kind, 3, 4, 3, seed=4)
        (trained,) = eg.train([m], g, g.labels, np.ones(12, bool), eg.TrainConfig(epochs=5), [0])
        eg.save_checkpoint(trained, tmp_path)
        back = eg.load_checkpoint(tmp_path)
        TestReferenceOracle.assert_same_layers(back.layers, trained.layers)
        assert np.array_equal(ref.bits(eg.forward(back, g)), ref.bits(eg.forward(trained, g)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_parameters_do_not_load(self, tmp_path, bad):
        eg.save_checkpoint(eg.init_model("mlp", 3, 4, 3, seed=4), tmp_path)
        params = np.frombuffer((tmp_path / "params.bin").read_bytes(), "<f4").copy()
        params[3 * 4 + 4 + 2] = bad  # the second entry of layer 1's weights
        (tmp_path / "params.bin").write_bytes(params.tobytes())
        message = f"{tmp_path / 'params.bin'}: layer 1 holds non-finite parameters"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
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
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode)

        def recorder(out):
            return lambda epoch, loss, model: out.append(
                (epoch, loss, [ref.bits(a).tolist() for pair in model.layers for a in pair])
            )

        seen, expected_seen = [], []
        record = recorder(seen)

        def on_epoch(epoch, s, loss, model):
            assert s == 0
            record(epoch, loss, model)

        (trained,) = eg.train([m], g, g.labels, mask, cfg, [6], on_epoch=on_epoch)
        expected = ref.train(m, g, X, g.labels, mask, cfg, 6, on_epoch=recorder(expected_seen), dtype=np.float32)
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
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode)
        expected = ref.train(m, g, eg.model_inputs(m, g), g.labels, mask, cfg, 6, dtype=np.float32)
        (trained,) = eg.train([m], g, g.labels, mask, cfg, [6])
        self.assert_same_layers(trained.layers, expected.layers)

    @pytest.mark.parametrize("kind", ["mlp", "sgc", "sage"])
    @pytest.mark.parametrize("loss_mode", [eg.CATEGORICAL, eg.BCE, eg.WEIGHTED_BCE])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_forward_and_loss_and_grad_equal_reference(self, kind, loss_mode, full_mask, dropout):
        g, m, mask = self.grid_point(kind, full_mask, dropout)
        # a trained model, so that dead relu units and nonzero biases occur
        cfg = eg.TrainConfig(learning_rate=0.05, epochs=15, loss_mode=loss_mode)
        (m,) = eg.train([m], g, g.labels, mask, cfg, [6])
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
    """The order of ``models`` against the one before the bias fold (``folded=False``), in float64.

    The bound is stated for float64 arithmetic, so the trained weights compare the folded
    reference, which ``train`` equals bit for bit in float32 (``TestReferenceOracle``), in
    float64; one pass compares ``forward`` and ``loss_and_grad``, which run in float64.
    """

    GRAPHS = {
        "isolated-vertex": TestReferenceOracle.graph_with_isolated_vertex,
        "dense": lambda: small_graph(seed=11, n=40, dim=5, num_classes=4),
        "synth": lambda: eg.generate(
            eg.SynthConfig(num_timestamps=4, vertices_per_timestamp=30, feature_dim=5, seed=3)
        ),
    }

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize(
        "kind, dropout",
        [("sage", 0.0), ("sage", 0.5), ("sage", 0.3), ("mlp", 0.0), ("mlp", 0.5), ("mlp", 0.3), ("sgc", 0.0)],
    )
    def test_within_bound_of_unfolded_order(self, graph, loss_mode, kind, dropout):
        g = self.GRAPHS[graph]()
        mask = np.arange(g.num_vertices) % 5 > 0
        m = eg.init_model(kind, 5, 32, 4, seed=3, dropout_rate=dropout)
        X = eg.model_inputs(m, g)
        cfg = eg.TrainConfig(learning_rate=0.02, epochs=200, loss_mode=loss_mode)
        trained = ref.train(m, g, X, g.labels, mask, cfg, 6, dtype=np.float64)
        oracle = ref.train(m, g, X, g.labels, mask, cfg, 6, folded=False, dtype=np.float64)
        for got, want in zip(trained.layers, oracle.layers):
            for a, b in zip(got, want):
                assert ref.rel_dev(a, b) <= ref.TRAINED_RTOL
        # one pass of a briefly trained model: dead relu units and nonzero biases occur, and
        # its gradients are not yet the near-cancelling sums of a converged one
        (m,) = eg.train([m], g, g.labels, mask, replace(cfg, epochs=15), [6])
        H_in, prop = ref._graph_inputs(m, g, X)
        logits, cache = ref._forward_cached(m, H_in, prop, None, folded=False)
        assert ref.rel_dev(eg.forward(m, g), logits) <= ref.PASS_RTOL
        weights = eg.class_weights(g.labels, mask, 4) if loss_mode == eg.WEIGHTED_BCE else None
        targets = ref._loss_targets(g.labels, mask, 4, loss_mode, weights)
        loss, dlogits = ref._loss_kernel(logits, targets, loss_mode, folded=False)
        got_loss, got_grads = eg.loss_and_grad(m, g, g.labels, mask, loss_mode)
        assert ref.rel_dev(got_loss, loss) <= ref.PASS_RTOL
        for got, want in zip(got_grads, ref._backward(m, cache, dlogits)):
            for a, b in zip(got, want):
                assert ref.rel_dev(a, b) <= ref.PASS_RTOL


class TestPrecisionOracle:
    """float32 ``train`` against the float64 reference over a few epochs, within a stated bound.

    ``train``'s epochs run in float32 and equal the float32 reference bit for bit
    (``TestReferenceOracle``); this bounds what float32 costs against float64
    arithmetic.  Per array, max|got - oracle| / max|oracle| after ``EPOCHS`` epochs
    stays within ``TRAINED_RTOL``, and every epoch's loss value within ``LOSS_RTOL``
    relative.  On this grid the loss values measured up to 3.7e-7 and most arrays deviate
    by float32's rounding, about 1e-6.  The largest deviation, 1.1e-4 (sage, weighted-bce,
    "dense", a layer-0 weight, there from the first step on), comes from Adam: its first
    step is ``lr * g / (|g| + eps)``, and a gradient component of about ``eps = 1e-8``
    that float32 rounds by a few percent moves by a few thousandths of ``lr`` more or
    less.  Over hundreds of epochs such differences grow as any perturbation of a
    training run does (up to 2e-2 after 100-200 epochs at width 32), so the bound holds
    for a few epochs only.
    """

    EPOCHS = 10
    TRAINED_RTOL = 1e-3
    LOSS_RTOL = 1e-5

    @pytest.mark.parametrize("graph", sorted(TestOrderOracle.GRAPHS))
    @pytest.mark.parametrize("loss_mode", eg.models.LOSS_MODES)
    @pytest.mark.parametrize("kind", eg.models.MODEL_KINDS)
    def test_float32_train_within_bound_of_float64_reference(self, graph, loss_mode, kind):
        g = TestOrderOracle.GRAPHS[graph]()
        mask = np.arange(g.num_vertices) % 5 > 0
        m = eg.init_model(kind, 5, 32, 4, seed=3, dropout_rate=0.0 if kind == "sgc" else 0.5)
        cfg = eg.TrainConfig(learning_rate=0.02, epochs=self.EPOCHS, loss_mode=loss_mode)
        losses, oracle_losses = [], []
        (trained,) = eg.train([m], g, g.labels, mask, cfg, [6], on_epoch=lambda e, s, loss, _: losses.append(loss))
        oracle = ref.train(
            m, g, eg.model_inputs(m, g), g.labels, mask, cfg, 6,
            on_epoch=lambda e, loss, _: oracle_losses.append(loss), dtype=np.float64,
        )
        for got, want in zip(trained.layers, oracle.layers):
            for a, b in zip(got, want):
                assert ref.rel_dev(a, b) <= self.TRAINED_RTOL
        assert np.allclose(losses, oracle_losses, rtol=self.LOSS_RTOL, atol=0.0)


def _model_and_graph(bad=None):
    """A 3-class mlp on ``small_graph``; ``bad`` is written into its first weight."""
    g = small_graph()
    model = eg.init_model("mlp", g.feature_dim, 4, 3, seed=0)
    if bad is not None:
        model.layers[0][0][0, 0] = bad
    return model, g


def _loss_and_grad(loss_mode, bad=None):
    model, g = _model_and_graph(bad)
    return eg.loss_and_grad(model, g, g.labels, np.ones(g.num_vertices, bool), loss_mode)


# call, exception class, whole message
ARGUMENT_ERRORS = {
    "glorot-fan-in": (lambda: eg.models.glorot_init(0, 3, 0), ValidationError, "fan_in and fan_out must be >= 1"),
    "model-kind": (lambda: eg.init_model("gat", 3, 4, 3), ValidationError, "unknown model kind 'gat'"),
    # the ranges a checkpoint of the model must hold to load back
    "dropout-above-one": (lambda: eg.init_model("mlp", 8, 4, 4, dropout_rate=1.5),
                          ValidationError, "dropout_rate 1.5 outside [0, 1)"),
    "dropout-negative": (lambda: eg.init_model("mlp", 8, 4, 4, dropout_rate=-0.5),
                         ValidationError, "dropout_rate -0.5 outside [0, 1)"),
    "sgc-k-negative": (lambda: eg.init_model("sgc", 3, 4, 3, sgc_k=-1),
                       ValidationError, "sgc_k must be >= 0, got -1"),
    "sgc-power": (lambda: eg.sgc_precompute(small_graph(), -1), ValidationError, "propagation power K must be >= 0"),
    "loss-mode": (lambda: _loss_and_grad("hinge"), ValidationError, "unknown loss_mode 'hinge'"),
    "non-finite-logits": (lambda: _loss_and_grad(eg.CATEGORICAL, bad=np.inf), ValidationError, "non-finite logits"),
    "labels-length": (lambda: eg.train([_model_and_graph()[0]], small_graph(), small_graph().labels[:5],
                                       np.ones(6, bool), eg.TrainConfig(), [0]),
                      ValidationError, "labels of shape (5,) for 6 logit rows"),
    "expand-negative": (lambda: eg.expand_output_layer(_model_and_graph()[0], -1, 0),
                        ValidationError, "cannot expand by a negative count"),
    # numpy's generators take no negative seed
    "glorot-negative-seed": (lambda: eg.models.glorot_init(2, 3, -1), ValidationError, "seed must be >= 0, got -1"),
    "init-negative-seed": (lambda: eg.init_model("mlp", 3, 4, 3, seed=-1), ValidationError, "seed must be >= 0, got -1"),
    "expand-negative-seed": (lambda: eg.expand_output_layer(_model_and_graph()[0], 1, -1),
                             ValidationError, "seed must be >= 0, got -1"),
    "train-negative-seed": (lambda: eg.train([_model_and_graph()[0]], small_graph(), small_graph().labels,
                                             np.ones(6, bool), eg.TrainConfig(), seeds=[-1]),
                            ValidationError, "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_bad_argument_raises(case):
    raises_exactly(*ARGUMENT_ERRORS[case])
