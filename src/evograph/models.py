"""Dense graph models with hand-written gradients: MLP, SGC, GraphSAGE-mean.

Models hold float64 parameters; :func:`train`'s epochs run in float32.  One
flat layout (per layer, the weights row-major, then the bias) serves
:func:`train`'s parameter buffer and checkpoints, which store it as 32-bit
little-endian floats under a manifest of the kind, its settings and the
layer shapes (see :func:`save_checkpoint`).  Models are values:
every public update (:func:`train`, :func:`expand_output_layer`) returns a
new :class:`ModelState` and never mutates its input.  :func:`train` is the
one training loop, for a stack of S models (S >= 1) of one shape that share
a graph, labels, mask and one :class:`TrainConfig`, each with its own
dropout seed (the seeds of one experiment): one epoch pass trains them all,
and each model gets the bits it gets when trained alone.  A stack allocates
one epoch workspace and one Adam state array, and every epoch writes into
them in place: the parameter buffer, one flat row per model (the working
models' layers, which ``on_epoch`` receives one by one, are views into it),
the gradient rows, the hidden layer, the dropout mask, the loss kernel's
buffers and, for sage, ``H @ W_n`` and the sparse products' output on the
output columns, all float32, as are the Adam state, the cached layer-0
input and ``P`` it reads: no pass of an epoch runs in float64.
Each model's dropout mask is read straight off its generator's raw 64-bit
PCG64 words, as little-endian 16-bit lanes in row-major ``(n, h)`` order: a
unit is kept iff its lane is >= ``round(rate * 2**16)``, so with
probability exactly ``1 - rate`` at rate 0.5 and within ``2**-17`` of it at
any other rate.  ``train`` returns the trained
parameters cast back to float64, exactly, so a trained model is
float32-exact and its checkpoint round-trips it without loss.  Mixed
precision in this sense (Micikevicius et al., *Mixed Precision Training*,
ICLR 2018) keeps float64 where precision is checked: :func:`forward`, which
scores, and :func:`loss_and_grad`, which the finite-difference checks use,
run the same passes in float64.  The hidden buffers are ``(S, n, h)``; the
logits and the other output-column buffers are ``(n, S, C)``, so each
sparse product runs once for the stack.  Each runs scipy's own kernel, the
one ``P @ X`` calls (``csr_matvecs`` on ``P``, ``csc_matvecs`` on its CSC
view ``P.T``), into one ``(n, S, C)`` buffer zeroed before each call, which
the forward's ``P @ (H @ W_n)`` and then the backward's ``P.T @ dZ`` share:
the kernel adds each entry's product into its output row, so from the same
zeros on the same arrays every sum is the operator's, bit for bit, without
the operator's fresh result array.  Biases ride in the BLAS products:
layer 0's input carries a ones column, so ``[X | 1] @ [W0; b0]`` and its
transpose product give layer 0's output and both its gradients, and the
last layer's bias gradient is ``ones(n) @ dZ``.  Dropout and the loss
gradient multiply by precomputed scales.  The backward pass masks the
hidden gradient wherever the activation is positive: after relu and
inverted dropout, that is exactly where the pre-activation was positive and
the mask kept the unit.  The loss *value*, one per model, is computed only
where it is read: with ``on_epoch``, and in :func:`loss_and_grad` and
:func:`loss_from_logits`.
Dropout fires only inside ``train``, with masks drawn from a generator per
model seeded by its entry of ``seeds``.  :func:`loss_and_grad` runs the same
workspace passes without one, so it is deterministic; :func:`forward` runs
the same forward pass with only its own buffers (hidden layer, logits and
sage's ``H @ W_n``) over a flat copy of the model.  All three take the graph,
not its features: layer 0's input (:func:`model_inputs`, for sage
``[X | P X]``, then the ones column) and ``P`` are built once per graph
object, model kind and dtype and cached on the graph, read-only.
Weighted-bce's class weights are not passed: they are
:func:`evograph.openworld.class_weights` of the masked labels.

Layer conventions
-----------------
* mlp : X -> linear(D, h) -> relu -> dropout -> linear(h, C)
* sgc : Xhat -> linear(D, C), where Xhat is the precomputed S^K X
  (see :func:`sgc_precompute`); the model itself ignores the graph.
* sage: each layer concatenates a vertex's representation with the mean of
  its neighbors' (zero vector for isolated vertices), so layer i maps
  2 * d_in -> d_out; relu + dropout after the hidden layer only.  Layer 0's
  input ``[X | P X]`` is built once per graph.  Layer 1 never builds
  ``[H | P H]``: with its weights split by rows into the self half ``W_s``
  and the neighbor half ``W_n``, it computes ``H @ W_s + P @ (H @ W_n) + b``,
  so its sparse products, forward and backward, run on the C output columns
  instead of the h hidden ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .dataio import read_bytes, read_key_values, read_text
from .errors import ValidationError
from .graph import TemporalGraph
from .openworld import _exp_neg_abs, _sigmoid, class_weights as _class_weights

CATEGORICAL = "categorical"
BCE = "bce"
WEIGHTED_BCE = "weighted-bce"
LOSS_MODES = (CATEGORICAL, BCE, WEIGHTED_BCE)

MODEL_KINDS = ("mlp", "sgc", "sage")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# train's stack budget: on an n-row window, an epoch's buffers are a dozen or so
# arrays of n * h or n * C entries per model, so this bounds them near 100 MB
_STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    loss_mode: str = CATEGORICAL

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError("learning_rate must be finite and > 0")
        if not 0 <= self.weight_decay < np.inf:
            raise ValidationError("weight_decay must be finite and >= 0")
        if self.loss_mode not in LOSS_MODES:
            raise ValidationError(f"unknown loss_mode {self.loss_mode!r}")


@dataclass
class ModelState:
    """Layered dense parameters; layers are (weights, bias) pairs."""

    kind: str
    layers: list[tuple[np.ndarray, np.ndarray]]
    sgc_k: int
    dropout_rate: float

    @property
    def input_dim(self) -> int:
        w0 = self.layers[0][0]
        return w0.shape[0] // 2 if self.kind == "sage" else w0.shape[0]

    @property
    def hidden_dim(self) -> int:
        return 0 if self.kind == "sgc" else self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[1]

    def copy(self) -> "ModelState":
        return replace(self, layers=[(w.copy(), b.copy()) for w, b in self.layers])


def _check_seed(seed: int) -> None:
    """A seed is a non-negative integer, as numpy's generators take it."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def check_model_settings(sgc_k: int, dropout_rate: float) -> None:
    """The ranges of a model's settings, for a config and a checkpoint alike."""
    if sgc_k < 0:
        raise ValidationError(f"sgc_k must be >= 0, got {sgc_k}")
    if not 0 <= dropout_rate < 1:
        raise ValidationError(f"dropout_rate {dropout_rate} outside [0, 1)")


def glorot_init(fan_in: int, fan_out: int, seed: int) -> np.ndarray:
    """Uniform Glorot matrix in [-sqrt(6/(fan_in+fan_out)), +...], seeded."""
    if fan_in < 1 or fan_out < 1:
        raise ValidationError("fan_in and fan_out must be >= 1")
    _check_seed(seed)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _layer_shapes(kind: str, input_dim: int, hidden_dim: int, output_dim: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) per layer of a ``kind`` model; sgc has no hidden layer."""
    if kind == "mlp":
        return [(input_dim, hidden_dim), (hidden_dim, output_dim)]
    if kind == "sage":
        return [(2 * input_dim, hidden_dim), (2 * hidden_dim, output_dim)]
    return [(input_dim, output_dim)]


def init_model(
    kind: str,
    input_dim: int,
    hidden_dim: int,
    output_dim: int,
    *,
    sgc_k: int = 2,
    dropout_rate: float = 0.5,
    seed: int = 0,
) -> ModelState:
    """Fresh Glorot-initialized model; biases start at zero."""
    if kind not in MODEL_KINDS:
        raise ValidationError(f"unknown model kind {kind!r}")
    check_model_settings(sgc_k, dropout_rate)
    _check_seed(seed)
    shapes = _layer_shapes(kind, input_dim, hidden_dim, output_dim)
    layer_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(shapes))
    layers = [
        (glorot_init(fi, fo, int(s)), np.zeros(fo, dtype=np.float64))
        for (fi, fo), s in zip(shapes, layer_seeds)
    ]
    return ModelState(kind=kind, layers=layers, sgc_k=sgc_k, dropout_rate=dropout_rate)


def mean_propagation(g: TemporalGraph) -> sp.csr_matrix:
    """Row-normalized adjacency D^-1 A; rows of isolated vertices are zero."""
    adj = g.adjacency()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return sp.diags(inv) @ adj


def sgc_precompute(g: TemporalGraph, K: int) -> np.ndarray:
    """Propagated features S^K X with S = D~^-1/2 (A + I) D~^-1/2."""
    if K < 0:
        raise ValidationError("propagation power K must be >= 0")
    X = np.asarray(g.features, dtype=np.float64)
    if K == 0:
        return X.copy()
    adj = g.adjacency() + sp.identity(g.num_vertices, format="csr")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    S = sp.diags(inv_sqrt) @ adj @ sp.diags(inv_sqrt)
    for _ in range(K):
        X = S @ X
    return X


def model_inputs(model: ModelState, g: TemporalGraph) -> np.ndarray:
    """The feature matrix this model kind consumes for graph ``g``."""
    if model.kind == "sgc":
        return sgc_precompute(g, model.sgc_k)
    return np.asarray(g.features, dtype=np.float64)


def _graph_inputs(model: ModelState, g: TemporalGraph, dtype):
    """Layer 0's input and the propagation pair for ``model`` on ``g`` in ``dtype``, cached on ``g``.

    For sage the input is ``[X | P X | 1]`` and the pair ``(P, P.T)``, with
    ``X`` from :func:`model_inputs` and ``P`` from :func:`mean_propagation`;
    the other kinds take ``[X | 1]`` and no pair.  The input is read-only.
    Both are built in float64; another dtype's entry is that one, cast once.
    """
    if g.feature_dim != model.input_dim:
        raise ValidationError(
            f"feature width {g.feature_dim} does not match layer-0 input {model.input_dim}"
        )
    key = (model.kind, model.sgc_k, np.dtype(dtype))
    if key not in g._model_inputs:
        if key[2] != np.float64:
            H_in, prop = _graph_inputs(model, g, np.float64)
            H_in = H_in.astype(dtype)
            if prop is not None:
                P = prop[0].astype(dtype)
                prop = (P, P.T)
        else:
            X, prop = model_inputs(model, g), None
            if model.kind == "sage":
                P = mean_propagation(g)
                X, prop = np.hstack([X, P @ X]), (P, P.T)
            H_in = np.hstack([X, np.ones((len(X), 1))])
        H_in.flags.writeable = False
        g._model_inputs[key] = (H_in, prop)
    return g._model_inputs[key]


def _sparse_product(kernel, A, X, out) -> np.ndarray:
    """``A @ X`` written into ``out``, zeroed first, for C-contiguous ``(n, S, C)`` ``X`` and ``out``.

    ``kernel`` is scipy's ``csr_matvecs`` for ``A = P`` or ``csc_matvecs``
    for its CSC view ``P.T``: the kernel ``A @ X`` runs on ``(n, S * C)``.
    At ``S * C = 1`` the operator runs ``csr_matvec`` or ``csc_matvec``
    instead, whose sums run in the same order.
    """
    out.fill(0.0)
    kernel(*A.shape, X.shape[1] * X.shape[2], A.indptr, A.indices, A.data, X, out)
    return out


def _flat(layers, dtype=np.float64) -> np.ndarray:
    """The parameters as one ``dtype`` vector: per layer, the weights row-major, then the bias."""
    return np.concatenate([a.ravel() for pair in layers for a in pair], dtype=dtype)


def _views(flat: np.ndarray, shapes) -> list:
    """Per-layer ``(weights, bias)`` views into a :func:`_flat` vector of ``(fan_in, fan_out)`` shapes.

    ``flat`` may be a stack of such vectors, one per row; each view then
    keeps that leading axis: ``(S, fan_in, fan_out)`` and ``(S, fan_out)``.
    """
    lead, out, offset = flat.shape[:-1], [], 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        out.append((flat[..., offset:end].reshape(*lead, fan_in, fan_out), flat[..., end : end + fan_out]))
        offset = end + fan_out
    return out


def _layer0(flat: np.ndarray, fan_in: int, fan_out: int) -> np.ndarray:
    """Layer 0's ``[W0; b0]`` in a stack of :func:`_flat` rows, as one ``(S, fan_in + 1, fan_out)`` view."""
    return flat[:, : (fan_in + 1) * fan_out].reshape(len(flat), fan_in + 1, fan_out)


class _Forward:
    """The buffers of the forward pass of S models of one shape on one graph.

    ``flat`` holds one :func:`_flat` row per model (by default a float64
    copy of the one model's, S = 1), and its dtype is the pass's: the
    buffers and the cached graph inputs take it.  ``layers`` are stacked
    views ``(W, b)`` into it, ``(S, fan_in, fan_out)`` and ``(S,
    fan_out)``, and ``Wb0`` is layer 0's
    ``[W0; b0]``, ``(S, fan_in + 1, fan_out)``, which multiplies the cached
    ``[X | 1]``.  The buffers are the hidden layer ``H``, ``(S, n, h)`` (the
    pre-activation, then in place the activation), the logits and, for
    sage, ``HWn = H @ W_n`` and ``PX = P @ HWn``, all ``(n, S, C)``: the
    models' output columns side by side, so that each sparse product runs
    once on ``(n, S * C)``.
    ``H1`` is the input of the last layer's self half ``W_s = W[:d]``: ``H``
    (mlp, sage), then plus the bias ``b``, or layer 0's input for sgc, which
    has no hidden layer and whose ``W`` is ``Wb0``.
    sage adds the neighbor half as ``P @ (H @ W_n)``, with ``W_n = W[d:]``.
    Each product on the stack is one broadcast ``np.matmul`` that makes,
    per model, the BLAS call of a lone model, so each model gets the bits it
    would get alone.  Every view an epoch needs (the halves, the bias rows,
    the model-major views of the ``(n, S, C)`` buffers) is made here once,
    and the pass reads ``flat`` as it is.
    """

    def __init__(self, model: ModelState, g: TemporalGraph, flat=None):
        self.model = model
        shapes = [w.shape for w, _ in model.layers]
        flat = _flat(model.layers)[None] if flat is None else flat
        self.layers, self.Wb0 = _views(flat, shapes), _layer0(flat, *shapes[0])
        self.H_in, self.prop = _graph_inputs(model, g, flat.dtype)
        n, S = self.H_in.shape[0], len(flat)
        self.logits = np.empty((n, S, model.output_dim), flat.dtype)
        W, self.b = (self.Wb0, None) if model.kind == "sgc" else self.layers[-1]
        self.H1 = self.H_in
        if model.kind != "sgc":
            self.H = self.H1 = np.empty((S, n, model.hidden_dim), flat.dtype)
        d = self.H1.shape[-1]
        self.W_s, self.W_n = W[:, :d], W[:, d:]
        self.logits_by_model = self.logits.transpose(1, 0, 2)
        if self.prop is not None:
            self.HWn, self.PX = np.empty_like(self.logits), np.empty_like(self.logits)
            self.HWn_by_model, self.PX_by_model = self.HWn.transpose(1, 0, 2), self.PX.transpose(1, 0, 2)

    def forward(self, rngs=None) -> np.ndarray:
        """The stack's logits; model s draws its dropout masks from ``rngs[s]``, none if ``rngs`` is None."""
        self.dropped = rngs is not None
        if len(self.layers) > 1:
            H = self.H
            np.matmul(self.H_in, self.Wb0, out=H)
            np.maximum(H, 0.0, out=H)
            if self.dropped:
                for rng, row in zip(rngs, self.drop.reshape(len(rngs), -1)):
                    lanes = rng.bit_generator.random_raw(-(-row.size // 4)).astype("<u8", copy=False).view("<u2")
                    np.greater_equal(lanes[: row.size], self.cut, out=row)
                H *= self.drop
                H *= self.scale
        np.matmul(self.H1, self.W_s, out=self.logits_by_model)
        if self.prop is not None:
            np.matmul(self.H1, self.W_n, out=self.HWn_by_model)
            self.logits += _sparse_product(_sparsetools.csr_matvecs, self.prop[0], self.HWn, self.PX)
        if self.b is not None:
            self.logits += self.b
        return self.logits


class _Workspace(_Forward):
    """A forward pass over a flat ``dtype`` copy of S models' parameters, plus its backward pass.

    ``params`` holds one :func:`_flat` row per model, ``grads`` the matching
    gradient rows, which the backward pass fills; ``layers`` and
    ``grad_layers`` are stacked views into them, and ``models`` holds each
    model as a copy whose layers are views into its row.  The models share
    kind, settings and shapes.
    The bias gradients come out of BLAS products: ``[X | 1].T @ dH`` fills
    ``gWb0``, layer 0's ``[gW0; gb0]``, and mlp's and sage's ``gb`` is
    ``ones(n) @ dZ``.
    For sage the backward pass takes ``Q = P.T @ dZ`` on the output columns;
    layer 1's gradient is ``H.T @ dZ`` over ``H.T @ Q`` by rows, and
    ``dH = dZ @ W_s.T + Q @ W_n.T``.  Both sparse products run scipy's
    kernels into ``PX``, ``(n, S, C)`` and zeroed before each call: the
    forward's ``P @ (H @ W_n)`` with ``csr_matvecs`` on ``P``, then, once
    the forward has added it to the logits, ``Q`` with ``csc_matvecs`` on
    the CSC view ``P.T``.  ``P @ X`` runs the same kernel on the same arrays
    into a zeroed result, so the sums are the operator's, bit for bit.
    The backward mask is ``H > 0``: ``H`` is ``relu(pre) * drop * scale``
    with ``scale = 1 / (1 - rate) >= 1``, so it is positive exactly where
    ``pre`` is and the mask kept the unit.  Each epoch, model s's generator
    gives ``ceil(n * h / 4)`` raw 64-bit words, read as little-endian
    16-bit lanes; the first ``n * h`` of them, row-major, are compared with
    ``cut = round(rate * 2**16)`` into its slice of ``drop``.
    The masks thus do not depend on the dtype, and the lanes are the one
    transient buffer, ``2 * n * h`` bytes per model.  A rate above ``1 -
    2**-17`` gives ``cut = 65536``, which no lane reaches.  ``drop`` takes
    the mask as 0.0/1.0 floats: a float multiply is about three times
    cheaper than a boolean one.
    The loss kernel writes the gradient into ``dlogits``, ``exp(-|z|)``
    (bce) or the shifted logits (categorical) into ``work``, and the
    categorical row max and row sums into ``rows``.  ``gb`` reads ``dZ_rows``,
    ``dZ`` copied model-major into ``work``: at two or three output units a
    strided ``(n, S, C)`` view gives other bits than a lone model's rows.
    """

    def __init__(self, models: list, g: TemporalGraph, dtype):
        model = models[0]
        shapes = [w.shape for w, _ in model.layers]
        self.params = np.stack([_flat(m.layers, dtype) for m in models])
        super().__init__(model, g, self.params)
        self.models = [replace(m, layers=_views(row, shapes)) for m, row in zip(models, self.params)]
        self.grads = np.empty_like(self.params)
        self.grad_layers, self.gWb0 = _views(self.grads, shapes), _layer0(self.grads, *shapes[0])
        self.dlogits = np.zeros_like(self.logits)  # rows outside a train mask stay zero
        self.work = np.empty_like(self.logits)
        self.rows = np.empty((2, self.logits.shape[0] * self.logits.shape[1]), dtype)
        gW, self.gb = (self.gWb0, None) if model.kind == "sgc" else self.grad_layers[-1]
        d = self.H1.shape[-1]
        self.gW_s, self.gW_n, self.H1_T = gW[:, :d], gW[:, d:], self.H1.swapaxes(-1, -2)
        if model.kind != "sgc":
            self.drop, self.dH = np.empty_like(self.H), np.empty_like(self.H)
            self.cut = round(model.dropout_rate * 2**16)
            self.ones, self.scale = np.ones(len(self.H_in), dtype), 1.0 / (1.0 - model.dropout_rate)
            self.W_s_T, self.W_n_T = self.W_s.swapaxes(1, 2), self.W_n.swapaxes(1, 2)
            self.dZ_rows = self.work.reshape(self.logits_by_model.shape)

    def backward(self, targets: _Targets, loss_mode: str, want_loss: bool) -> Optional[list]:
        """Fill ``grads`` for the last forward pass; the per-model losses if ``want_loss``, else None."""
        losses, dZ = _loss_kernel(
            self.logits, targets, loss_mode, want_loss, self.dlogits, self.work, self.rows
        )
        dZ_by_model = dZ.transpose(1, 0, 2)
        np.matmul(self.H1_T, dZ_by_model, out=self.gW_s)
        if self.prop is not None:
            # PX is free once the forward pass has added it: it takes Q = P.T @ dZ
            _sparse_product(_sparsetools.csc_matvecs, self.prop[1], dZ, self.PX)
            Q_by_model = self.PX_by_model
            np.matmul(self.H1_T, Q_by_model, out=self.gW_n)
        if len(self.layers) == 1:
            return losses
        np.copyto(self.dZ_rows, dZ_by_model)
        np.matmul(self.ones, self.dZ_rows, out=self.gb)
        dH = self.dH
        np.matmul(dZ_by_model, self.W_s_T, out=dH)
        if self.prop is not None:
            # drop is free until it takes the mask below
            dH += np.matmul(Q_by_model, self.W_n_T, out=self.drop)
        dH *= np.greater(self.H, 0.0, out=self.drop)
        if self.dropped:
            dH *= self.scale
        np.matmul(self.H_in.T, dH, out=self.gWb0)
        return losses


def forward(model: ModelState, g: TemporalGraph) -> np.ndarray:
    """Logits per vertex (rows) and output unit (columns), without dropout."""
    return _Forward(model, g).forward()[:, 0]


class _Targets(NamedTuple):
    """Validated loss inputs that stay fixed while a model trains."""

    idx: Optional[np.ndarray]  # masked rows; None when the mask covers every row
    onehot: np.ndarray  # (masked rows, S, C), their output units
    weights: Optional[np.ndarray]  # per-unit weights, weighted-bce only
    # the gradient's factor: weights / (n * C) per unit, as (masked rows, S, C); 1 / (n * C) or 1 / n
    # (categorical), 0-d
    scale: np.ndarray


def _loss_targets(labels, train_mask, logits, loss_mode) -> _Targets:
    """Checked targets for ``(n, S, C)`` logits, in the logits' dtype.

    ``onehot`` and a per-unit ``scale`` (weighted-bce) are materialized in the
    gradient's shape, ``(masked rows, S, C)``, once: numpy subtracts or
    multiplies a broadcast operand through a copy of it into an iteration
    buffer, on every call.  Scalar scales stay 0-d.
    """
    num_rows, num_units = logits.shape[0], logits.shape[-1]
    labels = np.asarray(labels)
    if labels.shape != (num_rows,):
        raise ValidationError(f"labels of shape {labels.shape} for {num_rows} logit rows")
    mask = np.asarray(train_mask, dtype=bool)
    if mask.shape != (num_rows,):
        raise ValidationError(f"train mask of shape {mask.shape} for {num_rows} logit rows")
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValidationError("empty train mask")
    y = labels[idx]
    if np.any(y < 0) or np.any(y >= num_units):
        raise ValidationError("labels on masked rows must be valid output units")
    if loss_mode not in LOSS_MODES:
        raise ValidationError(f"unknown loss_mode {loss_mode!r}")
    weights = _class_weights(labels, mask, num_units) if loss_mode == WEIGHTED_BCE else None
    onehot = np.zeros((idx.size,) + logits.shape[1:], dtype=logits.dtype)
    onehot[np.arange(idx.size), ..., y] = 1.0
    count = idx.size if loss_mode == CATEGORICAL else idx.size * num_units
    scale = (1.0 if weights is None else weights) / count
    if weights is not None:
        weights = weights.astype(logits.dtype)
    scale = np.asarray(scale, dtype=logits.dtype)
    if scale.ndim:
        scale = np.broadcast_to(scale, onehot.shape).copy()
    return _Targets(None if idx.size == num_rows else idx, onehot, weights, scale)


def _mean(terms, count: int, weights=None) -> float:
    """``sum(terms * weights) / count`` (no weights: 1), finite wherever that mean is.

    The terms are finite and >= 0, yet their weighted products or their sum
    can overflow where the mean does not.  Only then is each term divided by
    ``count`` first, which may change the value's last bits.
    """
    with np.errstate(over="ignore"):
        loss = float((terms if weights is None else terms * weights).sum() / count)
        if loss == np.inf:
            terms = terms / count
            loss = float((terms if weights is None else terms * weights).sum())
    return loss


def _loss_kernel(logits, targets: _Targets, loss_mode: str, want_loss: bool, dlogits, work, rows):
    """The per-model loss values (None unless ``want_loss``) and d(loss)/d(logits).

    ``logits`` are ``(n, S, C)``, one ``(n, C)`` column block per model, and
    ``targets`` validated.  Each model's loss value is summed over its own
    block, copied out, as a lone model's is.  The gradient is written into
    ``dlogits``, which is returned: all of it under a full mask, else its
    masked rows (zeros outside them), computed in the gathered rows' copy.
    ``work``, of the logits' shape, takes ``exp(-|z|)`` (bce) or the shifted
    logits (categorical); ``rows``, ``(2, n * S)``, takes the categorical row
    max and row sums.
    """
    idx, onehot, weights, scale = targets
    n, S, C = onehot.shape
    Z, grad = (logits, dlogits) if idx is None else (logits[idx],) * 2
    work = work[:n]
    models = range(S)
    losses = None
    if loss_mode == CATEGORICAL:
        # row by row on the (rows * S, C) view, whose row i * S + s is row i of model s
        Z_rows = Z.reshape(-1, C)
        top, total = rows[0, : len(Z_rows)], rows[1, : len(Z_rows), None]
        # the row max, one column at a time: much cheaper than max(axis=1) on narrow rows
        np.copyto(top, Z_rows[:, 0])
        for j in range(1, C):
            np.maximum(top, Z_rows[:, j], out=top)
        shifted = np.subtract(Z_rows, top[:, None], out=work.reshape(-1, C))
        exps = np.exp(shifted, out=grad.reshape(-1, C))
        np.sum(exps, axis=1, keepdims=True, out=total)
        if want_loss:  # the label's shift picked, not multiplied out: another unit's may be -inf
            picked = np.where(onehot, shifted.reshape(n, S, C), 0.0).sum(axis=2)
            losses = [_mean(np.log(total[s::S, 0]) - picked[:, s], n) for s in models]
        exps /= total
    else:
        # stable elementwise: max(z,0) - z*y + log1p(exp(-|z|)), taken before the sigmoid spends e
        e = _exp_neg_abs(Z, work)
        if want_loss:
            losses = [
                _mean(np.maximum(Z[:, s], 0.0) - Z[:, s] * onehot[:, s] + np.log1p(e[:, s]), n * C, weights)
                for s in models
            ]
        _sigmoid(Z, e, grad)
    grad -= onehot
    grad *= scale
    if idx is not None:
        dlogits[idx] = grad
    return losses, dlogits


def loss_from_logits(logits, labels, train_mask, loss_mode):
    """Loss value and d(loss)/d(logits) for the masked rows.

    categorical: softmax cross-entropy averaged over masked rows.
    bce / weighted-bce: element-wise sigmoid cross-entropy against one-hot
    targets, averaged over masked rows x output columns; in weighted mode
    both the positive and negative terms of column i scale by
    ``openworld.class_weights(labels, train_mask, C)[i]``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValidationError("non-finite logits")
    logits = logits[:, None]
    targets = _loss_targets(labels, train_mask, logits, loss_mode)
    dlogits, work, rows = np.zeros_like(logits), np.empty_like(logits), np.empty((2, len(logits)))
    (loss,), grad = _loss_kernel(logits, targets, loss_mode, True, dlogits, work, rows)
    return loss, grad[:, 0]


def loss_and_grad(model: ModelState, g: TemporalGraph, labels, train_mask, loss_mode: str):
    """Loss plus parameter gradients of the dropout-free forward pass, in float64."""
    ws = _Workspace([model], g, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # as in train: the check below reports it
        logits = ws.forward()
    if not np.all(np.isfinite(logits)):
        raise ValidationError("non-finite logits")
    targets = _loss_targets(labels, train_mask, ws.logits, loss_mode)
    (loss,) = ws.backward(targets, loss_mode, want_loss=True)
    return loss, [(w[0], b[0]) for w, b in ws.grad_layers]


def _adam_update(params, grads, state, step: int, lr: float, weight_decay: float) -> None:
    """Adam update number ``step``, written into the flat ``params`` and ``state``.

    ``state`` holds four arrays of ``params``' shape: the first and second
    moments, then two scratch arrays for the effective gradient and the step.
    """
    m, v, gr, t = state
    c1 = 1.0 - ADAM_BETA1**step
    c2 = 1.0 - ADAM_BETA2**step
    np.multiply(params, weight_decay, out=gr)
    gr += grads
    m *= ADAM_BETA1
    np.multiply(gr, 1.0 - ADAM_BETA1, out=t)
    m += t
    v *= ADAM_BETA2
    np.multiply(gr, 1.0 - ADAM_BETA2, out=t)
    t *= gr
    v += t
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), in that order
    np.divide(m, c1, out=t)
    t *= lr
    np.divide(v, c2, out=gr)
    np.sqrt(gr, out=gr)
    gr += ADAM_EPS
    t /= gr
    params -= t


def train(models, g: TemporalGraph, labels, train_mask, cfg: TrainConfig, seeds, on_epoch=None) -> list:
    """Full-batch training of a stack of models: one update step per epoch, deterministic per seed.

    The models share kind, settings and shapes; they train under one
    ``cfg`` on one graph, labels and mask, model s with dropout seed
    ``seeds[s]``, and come back trained in the same order, the inputs
    untouched.  Optimizer moments start at zero.  In weighted-bce mode the
    per-class weights are (n - n_i) / n_i over the masked labels.  Each
    model gets the bits it gets when trained alone: its own dropout
    generator, seeded by its seed, fills its own slice of the dropout mask,
    and one Adam update runs over all their flat parameters, an elementwise
    rule.  A stack trains as consecutive sub-stacks of one size, each
    through all its epochs: 1 if a layer has one output unit (h = 1 or C =
    1; layer 0's input ``[X | 1]`` has at least two columns), as a product
    with such an operand runs in a BLAS vector kernel, whose bits depend on
    where the vector lies in the stack; else as many models, at least one,
    as a private entries budget allows on ``g``'s rows.  The epochs run in
    float32, dropout masks included; the returned models hold the trained
    float32 parameters as float64.

    ``on_epoch``, if given, is called as ``on_epoch(epoch, s, loss, model)``
    for each model after each update: epochs count from 1, ``s`` is the
    model's index in ``models`` and ``loss`` its loss before the update.
    ``model`` is the working copy, whose float32 layers are views into the
    flat parameter buffer: read it during the call, do not keep it.  Without
    ``on_epoch`` no loss value is computed.  Logits that turn non-finite, in
    any model, raise ValidationError naming the epoch; the overflows that
    lead there raise no RuntimeWarning, since that error reports them.
    """
    models, seeds = list(models), list(seeds)
    if not models or len(models) != len(seeds):
        raise ValidationError(f"{len(models)} models and {len(seeds)} seeds; need one seed per model")
    for seed in seeds:
        _check_seed(seed)
    first = models[0]
    shapes = [w.shape for w, _ in first.layers]
    if any(
        (m.kind, m.sgc_k, m.dropout_rate, [w.shape for w, _ in m.layers])
        != (first.kind, first.sgc_k, first.dropout_rate, shapes)
        for m in models[1:]
    ):
        raise ValidationError("models trained together must share kind, settings and shapes")
    entries = g.num_vertices * (first.hidden_dim + first.output_dim)
    size = 1 if min(fan_out for _, fan_out in shapes) < 2 else max(1, _STACK_ENTRIES // max(1, entries))
    trained = []
    for lo in range(0, len(models), size):
        stack, stack_seeds = models[lo : lo + size], seeds[lo : lo + size]
        with np.errstate(over="ignore", invalid="ignore"):
            # a parameter beyond float32's range becomes inf here, and the first epoch reports it
            ws = _Workspace(stack, g, np.float32)
            targets = _loss_targets(labels, train_mask, ws.logits, cfg.loss_mode)
            rngs = [np.random.default_rng(s) for s in stack_seeds] if first.dropout_rate > 0 else None
            state = np.zeros((4,) + ws.params.shape, ws.params.dtype)
            for epoch in range(1, cfg.epochs + 1):
                logits = ws.forward(rngs)
                if not np.isfinite(logits).all():
                    raise ValidationError(f"non-finite logits at epoch {epoch}")
                losses = ws.backward(targets, cfg.loss_mode, on_epoch is not None)
                _adam_update(ws.params, ws.grads, state, epoch, cfg.learning_rate, cfg.weight_decay)
                if on_epoch is not None:
                    for s, (loss, model) in enumerate(zip(losses, ws.models), lo):
                        on_epoch(epoch, s, loss, model)
        trained += [replace(m, layers=_views(row, shapes)) for m, row in zip(stack, ws.params.astype(np.float64))]
    return trained


def expand_output_layer(model: ModelState, l: int, seed: int) -> ModelState:
    """Grow the final layer by ``l`` output units.

    Existing output weights and biases are preserved bit-exactly; new weight
    columns are Glorot-initialized and new biases zero.
    """
    if l < 0:
        raise ValidationError("cannot expand by a negative count")
    _check_seed(seed)
    if l == 0:
        return model.copy()
    W, b = model.layers[-1]
    new_W = np.hstack([W, glorot_init(W.shape[0], l, seed)])
    new_b = np.concatenate([b, np.zeros(l, dtype=np.float64)])
    layers = [(w.copy(), bb.copy()) for w, bb in model.layers[:-1]] + [(new_W, new_b)]
    return replace(model, layers=layers)


def save_checkpoint(model: ModelState, path) -> None:
    """Write a checkpoint directory: text manifest + params.bin.

    The manifest (format 2) holds the kind, ``sgc_k``, ``dropout_rate``,
    ``num_layers`` and each ``layer<i>_shape``.  params.bin is the
    :func:`_flat` vector in 32-bit little-endian floats.  A model that
    :func:`train` returned fits them exactly; a parameter that is not finite
    in that range (a float64 beyond float32's largest value, inf or nan, as
    a hand-built model may hold) raises ValidationError naming its layer
    before anything is written.
    """
    with np.errstate(over="ignore"):
        params = _flat(model.layers).astype("<f4")
    if not np.all(np.isfinite(params)):
        layers = _views(params, [w.shape for w, _ in model.layers])
        bad = next(i for i, pair in enumerate(layers) if not all(np.isfinite(a).all() for a in pair))
        raise ValidationError(f"layer {bad} has parameters outside the float32 range of a checkpoint")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    lines = [
        "format_version=2",
        f"kind={model.kind}",
        f"sgc_k={model.sgc_k}",
        f"dropout_rate={model.dropout_rate!r}",
        f"num_layers={len(model.layers)}",
    ]
    for i, (w, _) in enumerate(model.layers):
        lines.append(f"layer{i}_shape={w.shape[0]},{w.shape[1]}")
    (root / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "params.bin").write_bytes(params.tobytes())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _shape(text: str) -> tuple[int, int]:
    fan_in, fan_out = map(_positive_int, text.split(","))
    return fan_in, fan_out


def load_checkpoint(path) -> ModelState:
    """Inverse of :func:`save_checkpoint`: parameters come back as float64 holding the stored float32 values.

    A model that :func:`train` returned is float32-exact, so it round-trips
    without loss; other float64 parameters come back rounded to float32.

    The dimensions come from the layer shapes, which must follow the kind's
    rule.  A malformed manifest or params.bin raises ValidationError naming
    the file and the line, key, layer or size at fault.
    """
    root = Path(path)
    manifest_path, params_path = root / "manifest", root / "params.bin"
    manifest = read_key_values(read_text(manifest_path, ValidationError), str(manifest_path), ValidationError)

    def get(key: str, parse=int):
        if key not in manifest:
            raise ValidationError(f"{manifest_path}: missing key {key!r}")
        try:
            return parse(manifest[key])
        except ValueError:
            raise ValidationError(f"{manifest_path}: bad value {key}={manifest[key]!r}") from None

    if get("format_version") != 2:
        raise ValidationError(f"{manifest_path}: unsupported format_version {manifest['format_version']!r}")
    kind = get("kind", str)
    if kind not in MODEL_KINDS:
        raise ValidationError(f"{manifest_path}: unknown model kind {kind!r}")
    sgc_k, dropout_rate = get("sgc_k"), get("dropout_rate", float)
    try:
        check_model_settings(sgc_k, dropout_rate)
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from None
    shapes = [get(f"layer{i}_shape", _shape) for i in range(get("num_layers", _positive_int))]
    input_dim = shapes[0][0] // 2 if kind == "sage" else shapes[0][0]
    hidden_dim, output_dim = (0 if kind == "sgc" else shapes[0][1]), shapes[-1][1]
    rule = _layer_shapes(kind, input_dim, hidden_dim, output_dim)
    if len(shapes) != len(rule):
        raise ValidationError(
            f"{manifest_path}: num_layers={len(shapes)}, but a {kind} model has {len(rule)}"
        )
    for i, (shape, want) in enumerate(zip(shapes, rule)):
        if shape != want:
            raise ValidationError(
                f"{manifest_path}: layer{i}_shape={manifest[f'layer{i}_shape']}, but a {kind} "
                f"model with hidden_dim={hidden_dim} and output_dim={output_dim} has {want[0]},{want[1]}"
            )
    expected = sum(fi * fo + fo for fi, fo in shapes)
    data = read_bytes(params_path, ValidationError)
    if len(data) != 4 * expected:
        raise ValidationError(f"{params_path} holds {len(data) / 4:.12g} floats, expected {expected}")
    layers = _views(np.frombuffer(data, "<f4").astype(np.float64), shapes)
    for i, (w, b) in enumerate(layers):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError(f"{params_path}: layer {i} holds non-finite parameters")
    return ModelState(kind=kind, layers=layers, sgc_k=sgc_k, dropout_rate=dropout_rate)
