"""Dense graph models with hand-written gradients: MLP, SGC, GraphSAGE-mean.

Parameters live in float64 for numerical headroom.  One flat layout (per
layer, the weights row-major, then the bias) serves :func:`train`'s parameter
buffer and checkpoints, which store it as 32-bit little-endian floats under
a manifest of the kind, its settings and the layer shapes (see
:func:`save_checkpoint`).  Models are values:
every public update (:func:`train`, :func:`expand_output_layer`) returns a
new :class:`ModelState` and never mutates its input.  :func:`train` is the
one training loop.  It allocates one epoch workspace and one Adam state
array per call, and every epoch writes into them in place: the flat
parameter buffer (the working model's layers, which ``on_epoch`` receives,
are views into it), the flat gradient buffer, the hidden layer, one dropout
buffer and, for sage, ``H @ W_n`` on the output columns, all float64.  The
backward pass masks the hidden gradient wherever the activation is positive:
after relu and inverted dropout, that is exactly where the pre-activation
was positive and the draw kept the unit.  The loss *value* is computed only
where it is read: with ``on_epoch``, and in :func:`loss_and_grad` and
:func:`loss_from_logits`.
Dropout fires only inside ``train``, with masks drawn from a generator
seeded by ``cfg.seed``.  :func:`loss_and_grad` runs the same workspace
passes without one, so it is deterministic; :func:`forward` runs the same
forward pass with only its own buffers (hidden layer, logits and sage's
``H @ W_n``) over the model's own layers.  All three take the graph, not its
features: layer 0's input (:func:`model_inputs`, for sage ``[X | P X]``)
and ``P`` are built once per graph object and model kind and cached on the
graph, read-only.  Weighted-bce's class weights are not passed:
they are :func:`evograph.openworld.class_weights` of the masked labels.

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

from .dataio import read_bytes, read_key_values, read_text
from .errors import ValidationError
from .graph import TemporalGraph
from .openworld import _sigmoid_exp, class_weights as _class_weights

CATEGORICAL = "categorical"
BCE = "bce"
WEIGHTED_BCE = "weighted-bce"
LOSS_MODES = (CATEGORICAL, BCE, WEIGHTED_BCE)

MODEL_KINDS = ("mlp", "sgc", "sage")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    loss_mode: str = CATEGORICAL
    seed: int = 0

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


def _graph_inputs(model: ModelState, g: TemporalGraph):
    """Layer 0's input and the propagation pair for ``model`` on ``g``, cached on ``g``.

    For sage the input is ``[X | P X]`` and the pair ``(P, P.T)``, with ``X``
    from :func:`model_inputs` and ``P`` from :func:`mean_propagation`; the
    other kinds take ``X`` as it is and no pair.  The input is read-only.
    """
    if g.feature_dim != model.input_dim:
        raise ValidationError(
            f"feature width {g.feature_dim} does not match layer-0 input {model.input_dim}"
        )
    key = (model.kind, model.sgc_k)
    if key not in g._model_inputs:
        H_in, prop = model_inputs(model, g), None
        if model.kind == "sage":
            P = mean_propagation(g)
            H_in, prop = np.hstack([H_in, P @ H_in]), (P, P.T)
        H_in.flags.writeable = False
        g._model_inputs[key] = (H_in, prop)
    return g._model_inputs[key]


def _flat(layers) -> np.ndarray:
    """The parameters as one vector: per layer, the weights row-major, then the bias."""
    return np.concatenate([a.ravel() for pair in layers for a in pair])


def _views(flat: np.ndarray, shapes) -> list:
    """Per-layer ``(weights, bias)`` views into a :func:`_flat` vector of ``(fan_in, fan_out)`` shapes."""
    out, offset = [], 0
    for fan_in, fan_out in shapes:
        end = offset + fan_in * fan_out
        out.append((flat[offset:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        offset = end + fan_out
    return out


class _Forward:
    """The buffers of one model's forward pass on one graph.

    They are the hidden layer ``H`` (the pre-activation, then in place the
    activation), the logits and, for sage, ``HWn = H @ W_n``.  ``H1`` is the
    input of the last layer's self half ``W[:d]``: ``H`` (mlp, sage), or
    layer 0's input for sgc, which has no hidden layer.  sage adds the
    neighbor half as ``P @ (H @ W_n)``, with ``W_n = W[d:]``.  The pass
    reads ``model.layers`` as they are.
    """

    def __init__(self, model: ModelState, g: TemporalGraph):
        self.model = model
        self.H_in, self.prop = _graph_inputs(model, g)
        n = self.H_in.shape[0]
        self.logits = np.empty((n, model.output_dim))
        self.H1 = self.H_in
        if model.kind != "sgc":
            self.H = self.H1 = np.empty((n, model.hidden_dim))
        if self.prop is not None:
            self.HWn = np.empty_like(self.logits)

    def forward(self, rng=None) -> np.ndarray:
        """Logits of ``model``; dropout masks are drawn from ``rng`` unless it is None."""
        *hidden, (W, b) = self.model.layers
        self.dropped = rng is not None
        if hidden:
            (W0, b0), = hidden
            H = self.H
            np.matmul(self.H_in, W0, out=H)
            H += b0
            np.maximum(H, 0.0, out=H)
            if self.dropped:
                drop, rate = self.drop, self.model.dropout_rate
                np.greater_equal(rng.random(out=drop), rate, out=drop)
                H *= drop
                H /= 1.0 - rate
        d = self.H1.shape[1]
        np.matmul(self.H1, W[:d], out=self.logits)
        if self.prop is not None:
            np.matmul(self.H1, W[d:], out=self.HWn)
            self.logits += self.prop[0] @ self.HWn
        self.logits += b
        return self.logits


class _Workspace(_Forward):
    """A forward pass over a flat copy of the parameters, plus its backward pass.

    ``model`` is a copy whose layers are views into the flat ``params``;
    ``grad_layers`` are views into ``grads``, which the backward pass fills.
    For sage the backward pass takes ``Q = P.T @ dZ`` on the output columns;
    layer 1's gradient is ``H.T @ dZ`` over ``H.T @ Q`` by rows, and
    ``dH = dZ @ W_s.T + Q @ W_n.T``.
    The backward mask is ``H > 0``: ``H`` is ``relu(pre) * drop / (1 - rate)``
    with ``1 - rate`` in (0, 1], so it is positive exactly where ``pre`` is
    and the draw kept the unit.  The one ``drop`` buffer holds the draw, then
    that mask, as 0.0/1.0 floats: a float multiply is about three times
    cheaper than a boolean one.
    """

    def __init__(self, model: ModelState, g: TemporalGraph):
        shapes = [w.shape for w, _ in model.layers]
        self.params = _flat(model.layers)
        super().__init__(replace(model, layers=_views(self.params, shapes)), g)
        self.grads = np.empty_like(self.params)
        self.grad_layers = _views(self.grads, shapes)
        self.dlogits = np.zeros_like(self.logits)  # rows outside a train mask stay zero
        if model.kind != "sgc":
            self.drop, self.dH = np.empty_like(self.H), np.empty_like(self.H)

    def backward(self, targets: _Targets, loss_mode: str, want_loss: bool) -> Optional[float]:
        """Fill ``grads`` for the last forward pass; the loss value if ``want_loss``, else None."""
        loss, dZ = _loss_kernel(self.logits, targets, loss_mode, want_loss, self.dlogits)
        layers = self.model.layers
        gW, gb = self.grad_layers[-1]
        d = self.H1.shape[1]
        np.matmul(self.H1.T, dZ, out=gW[:d])
        if self.prop is not None:
            Q = self.prop[1] @ dZ
            np.matmul(self.H1.T, Q, out=gW[d:])
        np.add.reduce(dZ, axis=0, out=gb)
        if len(layers) == 1:
            return loss
        W1, dH = layers[1][0], self.dH
        np.matmul(dZ, W1[:d].T, out=dH)
        if self.prop is not None:
            # drop is free until it takes the mask below
            dH += np.matmul(Q, W1[d:].T, out=self.drop)
        dH *= np.greater(self.H, 0.0, out=self.drop)
        if self.dropped:
            dH /= 1.0 - self.model.dropout_rate
        gW, gb = self.grad_layers[0]
        np.matmul(self.H_in.T, dH, out=gW)
        np.add.reduce(dH, axis=0, out=gb)
        return loss


def forward(model: ModelState, g: TemporalGraph) -> np.ndarray:
    """Logits per vertex (rows) and output unit (columns), without dropout."""
    return _Forward(model, g).forward()


class _Targets(NamedTuple):
    """Validated loss inputs that stay fixed while a model trains."""

    idx: Optional[np.ndarray]  # masked rows; None when the mask covers every row
    y: np.ndarray  # their output units
    onehot: np.ndarray  # (masked rows, C)
    weights: Optional[np.ndarray]  # per-unit weights, weighted-bce only


def _loss_targets(labels, train_mask, shape, loss_mode) -> _Targets:
    """Checked targets for logits of ``shape`` (rows, output units)."""
    num_rows, num_units = shape
    labels = np.asarray(labels)
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
    onehot = np.zeros((idx.size, num_units), dtype=np.float64)
    onehot[np.arange(idx.size), y] = 1.0
    return _Targets(None if idx.size == num_rows else idx, y, onehot, weights)


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


def _loss_kernel(logits, targets: _Targets, loss_mode: str, want_loss: bool, dlogits):
    """The loss value (None unless ``want_loss``) and d(loss)/d(logits).

    ``logits`` are finite and ``targets`` validated.  Under a partial mask
    the gradient's masked rows are written into ``dlogits`` (zeros outside
    them), which is returned.
    """
    idx, y, onehot, weights = targets
    n, C = onehot.shape
    Z = logits if idx is None else logits[idx]
    loss = None
    if loss_mode == CATEGORICAL:
        rows = np.arange(n)
        # the row max, one column at a time: much cheaper than max(axis=1) on narrow rows
        top = Z[:, 0].copy()
        for j in range(1, C):
            np.maximum(top, Z[:, j], out=top)
        shifted = Z - top[:, None]
        grad = np.exp(shifted)
        total = grad.sum(axis=1, keepdims=True)
        if want_loss:
            loss = _mean(np.log(total[:, 0]) - shifted[rows, y], n)
        grad /= total
        grad[rows, y] -= 1.0
        grad /= n
    else:
        # stable elementwise: max(z,0) - z*y + log(1 + exp(-|z|))
        grad, e = _sigmoid_exp(Z)
        if want_loss:
            loss = _mean(np.maximum(Z, 0.0) - Z * onehot + np.log1p(e), n * C, weights)
        grad -= onehot
        if weights is not None:
            grad *= weights
        grad /= n * C
    if idx is None:
        return loss, grad
    dlogits[idx] = grad
    return loss, dlogits


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
    targets = _loss_targets(labels, train_mask, logits.shape, loss_mode)
    return _loss_kernel(logits, targets, loss_mode, True, np.zeros_like(logits))


def loss_and_grad(model: ModelState, g: TemporalGraph, labels, train_mask, loss_mode: str):
    """Loss plus parameter gradients of the dropout-free forward pass."""
    ws = _Workspace(model, g)
    if not np.all(np.isfinite(ws.forward())):
        raise ValidationError("non-finite logits")
    targets = _loss_targets(labels, train_mask, ws.logits.shape, loss_mode)
    return ws.backward(targets, loss_mode, want_loss=True), ws.grad_layers


def _adam_update(params, grads, state, step: int, lr: float, weight_decay: float) -> None:
    """Adam update number ``step``, written into the flat ``params`` and ``state``.

    ``state`` holds four rows of ``params``' length: the first and second
    moments, then two scratch rows for the effective gradient and the step.
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


def train(
    model: ModelState,
    g: TemporalGraph,
    labels,
    train_mask,
    cfg: TrainConfig,
    on_epoch=None,
) -> ModelState:
    """Full-batch training: one update step per epoch, deterministic per seed.

    Optimizer moments start at zero.  In weighted-bce mode the per-class
    weights are (n - n_i) / n_i over the masked labels.  Returns a new
    model; ``model`` is left untouched.

    ``on_epoch``, if given, is called as ``on_epoch(epoch, loss, model)``
    after each update, with epochs counted from 1 and ``loss`` taken before
    the update.  That model is the working copy, whose layers are views
    into the flat parameter buffer: read it during the call, do not keep
    it.  Without ``on_epoch`` no loss value is computed.  Logits that turn
    non-finite raise ValidationError naming the epoch; the overflows that
    lead there raise no RuntimeWarning, since that error reports them.
    """
    ws = _Workspace(model, g)
    targets = _loss_targets(labels, train_mask, ws.logits.shape, cfg.loss_mode)
    rng = np.random.default_rng(cfg.seed) if model.dropout_rate > 0 else None
    state = np.zeros((4, ws.params.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            if not np.all(np.isfinite(ws.forward(rng))):
                raise ValidationError(f"non-finite logits at epoch {epoch}")
            loss = ws.backward(targets, cfg.loss_mode, on_epoch is not None)
            _adam_update(ws.params, ws.grads, state, epoch, cfg.learning_rate, cfg.weight_decay)
            if on_epoch is not None:
                on_epoch(epoch, loss, ws.model)
    return ws.model


def expand_output_layer(model: ModelState, l: int, seed: int) -> ModelState:
    """Grow the final layer by ``l`` output units.

    Existing output weights and biases are preserved bit-exactly; new weight
    columns are Glorot-initialized and new biases zero.
    """
    if l < 0:
        raise ValidationError("cannot expand by a negative count")
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
    :func:`_flat` vector in 32-bit little-endian floats.
    """
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
    (root / "params.bin").write_bytes(_flat(model.layers).astype("<f4").tobytes())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _shape(text: str) -> tuple[int, int]:
    fan_in, fan_out = map(_positive_int, text.split(","))
    return fan_in, fan_out


def load_checkpoint(path) -> ModelState:
    """Inverse of :func:`save_checkpoint` (parameters come back as float32-exact).

    Format 1 manifests load too: their extra ``hidden_dim``, ``output_dim``
    and ``rng_seed`` keys are not read, as any other unknown key.  The
    dimensions come from the layer shapes, which must follow the kind's
    rule.  A malformed manifest or params.bin raises ValidationError naming
    the line, key, layer or size at fault.
    """
    root = Path(path)
    manifest = read_key_values(read_text(root / "manifest", ValidationError), "manifest", ValidationError)

    def get(key: str, parse=int):
        if key not in manifest:
            raise ValidationError(f"checkpoint manifest: missing key {key!r}")
        try:
            return parse(manifest[key])
        except ValueError:
            raise ValidationError(
                f"checkpoint manifest: bad value {key}={manifest[key]!r}"
            ) from None

    if get("format_version") not in (1, 2):
        raise ValidationError(
            f"checkpoint manifest: unsupported format_version {manifest['format_version']!r}"
        )
    kind = get("kind", str)
    if kind not in MODEL_KINDS:
        raise ValidationError(f"checkpoint manifest: unknown model kind {kind!r}")
    sgc_k, dropout_rate = get("sgc_k"), get("dropout_rate", float)
    try:
        check_model_settings(sgc_k, dropout_rate)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint manifest: {exc}") from None
    shapes = [get(f"layer{i}_shape", _shape) for i in range(get("num_layers", _positive_int))]
    input_dim = shapes[0][0] // 2 if kind == "sage" else shapes[0][0]
    hidden_dim, output_dim = (0 if kind == "sgc" else shapes[0][1]), shapes[-1][1]
    rule = _layer_shapes(kind, input_dim, hidden_dim, output_dim)
    if len(shapes) != len(rule):
        raise ValidationError(
            f"checkpoint manifest: num_layers={len(shapes)}, but a {kind} model has {len(rule)}"
        )
    for i, (shape, want) in enumerate(zip(shapes, rule)):
        if shape != want:
            raise ValidationError(
                f"checkpoint manifest: layer{i}_shape={manifest[f'layer{i}_shape']}, but a {kind} "
                f"model with hidden_dim={hidden_dim} and output_dim={output_dim} has {want[0]},{want[1]}"
            )
    expected = sum(fi * fo + fo for fi, fo in shapes)
    data = read_bytes(root / "params.bin", ValidationError)
    if len(data) != 4 * expected:
        raise ValidationError(f"params.bin holds {len(data) / 4:.12g} floats, expected {expected}")
    layers = _views(np.frombuffer(data, "<f4").astype(np.float64), shapes)
    return ModelState(kind=kind, layers=layers, sgc_k=sgc_k, dropout_rate=dropout_rate)
