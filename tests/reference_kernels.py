"""Reference training kernels: the per-array forms the flat-buffer kernels replaced.

These are the earlier ``models`` kernels, kept as the oracle the tests hold
:func:`evograph.train`, :func:`evograph.forward` and :func:`evograph.sigmoid`
to, bit for bit: a two-branch sigmoid, dropout masks unpacked by shifts, the loss
gathered and scattered through the row index even when the mask covers every
row, and Adam run per parameter array on a list-of-pairs state.  They run
the arithmetic in the order ``models`` does:

* Layer 0 (for sgc, its one layer) is one product with the bias as the last
  row of the weights, ``[H_in | 1] @ [W; b]``, and its backward pass one
  product ``[H_in | 1].T @ dZ``, whose last row is the bias gradient.  The
  last layer of mlp and sage adds its bias and takes its bias gradient as
  ``ones(n) @ dZ``.
* Sage's output layer runs in the re-associated order ``H @ W_s + P @ (H @
  W_n) + b``, with ``W_s``/``W_n`` the row halves of its weights, and
  backward ``Q = P.T @ dZ``, ``dH = dZ @ W_s.T + Q @ W_n.T``.
* Inverted dropout multiplies by ``1 / (1 - rate)``, and the loss gradient
  by ``targets.scale`` (``weights / (n * C)``, ``1 / (n * C)`` or ``1 / n``).

``train`` keeps the earlier signature: the caller passes layer 0's features
``X`` and, optionally, weighted-bce's class weights.

The kernels run in the dtype of their inputs, and ``train`` in the ``dtype``
it is given: float32 is the precision of :func:`evograph.train`'s epochs,
float64 that of :func:`evograph.forward` and :func:`evograph.loss_and_grad`.
Layer 0's input and ``P`` are built in float64 and cast, the loss targets
are cast, and the dropout masks come from 16-bit lanes of the raw PCG64
words, as in ``models``.
``train`` returns float64 layers, as :func:`evograph.train` does.

With ``folded=False`` the kernels run the order before the bias fold: ``H_in
@ W + b``, bias gradients as column sums ``dZ.sum(axis=0)``, dropout divided
by ``1 - rate``, and the loss gradient times the weights, then divided by
``n * C`` (``n``, categorical).  That is the order oracle: a kernel whose
summation order differs from the one above is held to it within
``PASS_RTOL`` (one pass) and ``TRAINED_RTOL`` (trained weights).
"""

from dataclasses import dataclass, replace

import numpy as np

from evograph.errors import ValidationError
from evograph.models import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CATEGORICAL,
    LOSS_MODES,
    WEIGHTED_BCE,
    _Targets,
    mean_propagation,
)
from evograph.openworld import class_weights as _class_weights


@dataclass
class AdamState:
    step: int
    m: list
    v: list


def init_adam_state(model) -> AdamState:
    return AdamState(
        step=0,
        m=[(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers],
        v=[(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers],
    )


def _graph_inputs(model, g, X, dtype=np.float64):
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.input_dim:
        raise ValidationError(
            f"feature width {X.shape[1]} does not match layer-0 input {model.input_dim}"
        )
    if model.kind != "sage":
        return X.astype(dtype), None
    P = mean_propagation(g)
    X, P = np.hstack([X, P @ X]).astype(dtype), P.astype(dtype)
    return X, (P, P.T)


def sigmoid(z, dtype=np.float64) -> np.ndarray:
    z = np.asarray(z, dtype=dtype)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(rng, shape, rate: float, dtype) -> np.ndarray:
    """Keep a unit iff its 16-bit lane is >= ``round(rate * 2**16)``.

    The lanes are cut from ``ceil(size / 4)`` raw 64-bit words of ``rng``'s
    bit generator by shifts, four per word, low bits first, and the first
    ``size`` of them fill ``shape`` row-major.
    """
    size = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-size // 4))
    lanes = (words[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)
    return (lanes.ravel()[:size].reshape(shape) >= round(rate * 2**16)).astype(dtype)


def _with_ones(H_in) -> np.ndarray:
    return np.hstack([H_in, np.ones((len(H_in), 1), H_in.dtype)])


def _affine(H_in, W, b, folded: bool) -> np.ndarray:
    """``H_in @ W + b``; folded, one product ``[H_in | 1] @ [W; b]``."""
    return _with_ones(H_in) @ np.vstack([W, b]) if folded else H_in @ W + b


def _inverted_dropout(H, mask, rate: float, folded: bool) -> np.ndarray:
    return H * mask * (1.0 / (1.0 - rate)) if folded else H * mask / (1.0 - rate)


def _forward_cached(model, H_in, prop, rng, folded=True):
    cache = {"inputs": [], "prelin": [], "drop": [], "prop": prop, "folded": folded}
    last = len(model.layers) - 1
    for i, (W, b) in enumerate(model.layers):
        cache["inputs"].append(H_in)
        if i == 0:
            Z = _affine(H_in, W, b, folded)
        elif prop is None:
            Z = H_in @ W + b
        else:
            d = H_in.shape[1]
            Z = H_in @ W[:d] + prop[0] @ (H_in @ W[d:]) + b
        if i == last:
            return Z, cache
        cache["prelin"].append(Z)
        H = np.maximum(Z, 0.0)
        mask = None
        if rng is not None:
            mask = _dropout_mask(rng, H.shape, model.dropout_rate, H.dtype)
            H = _inverted_dropout(H, mask, model.dropout_rate, folded)
        cache["drop"].append(mask)
        H_in = H


def _loss_targets(labels, train_mask, num_units: int, loss_mode, class_weights, dtype=np.float64) -> _Targets:
    labels = np.asarray(labels)
    idx = np.nonzero(np.asarray(train_mask, dtype=bool))[0]
    if idx.size == 0:
        raise ValidationError("empty train mask")
    if (class_weights is not None) != (loss_mode == WEIGHTED_BCE):
        raise ValidationError("class_weights required iff loss_mode is weighted-bce")
    y = labels[idx]
    if np.any(y < 0) or np.any(y >= num_units):
        raise ValidationError("labels on masked rows must be valid output units")
    if loss_mode not in LOSS_MODES:
        raise ValidationError(f"unknown loss_mode {loss_mode!r}")
    weights = None
    if loss_mode == WEIGHTED_BCE:
        weights = np.asarray(class_weights, dtype=np.float64)
        if weights.shape != (num_units,) or np.any(weights <= 0):
            raise ValidationError("class_weights must be positive, one per output unit")
    onehot = np.zeros((idx.size, num_units), dtype=dtype)
    onehot[np.arange(idx.size), y] = 1.0
    if loss_mode == CATEGORICAL:
        scale = 1.0 / idx.size
    else:
        scale = (1.0 if weights is None else weights) / (idx.size * num_units)
    weights = None if weights is None else weights.astype(dtype)
    return _Targets(idx, onehot, weights, np.asarray(scale, dtype=dtype))


def _loss_kernel(logits: np.ndarray, targets: _Targets, loss_mode: str, folded=True):
    idx, onehot, weights, scale = targets
    n, C = onehot.shape
    y = onehot.argmax(axis=1)
    Z = logits[idx]
    dlogits = np.zeros_like(logits)
    if loss_mode == CATEGORICAL:
        shifted = Z - Z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        loss = float(np.mean(np.log(e.sum(axis=1)) - shifted[np.arange(n), y]))
        grad = e / e.sum(axis=1, keepdims=True) - onehot
        dlogits[idx] = grad * scale if folded else grad / n
    else:
        elem = np.maximum(Z, 0.0) - Z * onehot + np.log1p(np.exp(-np.abs(Z)))
        grad = sigmoid(Z, Z.dtype) - onehot
        if weights is not None:
            elem = elem * weights
        loss = float(elem.sum() / (n * C))
        if folded:
            dlogits[idx] = grad * scale
        else:
            dlogits[idx] = (grad if weights is None else grad * weights) / (n * C)
    return loss, dlogits


def _backward(model, cache, dlogits):
    folded = cache["folded"]
    grads = [None] * len(model.layers)
    dZ = dlogits
    prop = cache["prop"]
    for i in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[i]
        H_in = cache["inputs"][i]
        if i == 0:
            if not folded:
                grads[0] = (H_in.T @ dZ, dZ.sum(axis=0))
            else:
                both = _with_ones(H_in).T @ dZ
                grads[0] = (both[:-1], both[-1])
            break
        gb = np.ones(len(dZ), dZ.dtype) @ dZ if folded else dZ.sum(axis=0)
        if prop is None:
            grads[i] = (H_in.T @ dZ, gb)
            dH = dZ @ W.T
        else:
            d = H_in.shape[1]
            Q = prop[1] @ dZ
            grads[i] = (np.vstack([H_in.T @ dZ, H_in.T @ Q]), gb)
            dH = dZ @ W[:d].T + Q @ W[d:].T
        mask = cache["drop"][i - 1]
        if mask is not None:
            dH = _inverted_dropout(dH, mask, model.dropout_rate, folded)
        dZ = dH * (cache["prelin"][i - 1] > 0)
    return grads


def _adam_update(model, grads, opt: AdamState, lr: float, weight_decay: float) -> None:
    opt.step += 1
    c1 = 1.0 - ADAM_BETA1**opt.step
    c2 = 1.0 - ADAM_BETA2**opt.step
    for params, layer_grads, layer_m, layer_v in zip(model.layers, grads, opt.m, opt.v):
        for p, gr, m, v in zip(params, layer_grads, layer_m, layer_v):
            gr = gr + weight_decay * p
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * gr
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * gr * gr
            p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train(model, g, X, labels, train_mask, cfg, seed, class_weights=None, on_epoch=None, folded=True, *, dtype):
    """The earlier ``train`` in ``dtype``, dropout seeded by ``seed``: the bias-folded order or, ``folded=False``,
    the one before."""
    if cfg.loss_mode == WEIGHTED_BCE and class_weights is None:
        class_weights = _class_weights(labels, train_mask, model.output_dim)
    H_in, prop = _graph_inputs(model, g, X, dtype)
    targets = _loss_targets(
        labels, train_mask, model.layers[-1][0].shape[1], cfg.loss_mode, class_weights, dtype
    )
    rng = np.random.default_rng(seed) if model.dropout_rate > 0 else None
    model = replace(model, layers=[(w.astype(dtype), b.astype(dtype)) for w, b in model.layers])
    opt = init_adam_state(model)
    for epoch in range(1, cfg.epochs + 1):
        logits, cache = _forward_cached(model, H_in, prop, rng, folded)
        if not np.all(np.isfinite(logits)):
            raise ValidationError(f"non-finite logits at epoch {epoch}")
        loss, dlogits = _loss_kernel(logits, targets, cfg.loss_mode, folded)
        _adam_update(model, _backward(model, cache, dlogits), opt, cfg.learning_rate, cfg.weight_decay)
        if on_epoch is not None:
            on_epoch(epoch, loss, model)
    return replace(model, layers=[(w.astype(np.float64), b.astype(np.float64)) for w, b in model.layers])


# How far a kernel whose summation order differs from the order oracle may
# deviate from it, as max|got - oracle| over max|oracle| per array.  On the
# grid of test_models.py's TestOrderOracle, sage's re-associated output layer
# measured up to 1.1e-15 for one pass and 3.4e-14 for weights after 200 epochs
# against the concatenated order before it; the bias fold and the reciprocal
# scales, up to 1.6e-15 and 6.1e-15 against the unfolded order.
PASS_RTOL = 1e-13  # forward logits and one pass's loss gradients
TRAINED_RTOL = 1e-10  # weights after ``train``


def rel_dev(got, oracle) -> float:
    """max|got - oracle| / max|oracle|; 0.0 when both are all zero."""
    got, oracle = np.asarray(got), np.asarray(oracle)
    assert got.shape == oracle.shape
    scale = np.max(np.abs(oracle))
    dev = np.max(np.abs(got - oracle))
    return float(dev / scale) if scale > 0 else float(dev)


def bits(a) -> np.ndarray:
    """The raw 64-bit patterns of an array as float64 (exact for float32), for bit-for-bit comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
