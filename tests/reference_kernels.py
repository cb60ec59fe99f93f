"""Reference training kernels: the per-array forms the flat-buffer kernels replaced.

These are the earlier ``models`` kernels, kept as the oracle the tests hold
:func:`evograph.train`, :func:`evograph.forward` and :func:`evograph.sigmoid`
to, bit for bit: a two-branch sigmoid, float dropout masks, the loss
gathered and scattered through the row index even when the mask covers every
row, and Adam run per parameter array on a list-of-pairs state.  Sage's
output layer runs in the re-associated order ``H @ W_s + P @ (H @ W_n)``,
with ``W_s``/``W_n`` the row halves of its weights, and backward
``Q = P.T @ dZ``, ``dH = dZ @ W_s.T + Q @ W_n.T``, as ``models`` does.
``train`` keeps the earlier signature: the caller passes layer 0's features
``X`` and, optionally, weighted-bce's class weights.

``_forward_cached_concat`` and ``_backward_concat`` keep the earlier sage
order verbatim: layer 1's input ``[H | P H]`` times the whole weight matrix,
and ``P.T @ dPH`` on the hidden columns.  They are the order oracle: a
kernel whose summation order differs from the one above is held to them
within ``PASS_RTOL`` (one pass) and ``TRAINED_RTOL`` (trained weights).
"""

from dataclasses import dataclass

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


def _graph_inputs(model, g, X):
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.input_dim:
        raise ValidationError(
            f"feature width {X.shape[1]} does not match layer-0 input {model.input_dim}"
        )
    if model.kind != "sage":
        return X, None
    P = mean_propagation(g)
    return np.hstack([X, P @ X]), (P, P.T)


def sigmoid(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(rng, shape, rate: float) -> np.ndarray:
    return (rng.random(shape) >= rate).astype(np.float64)


def _forward_cached(model, H_in, prop, rng):
    cache = {"inputs": [], "prelin": [], "drop": [], "prop": prop}
    last = len(model.layers) - 1
    for i, (W, b) in enumerate(model.layers):
        cache["inputs"].append(H_in)
        if i == last:
            if prop is None or i == 0:
                return H_in @ W + b, cache
            d = H_in.shape[1]
            return H_in @ W[:d] + prop[0] @ (H_in @ W[d:]) + b, cache
        Z = H_in @ W + b
        cache["prelin"].append(Z)
        H = np.maximum(Z, 0.0)
        mask = None
        if rng is not None:
            mask = _dropout_mask(rng, H.shape, model.dropout_rate)
            H = H * mask / (1.0 - model.dropout_rate)
        cache["drop"].append(mask)
        H_in = H


def _forward_cached_concat(model, H_in, prop, rng):
    cache = {"inputs": [], "prelin": [], "drop": [], "prop": prop}
    last = len(model.layers) - 1
    for i, (W, b) in enumerate(model.layers):
        cache["inputs"].append(H_in)
        Z = H_in @ W + b
        if i == last:
            return Z, cache
        cache["prelin"].append(Z)
        H = np.maximum(Z, 0.0)
        mask = None
        if rng is not None:
            mask = _dropout_mask(rng, H.shape, model.dropout_rate)
            H = H * mask / (1.0 - model.dropout_rate)
        cache["drop"].append(mask)
        H_in = H if prop is None else np.hstack([H, prop[0] @ H])


def _loss_targets(labels, train_mask, num_units: int, loss_mode, class_weights) -> _Targets:
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
    onehot = np.zeros((idx.size, num_units), dtype=np.float64)
    onehot[np.arange(idx.size), y] = 1.0
    return _Targets(idx, y, onehot, weights)


def _loss_kernel(logits: np.ndarray, targets: _Targets, loss_mode: str):
    idx, y, onehot, weights = targets
    n, C = onehot.shape
    Z = logits[idx]
    dlogits = np.zeros_like(logits)
    if loss_mode == CATEGORICAL:
        shifted = Z - Z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        loss = float(np.mean(np.log(e.sum(axis=1)) - shifted[np.arange(n), y]))
        dlogits[idx] = (e / e.sum(axis=1, keepdims=True) - onehot) / n
    else:
        elem = np.maximum(Z, 0.0) - Z * onehot + np.log1p(np.exp(-np.abs(Z)))
        grad = sigmoid(Z) - onehot
        if weights is not None:
            elem = elem * weights
            grad = grad * weights
        loss = float(elem.sum() / (n * C))
        dlogits[idx] = grad / (n * C)
    return loss, dlogits


def _backward(model, cache, dlogits):
    grads = [None] * len(model.layers)
    dZ = dlogits
    prop = cache["prop"]
    for i in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[i]
        H_in = cache["inputs"][i]
        if i == 0 or prop is None:
            grads[i] = (H_in.T @ dZ, dZ.sum(axis=0))
            if i == 0:
                break
            dH = dZ @ W.T
        else:
            d = H_in.shape[1]
            Q = prop[1] @ dZ
            grads[i] = (np.vstack([H_in.T @ dZ, H_in.T @ Q]), dZ.sum(axis=0))
            dH = dZ @ W[:d].T + Q @ W[d:].T
        mask = cache["drop"][i - 1]
        if mask is not None:
            dH = dH * mask / (1.0 - model.dropout_rate)
        dZ = dH * (cache["prelin"][i - 1] > 0)
    return grads


def _backward_concat(model, cache, dlogits):
    grads = [None] * len(model.layers)
    dZ = dlogits
    prop = cache["prop"]
    for i in range(len(model.layers) - 1, -1, -1):
        W, _ = model.layers[i]
        H_in = cache["inputs"][i]
        grads[i] = (H_in.T @ dZ, dZ.sum(axis=0))
        if i == 0:
            break
        dH_in = dZ @ W.T
        if prop is not None:
            d = dH_in.shape[1] // 2
            dH = dH_in[:, :d] + prop[1] @ dH_in[:, d:]
        else:
            dH = dH_in
        mask = cache["drop"][i - 1]
        if mask is not None:
            dH = dH * mask / (1.0 - model.dropout_rate)
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


def train(
    model, g, X, labels, train_mask, cfg, class_weights=None, on_epoch=None,
    kernels=(_forward_cached, _backward),
):
    """The earlier ``train``; ``kernels`` is the (forward, backward) pair it runs."""
    forward_cached, backward = kernels
    if cfg.loss_mode == WEIGHTED_BCE and class_weights is None:
        class_weights = _class_weights(labels, train_mask, model.output_dim)
    H_in, prop = _graph_inputs(model, g, X)
    targets = _loss_targets(
        labels, train_mask, model.layers[-1][0].shape[1], cfg.loss_mode, class_weights
    )
    rng = np.random.default_rng(cfg.seed) if model.dropout_rate > 0 else None
    model = model.copy()
    opt = init_adam_state(model)
    for epoch in range(1, cfg.epochs + 1):
        logits, cache = forward_cached(model, H_in, prop, rng)
        if not np.all(np.isfinite(logits)):
            raise ValidationError(f"non-finite logits at epoch {epoch}")
        loss, dlogits = _loss_kernel(logits, targets, cfg.loss_mode)
        _adam_update(model, backward(model, cache, dlogits), opt, cfg.learning_rate, cfg.weight_decay)
        if on_epoch is not None:
            on_epoch(epoch, loss, model)
    return model


# How far a kernel whose summation order differs from the order oracle may
# deviate from it, as max|got - oracle| over max|oracle| per array.  On the
# grid of test_models.py's TestOrderOracle, sage's re-associated output layer
# measured up to 1.1e-15 for one pass and 3.4e-14 for weights after 200 epochs.
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
    """The raw 64-bit patterns of a float64 array, for bit-for-bit comparison."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
