"""Unseen-class detection with per-class rejection thresholds (DOC / gDOC).

Both variants share the rejection rule: sigmoid every logit, reject a vertex
("unseen") when every class output falls below its threshold, else take the
argmax of the raw logits.  gDOC differs from DOC only by training the base
model with class-weighted binary cross-entropy and by a higher default
minimum threshold (:data:`DEFAULT_TAU_MIN`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

UNSEEN = -1

DOC = "doc"
GDOC = "gdoc"

# each variant's default tau_min: DOC's is the sigmoid inflection point
DEFAULT_TAU_MIN = {DOC: 0.5, GDOC: 0.75}


@dataclass(frozen=True)
class DetectorConfig:
    variant: str = GDOC
    tau_min: Optional[float] = None  # None: the variant's DEFAULT_TAU_MIN
    alpha: float = 0.0
    use_risk_reduction: bool = False

    def __post_init__(self):
        if self.variant not in (DOC, GDOC):
            raise ValidationError(f"unknown detector variant {self.variant!r}")
        if self.tau_min is None:
            object.__setattr__(self, "tau_min", DEFAULT_TAU_MIN[self.variant])
        if not 0 < self.tau_min <= 1:
            raise ValidationError("tau_min must be in (0, 1]")
        if not 0 <= self.alpha < np.inf:
            raise ValidationError("alpha must be finite and >= 0")


@dataclass(frozen=True)
class Thresholds:
    """Per-class rejection thresholds ``tau``, each in (0, 1]; not the
    :func:`class_sd` statistic they were fitted from."""

    tau: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        if not np.all((tau > 0) & (tau <= 1)):  # NaN fails too
            raise ValidationError("thresholds must lie in (0, 1]")
        object.__setattr__(self, "tau", tau)


def class_weights(labels, train_mask, num_classes: int) -> np.ndarray:
    """Imbalance weights (n - n_i) / n_i per class; absent classes get 1."""
    mask = np.asarray(train_mask, dtype=bool)
    y = np.asarray(labels)[mask]
    if y.size == 0:
        raise ValidationError("empty train mask")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise ValidationError("labels on masked rows must be valid output units")
    n = y.size
    counts = np.bincount(y, minlength=num_classes).astype(np.float64)
    weights = np.ones(num_classes, dtype=np.float64)
    present = counts > 0
    weights[present] = (n - counts[present]) / counts[present]
    # a class covering every example would get weight 0; keep it positive
    weights[weights <= 0] = 1.0
    return weights


def class_sd(train_outputs, labels, train_mask) -> np.ndarray:
    """The per-task statistic of :func:`fit_thresholds`: one SD per class.

    Checks that the outputs are sigmoid values in [0, 1].  The outputs of
    class i's masked training instances are mirrored around 1
    (y -> 1 + (1 - y)) and their standard deviation is taken about the
    fixed mean 1 with divisor = set size.  Classes with no training
    instances get NaN.
    """
    outputs = np.asarray(train_outputs, dtype=np.float64)
    if not np.all((outputs >= 0) & (outputs <= 1)):  # NaN fails too
        raise ValidationError("train_outputs must be sigmoid values in [0, 1]")
    mask = np.asarray(train_mask, dtype=bool)
    y = np.asarray(labels)
    sds = np.full(outputs.shape[1], np.nan)
    for i in range(sds.size):
        vals = outputs[mask & (y == i), i]
        if vals.size:
            # mirrored set {y} U {2 - y} has mean 1 by construction; SD about 1
            # with divisor 2n collapses to sqrt(mean((1 - y)^2))
            sds[i] = np.sqrt(np.mean((1.0 - vals) ** 2))
    return sds


def thresholds_from_sd(sd, cfg: DetectorConfig) -> Thresholds:
    """The per-config step of :func:`fit_thresholds`, from :func:`class_sd`'s statistic.

    Without risk reduction every threshold is tau_min.  With it,
    tau_i = max(tau_min, 1 - alpha * SD_i), and classes without an SD fall
    back to tau_min.  A caller that records ``sd`` keeps its own copy.
    """
    tau = np.full(len(sd), cfg.tau_min, dtype=np.float64)
    if not cfg.use_risk_reduction:
        return Thresholds(tau)
    present = ~np.isnan(sd)
    tau[present] = np.maximum(cfg.tau_min, 1.0 - cfg.alpha * sd[present])
    return Thresholds(tau)


def fit_thresholds(train_outputs, labels, train_mask, cfg: DetectorConfig) -> Thresholds:
    """Per-class thresholds from sigmoid training outputs.

    :func:`class_sd`, then :func:`thresholds_from_sd`: a grid of detectors
    on one training can compute the statistic once and each threshold from
    it.
    """
    return thresholds_from_sd(class_sd(train_outputs, labels, train_mask), cfg)


def sigmoid(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z, _exp_neg_abs(z, np.empty_like(z)), np.empty_like(z))


def _exp_neg_abs(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``exp(-|z|)`` as ``exp(min(z, -z))``, written into ``out``.

    ``min(z, -z)`` is ``-z`` or ``z`` exactly and, unlike ``-|z|``, keeps
    the sign of a nan input.
    """
    np.negative(z, out=out)
    np.minimum(z, out, out=out)
    return np.exp(out, out=out)


def _sigmoid(z: np.ndarray, e: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sigmoid(z)`` from ``e = exp(-|z|)``, written into ``out``; ``e`` becomes ``1 + e``.

    Equal bit for bit to ``1 / (1 + exp(-z))`` for z >= 0 and
    ``exp(z) / (1 + exp(z))`` otherwise, in float64 and in float32: both
    branches divide by ``1 + e``, and the numerator ``exp(min(z, 0))`` is
    exactly 1 for z >= 0 and ``e`` otherwise, so one quotient serves both
    without a select.
    """
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    out /= np.add(e, 1.0, out=e)
    return out


def predict_open(logits, thresholds: Thresholds) -> np.ndarray:
    """Accept/reject per vertex: UNSEEN (-1) or the argmax output unit.

    A vertex is rejected when sigmoid(logit_i) < tau_i for every class;
    otherwise the argmax of the raw logits wins (ties to the lowest unit
    index).
    """
    logits = np.asarray(logits, dtype=np.float64)
    tau = thresholds.tau
    if logits.shape[1] != tau.shape[0]:
        raise ValidationError(
            f"logits width {logits.shape[1]} != number of thresholds {tau.shape[0]}"
        )
    reject = (sigmoid(logits) < tau[None, :]).all(axis=1)
    pred = np.argmax(logits, axis=1)
    pred[reject] = UNSEEN
    return pred
