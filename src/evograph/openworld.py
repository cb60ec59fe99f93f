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
        if not self.alpha >= 0:
            raise ValidationError("alpha must be >= 0")


@dataclass(frozen=True)
class Thresholds:
    """Per-class rejection thresholds, each >= the configured minimum.

    ``sd`` carries the mirrored-output standard deviations the thresholds
    were fitted from (NaN for classes without training instances, None when
    risk reduction was off); diagnostic only.
    """

    tau: np.ndarray
    sd: np.ndarray = None

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        if np.any(tau <= 0) or np.any(tau > 1):
            raise ValidationError("thresholds must lie in (0, 1]")
        object.__setattr__(self, "tau", tau)
        if self.sd is not None:
            object.__setattr__(self, "sd", np.asarray(self.sd, dtype=np.float64))


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


def fit_thresholds(train_outputs, labels, train_mask, cfg: DetectorConfig) -> Thresholds:
    """Per-class thresholds from sigmoid training outputs.

    Without risk reduction every threshold is tau_min.  With it, the outputs
    of class i are mirrored around 1 (y -> 1 + (1 - y)), the standard
    deviation is taken about the fixed mean 1 with divisor = set size, and
    tau_i = max(tau_min, 1 - alpha * SD_i).  Classes with no training
    instances fall back to tau_min.
    """
    outputs = np.asarray(train_outputs, dtype=np.float64)
    if np.any(outputs < 0) or np.any(outputs > 1):
        raise ValidationError("train_outputs must be sigmoid values in [0, 1]")
    num_classes = outputs.shape[1]
    if not cfg.use_risk_reduction:
        return Thresholds(np.full(num_classes, cfg.tau_min))
    mask = np.asarray(train_mask, dtype=bool)
    y = np.asarray(labels)
    tau = np.full(num_classes, cfg.tau_min, dtype=np.float64)
    sds = np.full(num_classes, np.nan)
    for i in range(num_classes):
        vals = outputs[mask & (y == i), i]
        if vals.size == 0:
            continue
        # mirrored set {y} U {2 - y} has mean 1 by construction; SD about 1
        # with divisor 2n collapses to sqrt(mean((1 - y)^2))
        sd = float(np.sqrt(np.mean((1.0 - vals) ** 2)))
        sds[i] = sd
        tau[i] = max(cfg.tau_min, 1.0 - cfg.alpha * sd)
    return Thresholds(tau, sd=sds)


def sigmoid(z) -> np.ndarray:
    return np.asarray(_sigmoid_exp(np.asarray(z, dtype=np.float64))[0])


def _sigmoid_exp(z: np.ndarray):
    """``(sigmoid(z), exp(-|z|))`` for a float64 array.

    Equal bit for bit to ``1 / (1 + exp(-z))`` for z >= 0 and
    ``exp(z) / (1 + exp(z))`` otherwise.  With ``e = exp(min(z, -z))`` both
    branches divide by ``1 + e``, and the numerator ``exp(min(z, 0))`` is
    exactly 1 for z >= 0 and ``e`` otherwise, so one quotient serves both
    without a select.  ``min(z, -z)`` is ``-z`` or ``z`` exactly and, unlike
    ``-|z|``, keeps the sign of a nan input.
    """
    e = np.exp(np.minimum(z, -z))
    s = np.exp(np.minimum(z, 0.0))
    s /= 1.0 + e
    return s, e


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
