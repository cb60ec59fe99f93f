"""Evaluation measures and the per-run metrics report.

The "unseen" virtual class is encoded in prediction/label arrays as
:data:`evograph.openworld.UNSEEN` (-1), the sentinel its detectors emit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .openworld import UNSEEN


def avg_accuracy(per_task_accuracies) -> float:
    """Unweighted mean accuracy over tasks."""
    acc = np.asarray(list(per_task_accuracies), dtype=np.float64)
    if acc.size == 0:
        raise ValidationError("no per-task accuracies")
    return float(acc.mean())


def forward_transfer(acc_warm, acc_cold) -> float:
    """Mean accuracy gain of warm over cold restarts from task 2 onward."""
    warm = np.asarray(list(acc_warm), dtype=np.float64)
    cold = np.asarray(list(acc_cold), dtype=np.float64)
    if warm.shape != cold.shape:
        raise ValidationError("warm/cold accuracy sequences differ in length")
    if warm.size < 2:
        raise ValidationError("forward transfer needs at least 2 tasks")
    return float(np.mean(warm[1:] - cold[1:]))


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def open_macro_f1(y_true, y_pred, known_classes) -> float:
    """Macro-F1 over known classes plus the virtual "unseen" class.

    True labels outside ``known_classes`` are mapped to unseen before
    scoring.  Classes with zero true and zero predicted instances are
    excluded from the average; zero-denominator precision/recall counts 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0 or y_true.shape != y_pred.shape:
        raise ValidationError("empty or mismatched label arrays")
    known = set(int(c) for c in known_classes)
    mapped = np.where(np.isin(y_true, sorted(known)), y_true, UNSEEN)
    scores = []
    for cls in sorted(known) + [UNSEEN]:
        t = mapped == cls
        p = y_pred == cls
        if not t.any() and not p.any():
            continue
        tp = int(np.sum(t & p))
        scores.append(_f1(tp, int(p.sum()) - tp, int(t.sum()) - tp))
    return float(np.mean(scores)) if scores else 0.0


def mcc(tp: int, tn: int, fp: int, fn: int) -> float:
    """Matthews correlation of the unseen-vs-known binary; 0 on degenerate counts."""
    if min(tp, tn, fp, fn) < 0:
        raise ValidationError("counts must be non-negative")
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / math.sqrt(denom))


def _check_distribution(dist: dict) -> None:
    total = 0.0
    for y, p in dist.items():
        if p < 0:
            raise ValidationError(f"negative probability for class {y}")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"distribution sums to {total}, expected 1")


def drift_magnitude(p_prev: dict, p_curr: dict) -> float:
    """Total variation distance between consecutive class distributions."""
    _check_distribution(p_prev)
    _check_distribution(p_curr)
    support = set(p_prev) | set(p_curr)
    return 0.5 * sum(abs(p_prev.get(y, 0.0) - p_curr.get(y, 0.0)) for y in support)


def symmetric_divergence(p: dict, q: dict) -> float:
    """Symmetrized KL divergence 0.5*KL(P||Q) + 0.5*KL(Q||P), natural log.

    Both distributions must have the same support: a zero q-mass where
    p > 0 (or vice versa) makes the divergence infinite and is an error.
    """
    support = sorted(set(p) | set(q))
    pv = np.array([p.get(y, 0.0) for y in support], dtype=np.float64)
    qv = np.array([q.get(y, 0.0) for y in support], dtype=np.float64)
    if np.any(pv < 0) or np.any(qv < 0):
        raise ValidationError("negative probabilities")
    if np.any((qv == 0) & (pv > 0)) or np.any((pv == 0) & (qv > 0)):
        raise ValidationError("zero mass on the other distribution's support")
    kept = (pv > 0) & (qv > 0)
    pk, qk = pv[kept], qv[kept]
    kl_pq = float(np.sum(pk * np.log(pk / qk)))
    kl_qp = float(np.sum(qk * np.log(qk / pk)))
    return 0.5 * kl_pq + 0.5 * kl_qp


@dataclass(frozen=True)
class TaskRecord:
    """Per-task evaluation outcome; counts refer to the unseen-vs-known binary."""

    t: int
    accuracy: float
    tp: int
    tn: int
    fp: int
    fn: int
    open_f1: float


@dataclass
class MetricsReport:
    """Per-task records plus aggregates recomputable from them."""

    records: list[TaskRecord] = field(default_factory=list)
    # per-task run bookkeeping (see run_sequence); not part of the value or the JSONL form
    events: list[dict] = field(default_factory=list, compare=False)

    def accuracies(self) -> list[float]:
        return [r.accuracy for r in self.records]

    def avg_accuracy(self) -> float:
        return avg_accuracy(self.accuracies())

    def counts(self) -> tuple[int, int, int, int]:
        return (
            sum(r.tp for r in self.records),
            sum(r.tn for r in self.records),
            sum(r.fp for r in self.records),
            sum(r.fn for r in self.records),
        )

    def mcc(self) -> float:
        return mcc(*self.counts())

    def open_macro_f1(self) -> float:
        if not self.records:
            raise ValidationError("empty report")
        return float(np.mean([r.open_f1 for r in self.records]))

    def summary(self) -> dict:
        tp, tn, fp, fn = self.counts()
        return {
            "num_tasks": len(self.records),
            "avg_accuracy": self.avg_accuracy(),
            "mcc": self.mcc(),
            "open_macro_f1": self.open_macro_f1(),
            "tp": tp,
            "tn": tn,
            "fp": fp,
            "fn": fn,
        }

    def to_jsonl(self) -> str:
        """One JSON object per task, then a summary object."""
        lines = [
            json.dumps({"kind": "task", **asdict(r)}, sort_keys=True)
            for r in self.records
        ]
        lines.append(json.dumps({"kind": "summary", **self.summary()}, sort_keys=True))
        return "\n".join(lines) + "\n"


def mean_ci95(values) -> tuple[float, float]:
    """Mean and 1.96 * standard error of the mean (0 for a single value)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("no values")
    if arr.size == 1:
        return float(arr[0]), 0.0
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return float(arr.mean()), 1.96 * sem
