"""Incremental training over a task sequence: restarts, growth, label budgets.

For each evaluation task the engine trains on the history window ending at
the previous timestamp (warm restarts reuse the surviving
parameters, cold restarts reinitialize), grows the output layer when classes
enter the training data for the first time, predicts the vertices new at the
task's timestamp, and scores each config's unseen-class detector, if any,
with thresholds re-fit on that task's training outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, EvographError, RunError, ValidationError
from .graph import FULL, UNLABELED, TemporalGraph, build_task_sequence, induced_subgraph
from .metrics import MetricsReport, TaskRecord, open_macro_f1
from .models import (
    BCE,
    CATEGORICAL,
    MODEL_KINDS,
    WEIGHTED_BCE,
    ModelState,
    TrainConfig,
    expand_output_layer,
    forward,
    init_model,
    train,
)
from .openworld import GDOC, UNSEEN, DetectorConfig, fit_thresholds, predict_open, sigmoid

WARM = "warm"
COLD = "cold"

LOSS_AUTO = "auto"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment setup; all reported numbers are deterministic in ``seeds``.

    The learning-rate search grid used when tuning by hand is
    {0.1, 0.05, 0.01, 0.005, 0.001, 0.0005}.
    """

    model: str = "sage"
    hidden_dim: int = 32
    sgc_k: int = 2
    dropout_rate: float = 0.5
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    loss_mode: str = LOSS_AUTO
    history_size: Optional[int] = FULL
    restart: str = WARM
    label_rate: float = 1.0
    label_seed: int = 0
    detector: Optional[DetectorConfig] = None
    seeds: tuple = (0,)

    def __post_init__(self):
        if self.restart not in (WARM, COLD):
            raise ConfigError(f"restart must be warm or cold, got {self.restart!r}")
        if not 0 < self.label_rate <= 1:
            raise ConfigError(f"label_rate {self.label_rate} outside (0, 1]")
        if self.history_size is not FULL and self.history_size < 1:
            raise ConfigError("history_size must be >= 1 or FULL")
        if not self.seeds:
            raise ConfigError("seeds must name at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if self.label_seed < 0:
            raise ConfigError("label_seed must be non-negative")
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if self.sgc_k < 0:
            raise ConfigError("sgc_k must be >= 0")
        if not 0 <= self.dropout_rate < 1:
            raise ConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        try:
            self.train_config(0)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_loss_mode(self) -> str:
        if self.loss_mode != LOSS_AUTO:
            return self.loss_mode
        if self.detector is None:
            return CATEGORICAL
        return WEIGHTED_BCE if self.detector.variant == GDOC else BCE

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            loss_mode=self.effective_loss_mode(),
            seed=seed,
        )


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def label_rate_subsample(g: TemporalGraph, rate: float, seed: int) -> np.ndarray:
    """Global boolean mask of vertices whose labels may be used for training.

    Samples round(rate * #labeled) labeled vertices uniformly without
    replacement, once for the whole dataset; unselected vertices train as
    unlabeled but are still evaluated at test time.
    """
    if not 0 < rate <= 1:
        raise ConfigError(f"label rate {rate} outside (0, 1]")
    labeled_ids = np.nonzero(g.labels != UNLABELED)[0]
    k = int(np.floor(rate * labeled_ids.size + 0.5))
    mask = np.zeros(g.num_vertices, dtype=bool)
    if k >= labeled_ids.size:
        mask[labeled_ids] = True
        return mask
    chosen = np.random.default_rng(seed).choice(labeled_ids, size=k, replace=False)
    mask[chosen] = True
    return mask


def _unit_labels(labels: np.ndarray, unit_of: dict) -> np.ndarray:
    """Map class ids to output-unit indices; unmapped ids become -1."""
    out = np.full(labels.shape, -1, dtype=np.int64)
    for cls, unit in unit_of.items():
        out[labels == cls] = unit
    return out


def run_sequence(g: TemporalGraph, cfg: ExperimentConfig, seed: Optional[int] = None) -> MetricsReport:
    """Execute the incremental training loop over the full task sequence.

    ``seed`` defaults to the first entry of ``cfg.seeds``.  The report's
    ``events`` hold one dict per task with the model bookkeeping (``t``,
    ``time``, ``output_dim``, ``new_classes``, ``known_classes``) and, with a
    detector, the fitted ``thresholds`` and ``sd``.
    """
    (report,), _ = run_sequences(g, [cfg], seed=seed)
    return report


def _score_task(t, train_probs, y_units_train, train_sel, test_logits, y_true, known_order, detector):
    """Task ``t``'s record and thresholds (None without a detector) from its outputs."""
    order_arr = np.asarray(known_order, dtype=np.int64)
    pred_ids = order_arr[np.argmax(test_logits, axis=1)]
    thresholds = None
    open_ids = pred_ids
    if detector is not None:
        thresholds = fit_thresholds(train_probs, y_units_train, train_sel, detector)
        open_units = predict_open(test_logits, thresholds)
        open_ids = np.where(open_units == UNSEEN, UNSEEN, order_arr[open_units])
    truly_unseen = ~np.isin(y_true, order_arr)
    said_unseen = open_ids == UNSEEN
    record = TaskRecord(
        t=t,
        accuracy=float(np.mean(pred_ids == y_true)),
        tp=int(np.sum(said_unseen & truly_unseen)),
        tn=int(np.sum(~said_unseen & ~truly_unseen)),
        fp=int(np.sum(said_unseen & ~truly_unseen)),
        fn=int(np.sum(~said_unseen & truly_unseen)),
        open_f1=open_macro_f1(y_true, open_ids, set(known_order)),
    )
    return record, thresholds


def run_sequences(
    g: TemporalGraph, cfgs, seed: Optional[int] = None
) -> tuple[list[MetricsReport], ModelState]:
    """Train once over the task sequence and score every config on each task.

    The configs may differ only in ``detector`` and must share one
    ``effective_loss_mode()``, so a single training serves them all; each
    gets the report, events included, that :func:`run_sequence` gives it
    alone.  Returns the reports in order and the final task's model.
    """
    if not cfgs:
        raise ConfigError("need at least one config")
    cfg = cfgs[0]
    if any(replace(c, detector=None) != replace(cfg, detector=None) for c in cfgs):
        raise ConfigError("configs may differ only in their detector")
    if len({c.effective_loss_mode() for c in cfgs}) > 1:
        raise ConfigError("configs must share one effective loss mode")
    if seed is None:
        seed = cfg.seeds[0]
    tasks = build_task_sequence(g, cfg.history_size)
    label_mask = label_rate_subsample(g, cfg.label_rate, cfg.label_seed)

    known_order: list[int] = []
    model: Optional[ModelState] = None
    reports = [MetricsReport() for _ in cfgs]

    # task t's eval graph, with its cached inputs, is task t+1's train graph
    eval_g = induced_subgraph(g, tasks[0].train_vertices)
    for task in tasks:
        try:
            train_g, eval_g = eval_g, induced_subgraph(g, task.vertices)
            train_sel = (train_g.labels != UNLABELED) & label_mask[task.train_vertices]
            if not train_sel.any():
                raise ValidationError("no labeled training vertices in the window")
            if not task.test_mask.any():
                raise ValidationError("no labeled test vertices at this timestamp")

            new_classes = [
                int(c)
                for c in np.unique(train_g.labels[train_sel])
                if int(c) not in known_order
            ]
            if model is not None and cfg.restart == WARM and new_classes:
                model = expand_output_layer(model, len(new_classes), _derive_seed(seed, task.t, 1))
            known_order.extend(new_classes)
            if model is None or cfg.restart == COLD:
                model = init_model(
                    cfg.model, g.feature_dim, cfg.hidden_dim, len(known_order),
                    sgc_k=cfg.sgc_k, dropout_rate=cfg.dropout_rate,
                    seed=_derive_seed(seed, task.t, 0),
                )

            unit_of = {cls: j for j, cls in enumerate(known_order)}
            y_units_train = _unit_labels(train_g.labels, unit_of)
            model = train(
                model, train_g, y_units_train, train_sel,
                cfg.train_config(_derive_seed(seed, task.t, 2)),
            )

            test_logits = forward(model, eval_g)[task.test_mask]
            y_true = eval_g.labels[task.test_mask]
            train_probs = None
            if any(c.detector is not None for c in cfgs):
                train_probs = sigmoid(forward(model, train_g))

            for c, report in zip(cfgs, reports):
                record, thresholds = _score_task(
                    task.t, train_probs, y_units_train, train_sel,
                    test_logits, y_true, known_order, c.detector,
                )
                report.records.append(record)
                event = {
                    "t": task.t,
                    "time": task.time,
                    "output_dim": model.output_dim,
                    "new_classes": list(new_classes),
                    "known_classes": list(known_order),
                }
                if thresholds is not None:
                    event["thresholds"] = thresholds.tau.tolist()
                    event["sd"] = None if thresholds.sd is None else thresholds.sd.tolist()
                report.events.append(event)
        except RunError:
            raise
        except EvographError as exc:
            raise RunError(task.t, str(exc)) from exc
    return reports, model


def two_task_experiment(
    g: TemporalGraph,
    cfg: ExperimentConfig,
    pretrain_epochs: int,
    inference_epochs: int,
    seed: Optional[int] = None,
) -> list[float]:
    """Pre-train on the labeled past, then up-train after inserting the rest.

    With ``T`` the final timestamp of ``g``, pre-training sees only the
    subgraph induced on the labeled vertices with ``time < T``.  Inference
    inserts every other vertex and edge of ``g`` and keeps training on the
    same labels; no new label appears.  Returns the accuracy on the labeled
    vertices at ``T`` before the first and after each of the
    ``inference_epochs`` continued-training epochs (length
    ``inference_epochs + 1``).
    """
    if pretrain_epochs < 0 or inference_epochs < 0:
        raise ConfigError("epoch counts must be >= 0")
    if seed is None:
        seed = cfg.seeds[0]
    if g.num_vertices == 0:
        raise ValidationError("the graph has no vertices")
    final = int(g.timestamps()[-1])
    labeled = g.labels != UNLABELED
    train_mask = labeled & (g.time < final)
    test_mask = labeled & (g.time == final)
    if not train_mask.any():
        raise ValidationError(f"no labeled vertices before the final timestamp {final}")
    if not test_mask.any():
        raise ValidationError(f"no labeled vertices at the final timestamp {final}")
    g_train = induced_subgraph(g, np.nonzero(train_mask)[0])

    classes = sorted(int(c) for c in np.unique(g_train.labels))
    unit_of = {cls: j for j, cls in enumerate(classes)}
    order_arr = np.asarray(classes, dtype=np.int64)

    model = init_model(
        cfg.model, g.feature_dim, cfg.hidden_dim, len(classes),
        sgc_k=cfg.sgc_k, dropout_rate=cfg.dropout_rate, seed=_derive_seed(seed, 0),
    )
    y_units_train = _unit_labels(g_train.labels, unit_of)
    if pretrain_epochs > 0:
        model = train(
            model, g_train, y_units_train, np.ones(g_train.num_vertices, dtype=bool),
            replace(cfg.train_config(_derive_seed(seed, 1)), epochs=pretrain_epochs),
        )
    y_true = g.labels[test_mask]

    def test_accuracy(m: ModelState) -> float:
        logits = forward(m, g)
        pred = order_arr[np.argmax(logits[test_mask], axis=1)]
        return float(np.mean(pred == y_true))

    trace = [test_accuracy(model)]
    if inference_epochs > 0:
        # optimizer state restarts fresh for the inference phase
        train(
            model, g, _unit_labels(g.labels, unit_of), train_mask,
            replace(cfg.train_config(_derive_seed(seed, 2)), epochs=inference_epochs),
            on_epoch=lambda epoch, loss, m: trace.append(test_accuracy(m)),
        )
    return trace
