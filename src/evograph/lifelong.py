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
    check_model_settings,
    expand_output_layer,
    forward,
    init_model,
    train,
)
from .openworld import GDOC, UNSEEN, DetectorConfig, class_sd, predict_open, sigmoid, thresholds_from_sd

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
        try:
            check_model_settings(self.sgc_k, self.dropout_rate)
            self.train_config()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def effective_loss_mode(self) -> str:
        if self.loss_mode != LOSS_AUTO:
            return self.loss_mode
        if self.detector is None:
            return CATEGORICAL
        return WEIGHTED_BCE if self.detector.variant == GDOC else BCE

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            loss_mode=self.effective_loss_mode(),
        )


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _init_models(cfg: ExperimentConfig, g: TemporalGraph, output_dim: int, seeds, *parts: int) -> list:
    """One fresh ``cfg.model`` per seed ``s`` of ``seeds``, initialized by ``_derive_seed(s, *parts)``."""
    return [
        init_model(
            cfg.model, g.feature_dim, cfg.hidden_dim, output_dim,
            sgc_k=cfg.sgc_k, dropout_rate=cfg.dropout_rate, seed=_derive_seed(s, *parts),
        )
        for s in seeds
    ]


def label_rate_subsample(g: TemporalGraph, rate: float, seed: int) -> np.ndarray:
    """Global boolean mask of vertices whose labels may be used for training.

    Samples round(rate * #labeled) labeled vertices uniformly without
    replacement, once for the whole dataset; unselected vertices train as
    unlabeled but are still evaluated at test time.
    """
    if not 0 < rate <= 1:
        raise ConfigError(f"label rate {rate} outside (0, 1]")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    labeled_ids = np.nonzero(g.labels != UNLABELED)[0]
    k = int(np.floor(rate * labeled_ids.size + 0.5))
    mask = np.zeros(g.num_vertices, dtype=bool)
    chosen = np.random.default_rng(seed).choice(labeled_ids, size=k, replace=False)
    mask[chosen] = True
    return mask


def _unit_labels(labels: np.ndarray, classes) -> np.ndarray:
    """Map class ids to their output unit, the index in ``classes``; others become -1."""
    out = np.full(labels.shape, -1, dtype=np.int64)
    for unit, cls in enumerate(classes):
        out[labels == cls] = unit
    return out


def _scoring_logits(model: ModelState, g: TemporalGraph, epoch: int) -> np.ndarray:
    """``forward(model, g)`` for a model that has trained ``epoch`` epochs.

    As in ``train``, logits that are not finite raise ValidationError naming
    the epoch, and the overflows that lead there raise no RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward(model, g)
    if not np.all(np.isfinite(logits)):
        raise ValidationError(f"non-finite logits after epoch {epoch}")
    return logits


def run_sequence(g: TemporalGraph, cfg: ExperimentConfig, seed: Optional[int] = None) -> MetricsReport:
    """Execute the incremental training loop over the full task sequence.

    ``seed`` defaults to the first entry of ``cfg.seeds``.  The report's
    ``events`` hold one dict per task with the model bookkeeping (``t``,
    ``time``, ``output_dim``, ``new_classes``, ``known_classes``) and, with a
    detector, the fitted ``thresholds`` and ``sd``.
    """
    ((report,),), _ = run_sequences(g, [cfg], [cfg.seeds[0] if seed is None else seed])
    return report


def run_sequences(
    g: TemporalGraph, cfgs, seeds=None
) -> tuple[list[list[MetricsReport]], list[ModelState]]:
    """Train every seed over the task sequence and score every config on each task.

    The configs may differ only in ``detector`` and must share one
    ``effective_loss_mode()``, so a single training per seed serves them
    all, and each task's argmax, accuracy and truly-unseen mask are computed
    once per seed, its detector statistic (:func:`class_sd`) too.  ``seeds``
    defaults to ``cfgs[0].seeds``.  Each task trains every seed in one
    :func:`train` call, which sets how many models one epoch pass holds.
    Returns ``(reports, models)``: ``reports[i][j]`` is config ``i``'s
    report, events included, for ``seeds[j]``, the one :func:`run_sequence`
    gives that config and seed alone, and ``models[j]`` is that seed's
    final model.

    If several seeds together raise RunError, they run again one seed at a
    time (see :func:`_for_seeds`).
    """
    if not cfgs:
        raise ConfigError("need at least one config")
    cfg = cfgs[0]
    if any(replace(c, detector=None) != replace(cfg, detector=None) for c in cfgs):
        raise ConfigError("configs may differ only in their detector")
    if len({c.effective_loss_mode() for c in cfgs}) > 1:
        raise ConfigError("configs must share one effective loss mode")
    tasks = build_task_sequence(g, cfg.history_size)
    label_mask = label_rate_subsample(g, cfg.label_rate, cfg.label_seed)
    reports, models = zip(*_for_seeds(lambda batch: _run_batch(g, cfgs, batch, tasks, label_mask), cfg, seeds))
    return [list(r) for r in zip(*reports)], list(models)


def _for_seeds(run, cfg: ExperimentConfig, seeds) -> list:
    """``run(seeds)``, one result per seed of ``seeds`` (default ``cfg.seeds``) trained as one stack.

    If several seeds together raise a package error, they run again one at a
    time, so the error raised is that of the first seed, in order, that fails
    alone: the one a run of the seeds one after another raises.
    """
    seeds = list(cfg.seeds if seeds is None else seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seed must be >= 0, got {min(seeds)}")
    try:
        return run(seeds)
    except EvographError:
        if len(seeds) == 1:
            raise
    return [out for s in seeds for out in run([s])]


def _failure_message(exc: Exception) -> str:
    """The message a run reports for ``exc``, a package error or a MemoryError."""
    message = str(exc)
    if isinstance(exc, MemoryError):
        message = f"out of memory: {message}" if message else "out of memory"
    return message


def _run_batch(g, cfgs, seeds, tasks, label_mask):
    """:func:`run_sequences` for one batch of seeds: per seed, its reports per config and its model.

    A package error or a MemoryError while a task's window is built, trains
    or is scored raises the RunError naming the task.
    """
    cfg = cfgs[0]
    detect = any(c.detector is not None for c in cfgs)
    known_order: list[int] = []
    models: Optional[list] = None
    reports = [[MetricsReport() for _ in cfgs] for _ in seeds]

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
            if models is not None and cfg.restart == WARM and new_classes:
                models = [
                    expand_output_layer(m, len(new_classes), _derive_seed(s, task.t, 1))
                    for m, s in zip(models, seeds)
                ]
            known_order.extend(new_classes)
            if models is None or cfg.restart == COLD:
                models = _init_models(cfg, g, len(known_order), seeds, task.t, 0)

            y_units_train = _unit_labels(train_g.labels, known_order)
            models = train(
                models, train_g, y_units_train, train_sel,
                cfg.train_config(), [_derive_seed(s, task.t, 2) for s in seeds],
            )

            y_true = eval_g.labels[task.test_mask]
            order_arr = np.asarray(known_order, dtype=np.int64)
            truly_unseen = ~np.isin(y_true, order_arr)
            for j, model in enumerate(models):
                test_logits = _scoring_logits(model, eval_g, cfg.epochs)[task.test_mask]
                if detect:
                    train_probs = sigmoid(_scoring_logits(model, train_g, cfg.epochs))
                    sd = class_sd(train_probs, y_units_train, train_sel)
                pred_ids = order_arr[np.argmax(test_logits, axis=1)]
                accuracy = float(np.mean(pred_ids == y_true))
                for c, report in zip(cfgs, reports[j]):
                    event = {
                        "t": task.t,
                        "time": task.time,
                        "output_dim": model.output_dim,
                        "new_classes": list(new_classes),
                        "known_classes": list(known_order),
                    }
                    open_ids = pred_ids
                    if c.detector is not None:
                        thresholds = thresholds_from_sd(sd, c.detector)
                        open_units = predict_open(test_logits, thresholds)
                        open_ids = np.where(open_units == UNSEEN, UNSEEN, order_arr[open_units])
                        event["thresholds"] = thresholds.tau.tolist()
                        event["sd"] = sd.tolist() if c.detector.use_risk_reduction else None
                    said_unseen = open_ids == UNSEEN
                    report.records.append(TaskRecord(
                        t=task.t,
                        accuracy=accuracy,
                        tp=int(np.sum(said_unseen & truly_unseen)),
                        tn=int(np.sum(~said_unseen & ~truly_unseen)),
                        fp=int(np.sum(said_unseen & ~truly_unseen)),
                        fn=int(np.sum(~said_unseen & truly_unseen)),
                        open_f1=open_macro_f1(y_true, open_ids, set(known_order)),
                    ))
                    report.events.append(event)
        except (EvographError, MemoryError) as exc:
            raise RunError(task.t, _failure_message(exc)) from exc
    return list(zip(reports, models))


def two_task_experiment(
    g: TemporalGraph,
    cfg: ExperimentConfig,
    pretrain_epochs: int,
    inference_epochs: int,
    seeds=None,
) -> list[list[float]]:
    """Pre-train on the labeled past, then up-train after inserting the rest.

    With ``T`` the final timestamp of ``g``, pre-training sees only the
    subgraph induced on the labeled vertices with ``time < T``.  Inference
    inserts every other vertex and edge of ``g`` and keeps training on the
    same labels; no new label appears.  Returns per seed of ``seeds``
    (default ``cfg.seeds``) the accuracy on the labeled vertices at ``T``
    before the first and after each of the ``inference_epochs`` epochs.
    Both phases train the seeds as one stack, whose hook scores each model
    after each inference epoch.  Failing seeds raise as in :func:`_for_seeds`,
    a MemoryError as EvographError ``out of memory: ...``.
    """
    if pretrain_epochs < 0 or inference_epochs < 0:
        raise ConfigError("epoch counts must be >= 0")
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
    order_arr = np.asarray(classes, dtype=np.int64)
    y_true = g.labels[test_mask]

    def test_accuracy(m: ModelState, epoch: int) -> float:
        logits = _scoring_logits(m, g, epoch)
        pred = order_arr[np.argmax(logits[test_mask], axis=1)]
        return float(np.mean(pred == y_true))

    def run(batch: list) -> list:
        try:
            models = _init_models(cfg, g, len(classes), batch, 0)
            if pretrain_epochs > 0:
                models = train(
                    models, g_train, _unit_labels(g_train.labels, classes),
                    np.ones(g_train.num_vertices, dtype=bool),
                    replace(cfg.train_config(), epochs=pretrain_epochs), [_derive_seed(s, 1) for s in batch],
                )
            traces = [[test_accuracy(m, pretrain_epochs)] for m in models]
            if inference_epochs > 0:
                # optimizer state restarts fresh for the inference phase
                train(
                    models, g, _unit_labels(g.labels, classes), train_mask,
                    replace(cfg.train_config(), epochs=inference_epochs), [_derive_seed(s, 2) for s in batch],
                    on_epoch=lambda epoch, s, loss, m: traces[s].append(test_accuracy(m, epoch)),
                )
            return traces
        except MemoryError as exc:
            raise EvographError(_failure_message(exc)) from exc

    return _for_seeds(run, cfg, seeds)
