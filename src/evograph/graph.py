"""Temporal graph storage, induced subgraphs, and task-sequence construction.

A :class:`TemporalGraph` is an immutable snapshot container: vertices carry a
feature row, an integer timestamp, and an optional class label; edges are
undirected and stored once in canonical (min, max) order.  An induced
subgraph re-indexes vertices densely.  A task's history windows are vertex-id
arrays (see :class:`TaskView`), induced only where a model needs the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import TaskSequenceError, ValidationError

UNLABELED = -1

# Sentinel history size: a task window keeps the entire history.
FULL = None

_START_FRACTION = 0.25  # share of the vertices up to the start timestamp


def _canonical_edges(edges, num_vertices: int) -> np.ndarray:
    """Symmetrize, deduplicate, and drop self-loops; returns (E, 2) int64."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
        bad = arr[(arr < 0) | (arr >= num_vertices)].flat[0]
        raise ValidationError(
            f"edge endpoint {bad} out of range for {num_vertices} vertices"
        )
    keep = arr[:, 0] != arr[:, 1]
    arr = arr[keep]
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    # lo * n + hi sorts like (lo, hi), so sorted unique keys give lexicographic
    # order.  Sort and mask rather than np.unique, whose hash table (numpy 2.4)
    # is ~25x slower on 82k random edge keys.
    keys = np.sort(lo * num_vertices + hi)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.stack(np.divmod(keys[first], num_vertices), axis=1)


@dataclass(eq=False)
class TemporalGraph:
    """An evolving graph snapshot with per-vertex time, features, and labels.

    ``edges`` may be passed in any direction and with duplicates or
    self-loops; storage is canonicalized (undirected, deduplicated, loop-free)
    at construction.  ``labels`` uses ``UNLABELED`` (-1) for vertices without
    a class.  Arrays are frozen after validation; the graph is safe to share.
    """

    num_vertices: int
    edges: np.ndarray
    time: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    _csr: Optional[sp.csr_matrix] = field(default=None, init=False, repr=False, compare=False)
    # (kind, sgc_k) -> (layer-0 input, propagation pair) of a models pass on this graph
    _model_inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float32)
        self.edges = _canonical_edges(self.edges, self.num_vertices)

        n = self.num_vertices
        if self.time.shape != (n,):
            raise ValidationError(f"time has {self.time.shape[0]} entries, expected {n}")
        if self.labels.shape != (n,):
            raise ValidationError(f"labels has {self.labels.shape[0]} entries, expected {n}")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValidationError(
                f"features has {self.features.shape[0]} rows, expected {n}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite values")
        labeled = self.labels != UNLABELED
        if np.any(self.labels[labeled] < 0) or np.any(self.labels[labeled] >= self.num_classes):
            bad = self.labels[labeled & ((self.labels < 0) | (self.labels >= self.num_classes))][0]
            raise ValidationError(
                f"label {bad} out of range for {self.num_classes} classes"
            )

        for arr in (self.edges, self.time, self.features, self.labels):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric CSR adjacency (no self-loops), built once and cached."""
        if self._csr is None:
            n = self.num_vertices
            if self.num_edges == 0:
                self._csr = sp.csr_matrix((n, n), dtype=np.float64)
            else:
                src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
                dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
                data = np.ones(src.shape[0], dtype=np.float64)
                self._csr = sp.csr_matrix((data, (src, dst)), shape=(n, n))
        return self._csr

    def timestamps(self) -> np.ndarray:
        """Distinct timestamps present, ascending."""
        return np.unique(self.time)

    def equals(self, other: "TemporalGraph") -> bool:
        """Structural equality: same vertices, edges, times, labels and features."""
        return (
            self.num_vertices == other.num_vertices
            and self.num_classes == other.num_classes
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.time, other.time)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class TaskView:
    """One evaluation task: the windows a model trains and is tested on.

    ``train_vertices`` is the history window ending at the timestamp just
    before ``time``; ``vertices`` is the window ending at ``time``.  Both hold
    vertex ids of the source graph, sorted ascending.  ``test_mask`` aligns
    with ``vertices`` and marks the labeled vertices at ``time``, none of
    which is in ``train_vertices``.
    """

    t: int
    time: int
    train_vertices: np.ndarray
    vertices: np.ndarray
    test_mask: np.ndarray


def induced_subgraph(g: TemporalGraph, keep: np.ndarray) -> TemporalGraph:
    """Subgraph on ``keep`` (vertex ids of ``g``), densely re-indexed.

    Keeps an edge only when both endpoints survive; the result's vertex
    ``i`` is ``g``'s vertex ``np.unique(keep)[i]``.
    """
    keep = np.unique(np.asarray(keep, dtype=np.int64))
    if keep.size and (keep.min() < 0 or keep.max() >= g.num_vertices):
        raise ValidationError("keep ids out of range")
    remap = np.full(g.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    if g.num_edges:
        mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
        new_edges = remap[g.edges[mask]]
    else:
        new_edges = np.empty((0, 2), dtype=np.int64)
    return TemporalGraph(
        num_vertices=int(keep.size),
        edges=new_edges,
        time=g.time[keep],
        features=g.features[keep],
        labels=g.labels[keep],
        num_classes=g.num_classes,
    )


def _window(g: TemporalGraph, t: int, c) -> np.ndarray:
    """Ids of the vertices with ``t - c <= time(v) <= t`` (all ``time <= t`` when FULL)."""
    if c is FULL:
        return np.nonzero(g.time <= t)[0]
    if c < 0:
        raise ValidationError("history size must be >= 0 or FULL")
    return np.nonzero((g.time >= t - c) & (g.time <= t))[0]


def start_timestamp(g: TemporalGraph) -> int:
    """Smallest timestamp whose cumulative vertex count reaches 25% of ``g``."""
    ts, counts = np.unique(g.time, return_counts=True)
    idx = int(np.searchsorted(np.cumsum(counts), _START_FRACTION * g.num_vertices))
    return int(ts[min(idx, ts.size - 1)])


def build_task_sequence(g: TemporalGraph, c=FULL) -> list[TaskView]:
    """Split ``g`` into evaluation tasks, one per timestamp after the start.

    The start timestamp is where the cumulative vertex count first reaches
    25% of the graph.  Each later timestamp ``tau`` becomes one task: it
    trains on the window ``prev - c <= time <= prev`` (``c`` in time units;
    all ``time <= prev`` when FULL), where ``prev`` is the timestamp just
    before ``tau``, and is tested on the labeled vertices at ``tau`` within
    the window ending at ``tau``, which is the next task's training window
    (the same array).
    """
    ts = g.timestamps()
    if ts.size < 2:
        raise TaskSequenceError("need at least 2 distinct timestamps")
    t0 = start_timestamp(g)
    first = int(np.searchsorted(ts, t0, side="right"))
    if first == ts.size:
        raise TaskSequenceError(
            f"no timestamps after the 25% start timestamp {t0}"
        )
    labeled = g.labels != UNLABELED
    windows = [_window(g, int(s), c) for s in ts[first - 1:]]
    return [
        TaskView(
            t=t,
            time=int(tau),
            train_vertices=train_vertices,
            vertices=vertices,
            test_mask=(g.time[vertices] == tau) & labeled[vertices],
        )
        for t, (tau, train_vertices, vertices) in enumerate(
            zip(ts[first:], windows, windows[1:]), start=1
        )
    ]
