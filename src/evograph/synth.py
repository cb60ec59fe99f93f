"""Seeded generator of desk-scale evolving graphs.

Every timestamp adds a fixed number of vertices.  Each vertex draws its class
from a Zipf-skewed distribution over the classes available so far (newer
classes rank last, so they stay rare), gets a feature row equal to its class
center plus Gaussian noise, and wires edges into the current and up to
``window_back`` earlier timestamps with class-dependent probabilities.
Classes introduced by the schedule are guaranteed at least one vertex at
their introduction timestamp.

The seed fixes the graph through the order of the draws: first a permutation
that gives each class its basis axis, then, vertex by vertex in id order,
three bit-generator calls -- the class uniform (skipped for a class the
schedule forces), searched in ``Generator.choice``'s own normalised cdf; the
``feature_dim`` standard normals of the noise row; and one uniform per
candidate (each earlier vertex in the window), an edge where it falls below
the pair's edge probability.  Everything that draws nothing -- labels,
class-center offsets, the same-class tests and the edge arrays -- runs as
whole-array work on a block of a timestamp's vertices once their draws are in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .graph import TemporalGraph


@dataclass(frozen=True)
class SynthConfig:
    num_timestamps: int = 10
    vertices_per_timestamp: int = 30
    num_initial_classes: int = 4
    new_class_schedule: dict = field(default_factory=dict)
    class_skew: float = 1.0
    feature_dim: int = 16
    feature_noise: float = 0.5
    intra_class_edge_prob: float = 0.08
    inter_class_edge_prob: float = 0.01
    window_back: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.num_timestamps < 1 or self.vertices_per_timestamp < 1:
            raise ConfigError("need at least one timestamp and one vertex per timestamp")
        if self.num_initial_classes < 1:
            raise ConfigError("need at least one initial class")
        if 0 in self.new_class_schedule:
            raise ConfigError(
                "new_class_schedule at timestamp 0 conflicts with num_initial_classes"
            )
        if any(t < 0 or t >= self.num_timestamps for t in self.new_class_schedule):
            raise ConfigError("new_class_schedule timestamps outside the generated range")
        for t, count in self.new_class_schedule.items():
            if count < 0:
                raise ConfigError(f"new_class_schedule at timestamp {t}: negative class count {count}")
            if count > self.vertices_per_timestamp:
                raise ConfigError(
                    f"new_class_schedule at timestamp {t}: {count} new classes but only "
                    f"{self.vertices_per_timestamp} vertices per timestamp to give them"
                )
        if not 0 <= self.inter_class_edge_prob <= self.intra_class_edge_prob <= 1:
            raise ConfigError("need 0 <= inter_class_edge_prob <= intra_class_edge_prob <= 1")
        for name in ("class_skew", "feature_noise"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.window_back < 0:
            raise ConfigError("window_back must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        total = self.total_classes
        if self.feature_dim < total:
            raise ConfigError(
                f"feature_dim {self.feature_dim} < total classes {total}; "
                "class centers need distinct basis axes"
            )

    @property
    def total_classes(self) -> int:
        return self.num_initial_classes + sum(self.new_class_schedule.values())


def _zipf_probs(m: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, m + 1, dtype=np.float64)
    p = ranks**-skew
    return p / p.sum()


# Candidate uniforms per block: a timestamp's vertices are drawn in blocks of
# max(1, _BLOCK_ENTRIES // width) rows, width being the candidate count of its
# last vertex, so a block buffer holds at most max(_BLOCK_ENTRIES, width) doubles.
_BLOCK_ENTRIES = 1 << 20


def generate(cfg: SynthConfig) -> TemporalGraph:
    """Deterministic evolving graph for the given config."""
    rng = np.random.default_rng(cfg.seed)
    total_classes = cfg.total_classes
    # one distinct basis axis per class, in seeded random order
    axes = rng.permutation(cfg.feature_dim)[:total_classes]

    per_ts = cfg.vertices_per_timestamp
    n = cfg.num_timestamps * per_ts
    times = np.repeat(np.arange(cfg.num_timestamps, dtype=np.int64), per_ts)
    labels = np.empty(n, dtype=np.int64)
    features = np.empty((n, cfg.feature_dim), dtype=np.float64)
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []

    available = cfg.num_initial_classes
    for ts in range(cfg.num_timestamps):
        forced = cfg.new_class_schedule.get(ts, 0)
        first_new = available
        available += forced
        # Generator.choice's own normalisation, so a uniform picks the class it would
        cdf = _zipf_probs(available, cfg.class_skew).cumsum()
        cdf /= cdf[-1]

        first, end = ts * per_ts, (ts + 1) * per_ts
        cand_lo = max(ts - cfg.window_back, 0) * per_ts
        width = max(end - 1 - cand_lo, 1)
        rows = max(1, _BLOCK_ENTRIES // width)
        for lo in range(first, end, rows):
            hi = min(lo + rows, end)
            class_u = np.zeros(hi - lo)
            # 1.0 is never below an edge probability, so unused cells never hit
            edge_u = np.ones((hi - lo, width))
            for vid in range(lo, hi):
                if vid - first >= forced:
                    class_u[vid - lo] = rng.random()
                rng.standard_normal(out=features[vid])
                if vid > cand_lo:
                    rng.random(out=edge_u[vid - lo, :vid - cand_lo])

            j = np.arange(lo, hi) - first
            labels[lo:hi] = np.where(j < forced, first_new + j, cdf.searchsorted(class_u, side="right"))
            # an edge needs u < intra (same class) or u < inter <= intra (other classes)
            flat = edge_u.ravel()
            hit = np.flatnonzero(flat < cfg.intra_class_edge_prob)
            keep = flat[hit] < cfg.inter_class_edge_prob
            row, col = np.divmod(hit, width)
            row += lo
            col += cand_lo
            keep |= labels[row] == labels[col]
            src.append(col[keep])
            dst.append(row[keep])

    # Generator.normal(loc, scale) is loc + scale * z; the + 0.0 turns -0.0 into 0.0
    features *= cfg.feature_noise
    features += 0.0
    features[np.arange(n), axes[labels]] += 1.0
    return TemporalGraph(
        num_vertices=n,
        edges=np.stack([np.concatenate(src), np.concatenate(dst)], axis=1),
        time=times,
        features=features.astype(np.float32),
        labels=labels,
        num_classes=total_classes,
    )
