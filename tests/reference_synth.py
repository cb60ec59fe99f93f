"""Reference synth generator: the per-vertex form the block generator replaced.

This is the earlier ``synth.generate``, kept verbatim as the oracle the tests
hold :func:`evograph.generate` to, bit for bit: ``rng.choice`` per vertex, a
per-vertex ``np.where`` over its candidates, and edges gathered as a list of
Python tuples.
"""

import numpy as np

from evograph.graph import TemporalGraph
from evograph.synth import SynthConfig


def _zipf_probs(m: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, m + 1, dtype=np.float64)
    p = ranks**-skew
    return p / p.sum()


def generate(cfg: SynthConfig) -> TemporalGraph:
    """Deterministic evolving graph for the given config."""
    rng = np.random.default_rng(cfg.seed)
    total_classes = cfg.total_classes
    # one distinct basis axis per class, in seeded random order
    axes = rng.permutation(cfg.feature_dim)[:total_classes]

    n = cfg.num_timestamps * cfg.vertices_per_timestamp
    times = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    features = np.empty((n, cfg.feature_dim), dtype=np.float64)
    edges: list[tuple[int, int]] = []

    available = cfg.num_initial_classes
    vid = 0
    for ts in range(cfg.num_timestamps):
        introduced = cfg.new_class_schedule.get(ts, 0) if ts > 0 else 0
        forced = list(range(available, available + introduced))
        available += introduced
        probs = _zipf_probs(available, cfg.class_skew)

        window_lo = ts - cfg.window_back
        cand_lo = int(np.searchsorted(times[:vid], window_lo))

        for j in range(cfg.vertices_per_timestamp):
            if j < len(forced):
                cls = forced[j]
            else:
                cls = int(rng.choice(available, p=probs))
            times[vid] = ts
            labels[vid] = cls
            features[vid] = rng.normal(0.0, cfg.feature_noise, cfg.feature_dim)
            features[vid, axes[cls]] += 1.0

            cands = np.arange(cand_lo, vid)
            if cands.size:
                same = labels[cands] == cls
                p_edge = np.where(same, cfg.intra_class_edge_prob, cfg.inter_class_edge_prob)
                hit = rng.random(cands.size) < p_edge
                edges.extend((int(c), vid) for c in cands[hit])
            vid += 1

    return TemporalGraph(
        num_vertices=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        time=times,
        features=features.astype(np.float32),
        labels=labels,
        num_classes=total_classes,
    )
