"""k-neighborhood time differences and percentile-derived history sizes.

For every ordered vertex pair (u, v) with v reachable from u via 1..k edges
and time(v) <= time(u), the difference time(u) - time(v) is counted once.
Pairs with equal timestamps therefore contribute in both directions.  The
percentiles of this distribution serve as candidate history sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import TemporalGraph


@dataclass(frozen=True)
class TimeDiffHistogram:
    """Histogram of non-negative integer time differences within k hops."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def as_sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


# Rows per block are max(1, _BLOCK_ENTRIES // |V|), so one block's reach matrix
# holds at most max(_BLOCK_ENTRIES, |V|) entries: the bound on peak memory.
_BLOCK_ENTRIES = 1 << 23


def k_hop_time_diffs(g: TemporalGraph, k: int) -> TimeDiffHistogram:
    """Distribution of time differences within each vertex's k-hop neighborhood.

    One sparse pass over row blocks of the adjacency matrix A.  A block's
    reach is its rows of the boolean A (A + I)^(k-1) = A + A^2 + ... + A^k,
    so a pair counts once however many paths connect it.  The reach holds the
    diagonal (the source itself, a 0-difference) wherever a closed walk of at
    most k edges exists; those entries are subtracted from bin 0.  Memory is
    bounded by the block, at most max(2**23, |V|) reach entries, whose
    differences are tallied with ``np.unique`` so that no array grows with the
    range of the timestamps.  Differences are exact for any int64 timestamps,
    up to 2**64 - 1.  O(|V| * b^k) work for average degree b, all of it in
    numpy and scipy.
    """
    if k < 1:
        raise ValidationError("hop bound k must be >= 1")
    n = g.num_vertices
    # Boolean products are OR-of-ANDs, so entries mark reachability and never wrap.
    adj = g.adjacency().astype(bool)
    step = adj + sp.identity(n, dtype=bool, format="csr")
    time = g.time
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    counts: dict[int, int] = {}
    for lo in range(0, n, rows):
        reach = adj[lo:lo + rows]
        for _ in range(k - 1):
            reach = reach @ step
        later = np.repeat(time[lo:lo + rows], np.diff(reach.indptr))
        earlier = time[reach.indices]
        # a kept difference lies in [0, 2**64 - 1], so the wrapping int64 subtraction,
        # read as uint64, is exact
        diffs = (later - earlier)[later >= earlier].view(np.uint64)
        values, tally = np.unique(diffs, return_counts=True)
        if tally.size:  # a diagonal entry is a 0-difference, so bin 0 is values[0]
            tally[0] -= np.count_nonzero(reach.diagonal(k=lo))
        for d, c in zip(values.tolist(), tally.tolist()):
            if c:
                counts[d] = counts.get(d, 0) + c
    return TimeDiffHistogram(counts)


def percentile(h: TimeDiffHistogram, p: float) -> int:
    """Nearest-rank percentile: smallest d with cumulative count >= ceil(p/100 * total).

    An empty histogram (no pair within k hops) has every percentile 0.
    """
    if not 0 < p <= 100:
        raise ValidationError(f"percentile {p} outside (0, 100]")
    if not h.counts:
        return 0
    values, counts = zip(*h.as_sorted_items())
    rank = math.ceil(p / 100.0 * h.total())
    return values[int(np.searchsorted(np.cumsum(counts), rank))]


def history_sizes(h: TimeDiffHistogram, percentiles) -> list[int]:
    """Percentiles of ``h``, floored to 1, deduplicated in order.

    An empty histogram has every percentile 0 (see :func:`percentile`) and so
    suggests ``[1]``.
    """
    out: list[int] = []
    for p in percentiles:
        size = max(1, percentile(h, p))
        if size not in out:
            out.append(size)
    return out


def suggest_history_sizes(g: TemporalGraph, k: int, percentiles) -> list[int]:
    """Candidate history sizes from the k-hop time differences of ``g`` (see history_sizes)."""
    return history_sizes(k_hop_time_diffs(g, k), percentiles)
