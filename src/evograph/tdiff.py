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

from .errors import ValidationError
from .graph import TemporalGraph


@dataclass(frozen=True)
class TimeDiffHistogram:
    """Histogram of non-negative integer time differences within k hops."""

    counts: dict[int, int]
    k: int

    def total(self) -> int:
        return sum(self.counts.values())

    def max_diff(self) -> int:
        return max(self.counts) if self.counts else 0

    def as_sorted_items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


# Rows per block are max(1, _BLOCK_ENTRIES // |V|), so one block's reach matrix
# holds at most max(_BLOCK_ENTRIES, |V|) entries: the bound on peak memory.
_BLOCK_ENTRIES = 1 << 23


def k_hop_time_diffs(g: TemporalGraph, k: int) -> TimeDiffHistogram:
    """Distribution of time differences within each vertex's k-hop neighborhood.

    One sparse pass over row blocks of the adjacency matrix A.  A block's
    reach is the boolean A + A^2 + ... + A^k restricted to its rows, so a pair
    counts once however many paths connect it; the diagonal (the source
    itself) is dropped.  Memory is bounded by the block, at most
    max(2**23, |V|) reach entries, whose differences are tallied with
    ``np.unique`` so that no array grows with the range of the timestamps.
    O(|V| * b^k) work for average degree b, all of it in numpy and scipy.
    """
    if k < 1:
        raise ValidationError("hop bound k must be >= 1")
    n = g.num_vertices
    # Boolean products are OR-of-ANDs, so entries mark reachability and never wrap.
    adj = g.adjacency().astype(bool)
    time = g.time
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    counts: dict[int, int] = {}
    for lo in range(0, n, rows):
        front = reach = adj[lo:lo + rows]
        for _ in range(k - 1):
            front = front @ adj
            reach = reach + front
        reach = reach.tocoo()
        src = reach.row + lo
        diffs = time[src] - time[reach.col]
        values, tally = np.unique(diffs[(diffs >= 0) & (src != reach.col)], return_counts=True)
        for d, c in zip(values.tolist(), tally.tolist()):
            counts[d] = counts.get(d, 0) + c
    return TimeDiffHistogram(counts=counts, k=k)


def percentile(h: TimeDiffHistogram, p: float) -> int:
    """Nearest-rank percentile: smallest d with cumulative count >= ceil(p/100 * total)."""
    if not h.counts:
        raise ValidationError("percentile of an empty histogram")
    if not 0 < p <= 100:
        raise ValidationError(f"percentile {p} outside (0, 100]")
    total = h.total()
    rank = math.ceil(p / 100.0 * total)
    cum = 0
    for value, count in h.as_sorted_items():
        cum += count
        if cum >= rank:
            return value
    return h.max_diff()


def history_sizes(h: TimeDiffHistogram, percentiles) -> list[int]:
    """Percentiles of ``h``, floored to 1, deduplicated in order.

    An empty histogram (no pair within k hops) counts as percentile 0 and so
    suggests ``[1]``.
    """
    out: list[int] = []
    for p in percentiles:
        size = max(1, percentile(h, p)) if h.counts else 1
        if size not in out:
            out.append(size)
    return out


def suggest_history_sizes(g: TemporalGraph, k: int, percentiles) -> list[int]:
    """Candidate history sizes from the k-hop time differences of ``g`` (see history_sizes)."""
    return history_sizes(k_hop_time_diffs(g, k), percentiles)
