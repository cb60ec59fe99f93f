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
from scipy.sparse._sparsetools import csr_matmat

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
    so a pair counts once however many paths connect it.  A block tallies its
    reach entries (u, v) in one of two ways:

    * a table of timestamp-rank pairs: with the block's rows at ranks
      [a, a + span) among the T distinct timestamps, one ``np.bincount`` of
      ``(rank(u) - a) * T + rank(v)`` into ``span * T`` cells, whose cells
      with rank(u) >= rank(v) fold into the bins time(u) - time(v);
    * the kept differences time(u) - time(v) >= 0 themselves, tallied by
      ``np.unique``, when ``span * T`` exceeds the block's reach entries (as
      when every vertex has its own timestamp).

    A block's reach is built one hop at a time, each hop one pass of scipy's
    numeric SpGEMM kernel ``scipy.sparse._sparsetools.csr_matmat`` (private to
    scipy; checked on scipy 1.17.1), with no counting pass before it.  The
    kernel writes into buffers of min(paths, rows * |V|) entries: each entry of
    a row's product needs a path, so the row has at most sum(deg(w) + 1)
    entries over the w in its current reach, and at most |V|, and the kernel
    never writes past the buffers.

    Neither the buffers nor a tally hold more than rows * |V| entries (a tally
    holds at most one counter per reach entry), so memory stays bounded by the
    block, at most max(2**23, |V|) entries, and no array grows with the range
    of the timestamps.  The reach holds the diagonal (the source itself, a
    0-difference) of every non-isolated vertex once k >= 2, and none at k = 1
    (no self-loops); those entries are subtracted from bin 0.  Differences are
    exact for any int64 timestamps, up to 2**64 - 1.  O(|V| * b^k) work for
    average degree b, all of it in numpy and scipy.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"hop bound k must be an integer, got {k!r}")
    if k < 1:
        raise ValidationError("hop bound k must be >= 1")
    n = g.num_vertices
    # Boolean products are OR-of-ANDs, so entries mark reachability and never wrap.
    adj = g.adjacency().astype(bool)
    step = adj + sp.identity(n, dtype=bool, format="csr")
    step_csr = (step.indptr.astype(np.int64), step.indices.astype(np.int64), step.data)
    s_deg = np.diff(step_csr[0])
    adj_indptr, adj_indices = adj.indptr.astype(np.int64), adj.indices.astype(np.int64)
    ts, rank = np.unique(g.time, return_inverse=True)
    num_ts = ts.size
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    counts: dict[int, int] = {}
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        first, last = adj_indptr[lo], adj_indptr[hi]
        block = adj_indptr[lo:hi + 1] - first, adj_indices[first:last], adj.data[first:last]
        indptr, indices = _block_reach(*block, step_csr, s_deg, k - 1)
        per_row = np.diff(indptr)
        block_rank = rank[lo:hi]
        low = int(block_rank.min())
        span = int(block_rank.max()) - low + 1
        if span * num_ts <= indices.size:
            code = np.repeat((block_rank - low) * num_ts, per_row) + rank.take(indices)
            table = np.bincount(code, minlength=span * num_ts)
            cells = np.flatnonzero(table)
            later, earlier = np.divmod(cells, num_ts)
            later += low
            keep = later >= earlier
            # ts[later] - ts[earlier] lies in [0, 2**64 - 1], so the wrapping int64
            # subtraction, read as uint64, is exact
            values = (ts[later[keep]] - ts[earlier[keep]]).view(np.uint64)
            tally = table[cells[keep]]
        else:
            later = np.repeat(g.time[lo:hi], per_row)
            earlier = g.time.take(indices)
            values, tally = np.unique((later - earlier)[later >= earlier].view(np.uint64), return_counts=True)
        for d, c in zip(values.tolist(), tally.tolist()):
            counts[d] = counts.get(d, 0) + c
    if k >= 2 and counts:  # a non-isolated vertex reaches itself in 2 hops: no pair
        counts[0] -= int(np.count_nonzero(np.diff(adj.indptr)))
        if not counts[0]:
            del counts[0]
    return TimeDiffHistogram(counts)


def _block_reach(indptr, indices, data, step, s_deg, hops: int) -> tuple[np.ndarray, np.ndarray]:
    """The boolean CSR rows (indptr, indices, data) times ``step``, ``hops`` times.

    ``step`` is the (indptr, indices, data) of a boolean n x n CSR matrix and
    ``s_deg`` its row lengths; every index array is int64.  Each hop is one pass of
    scipy's numeric SpGEMM kernel, with no counting pass before it.  The result's
    (indptr, indices) are those of ``rows @ step @ ... @ step``, in the same order.
    """
    step_indptr, step_indices, step_data = step
    n = step_indptr.size - 1
    rows = indptr.size - 1
    for _ in range(hops):
        # An entry (u, v) of the product needs a path u -> w -> v with w in row u, so
        # row u holds at most sum(s_deg[w]) entries, and at most n.  csr_matmat writes
        # its output with no capacity check: this bound is what keeps it in the buffers.
        bound = min(int(s_deg.take(indices).sum()), rows * n)
        out_indptr = np.empty(rows + 1, dtype=np.int64)
        out_indices = np.empty(bound, dtype=np.int64)
        out_data = np.empty(bound, dtype=bool)
        csr_matmat(rows, n, indptr, indices, data, step_indptr, step_indices, step_data,
                   out_indptr, out_indices, out_data)
        nnz = out_indptr[-1]
        indptr, indices, data = out_indptr, out_indices[:nnz], out_data[:nnz]
    return indptr, indices


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
