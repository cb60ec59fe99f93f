"""k-neighborhood time differences and percentile-derived history sizes.

For every ordered vertex pair (u, v) with v reachable from u via 1..k edges
and time(v) <= time(u), the difference time(u) - time(v) is counted once.
Pairs with equal timestamps therefore contribute in both directions.  The
percentiles of this distribution serve as candidate history sizes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse._sparsetools import coo_tocsr, csr_matmat

from .errors import ValidationError
from .graph import TemporalGraph


@dataclass(frozen=True)
class TimeDiffHistogram:
    """Histogram of non-negative integer time differences within k hops: ``counts``
    iterates in ascending difference order, sorted once, here, for every reader."""

    counts: dict[int, int]

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(sorted(self.counts.items())))

    def total(self) -> int:
        return sum(self.counts.values())


# Rows per block are max(1, _BLOCK_ENTRIES // |V|), so one block's reach matrix
# holds at most max(_BLOCK_ENTRIES, |V|) entries; two blocks' products exist at
# once, so peak memory is bounded by 2 * max(_BLOCK_ENTRIES, |V|) entries.
_BLOCK_ENTRIES = 1 << 23


def k_hop_time_diffs(g: TemporalGraph, k: int) -> TimeDiffHistogram:
    """Distribution of time differences within each vertex's k-hop neighborhood.

    One sparse pass over row blocks of the boolean matrix A + I (A the
    adjacency), built once from ``g.edges`` with every row sorted (see
    :func:`_adjacency_plus_identity`).  A block's reach is its rows of
    (A + I)^k = I + A + ... + A^k, so a pair counts once however many paths
    connect it, and every vertex reaches itself exactly once at any k >= 1:
    those |V| entries, no pairs, are subtracted from bin 0.

    A block's reach is built one hop at a time, each hop one pass of scipy's
    numeric SpGEMM kernel ``scipy.sparse._sparsetools.csr_matmat`` (private to
    scipy; checked on scipy 1.17.1), with no counting pass before it.  The
    kernel writes into buffers of min(paths, rows * |V|) entries: each entry of
    a row's product needs a path, so the row has at most sum(deg(w) + 1)
    entries over the w in its current reach, and at most |V|, and the kernel
    never writes past the buffers.  The kernel releases the GIL (checked on
    scipy 1.17.1 as well), so one worker thread builds block i + 1's reach
    while the calling thread tallies block i; every tally and its fold into
    the histogram run on the calling thread, in block order.  A failure in
    the worker, a MemoryError or a KeyboardInterrupt, is raised on the
    calling thread, and no thread outlives the call.

    A block tallies its reach entries (u, v) in one of two ways:

    * a table of timestamp-rank pairs: with the block's rows at ranks
      [a, a + span) among the T distinct timestamps, one ``np.bincount`` of
      ``(rank(u) - a) * T + rank(v)`` into ``span * T`` cells, whose cells
      with rank(u) >= rank(v) fold into the bins time(u) - time(v);
    * the kept differences time(u) - time(v) >= 0 themselves, tallied by
      ``np.unique``, when ``span * T`` exceeds the block's reach entries (as
      when every vertex has its own timestamp).

    Neither the buffers nor a tally hold more than rows * |V| entries (a tally
    holds at most one counter per reach entry), and at most two blocks'
    products exist at once, so memory stays bounded by two blocks, at most
    2 * max(2**23, |V|) entries, and no array grows with the range of the
    timestamps.  Differences are exact for any int64 timestamps, up to
    2**64 - 1.  O(|V| * b^k) work for average degree b, all of it in numpy
    and scipy.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"hop bound k must be an integer, got {k!r}")
    if k < 1:
        raise ValidationError("hop bound k must be >= 1")
    n = g.num_vertices
    # boolean products are OR-of-ANDs, so entries mark reachability and never wrap
    step = _adjacency_plus_identity(g)
    indptr, indices, data = step
    s_deg = np.diff(indptr)
    ts, rank = np.unique(g.time, return_inverse=True)
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    counts: dict[int, int] = {}
    with ThreadPoolExecutor(1) as worker:

        def product(lo):
            hi = min(lo + rows, n)
            first, last = indptr[lo], indptr[hi]
            block = indptr[lo:hi + 1] - first, indices[first:last], data[first:last]
            return worker.submit(_block_reach, *block, step, s_deg, k - 1)

        ahead = product(0) if n else None
        for lo in range(0, n, rows):
            reach = ahead.result()
            if lo + rows < n:
                ahead = product(lo + rows)
            values, tally = _block_tally(lo, *reach, rank, ts, g.time)
            for d, c in zip(values.tolist(), tally.tolist()):
                counts[d] = counts.get(d, 0) + c
    if n:  # every vertex reaches itself: a 0-difference, no pair
        counts[0] -= n
        if not counts[0]:
            del counts[0]
    return TimeDiffHistogram(counts)


def _adjacency_plus_identity(g: TemporalGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The boolean CSR (indptr, indices, data) of A + I, int64 indices, every row sorted.

    scipy's private ``coo_tocsr`` is a stable counting sort by row, and ``g.edges``
    lists its (lo, hi) pairs sorted with lo < hi: entries in the order (hi, lo),
    (v, v), (lo, hi) give each row its lower neighbours, itself, then its higher ones.
    """
    n = g.num_vertices
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    v = np.arange(n, dtype=np.int64)
    nnz = n + 2 * lo.size
    indptr = np.empty(n + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=bool)
    coo_tocsr(n, n, nnz, np.concatenate([hi, v, lo]), np.concatenate([lo, v, hi]),
              np.ones(nnz, dtype=bool), indptr, indices, data)
    return indptr, indices, data


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


def _block_tally(lo: int, indptr, indices, rank, ts, time) -> tuple[np.ndarray, np.ndarray]:
    """The distinct differences time(u) - time(v) >= 0, as uint64, and their counts, over
    the entries (u, v) of a block's reach: CSR rows (indptr, indices) of vertices lo, lo + 1, ...

    ``ts`` holds the distinct timestamps, ascending, and ``rank`` each vertex's index in it.
    """
    per_row = np.diff(indptr)
    block_rank = rank[lo:lo + per_row.size]
    num_ts = ts.size
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
        return (ts[later[keep]] - ts[earlier[keep]]).view(np.uint64), table[cells[keep]]
    later = np.repeat(time[lo:lo + per_row.size], per_row)
    earlier = time.take(indices)
    return np.unique((later - earlier)[later >= earlier].view(np.uint64), return_counts=True)


def percentile(h: TimeDiffHistogram, p: float) -> int:
    """Nearest-rank percentile: smallest d with cumulative count >= ceil(p/100 * total).

    An empty histogram (no pair within k hops) has every percentile 0.
    """
    if not 0 < p <= 100:
        raise ValidationError(f"percentile {p} outside (0, 100]")
    rank = math.ceil(p / 100.0 * h.total())
    for d, c in h.counts.items():  # ascending: count down to the rank
        rank -= c
        if rank <= 0:
            return d
    return 0


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
