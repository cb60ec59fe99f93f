import math
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp

import evograph as eg
from evograph import tdiff
from evograph.errors import ValidationError
from conftest import raises_exactly


def bounded_pairs_oracle(g, k):
    """Brute force: BFS layers over a dict adjacency, one count per ordered pair."""
    adj = defaultdict(set)
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    counts = {}
    for u in range(g.num_vertices):
        dist = {u: 0}
        frontier = [u]
        for _ in range(k):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = 1
                        nxt.append(y)
            frontier = nxt
        for v in dist:
            if v != u and g.time[v] <= g.time[u]:
                d = int(g.time[u]) - int(g.time[v])  # numpy's int64 subtraction would wrap
                counts[d] = counts.get(d, 0) + 1
    return counts


def percentile_oracle(counts, p):
    expanded = sorted(d for d, c in counts.items() for _ in range(c))
    rank = math.ceil(p / 100.0 * len(expanded))
    return expanded[rank - 1]


def graph_from(times, edges):
    n = len(times)
    return eg.TemporalGraph(
        num_vertices=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        time=times,
        features=np.zeros((n, 1), dtype=np.float32),
        labels=[0] * n,
        num_classes=1,
    )


def test_equal_times_count_both_directions():
    g = graph_from([5, 5], [(0, 1)])
    h = eg.k_hop_time_diffs(g, 1)
    assert h.counts == {0: 2}


def test_path_examples_k1_k2():
    g = graph_from([2000, 2001, 2003], [(0, 1), (1, 2)])
    assert eg.k_hop_time_diffs(g, 1).counts == {1: 1, 2: 1}
    assert eg.k_hop_time_diffs(g, 2).counts == {1: 1, 2: 1, 3: 1}
    # a numpy integer is a hop bound too
    assert eg.k_hop_time_diffs(g, np.int64(2)).counts == {1: 1, 2: 1, 3: 1}
    assert eg.k_hop_time_diffs(g, np.uint8(1)).counts == {1: 1, 2: 1}


def test_no_edges_empty_histogram():
    g = graph_from([1, 2, 3], [])
    for k in (1, 2, 3):
        assert eg.k_hop_time_diffs(g, k).counts == {}


def test_multiple_paths_count_pair_once():
    # triangle: two paths of length <=2 between each pair
    g = graph_from([1, 2, 3], [(0, 1), (1, 2), (0, 2)])
    h = eg.k_hop_time_diffs(g, 2)
    assert h.total() == 3
    assert h.counts == {1: 2, 2: 1}


def test_matches_oracle_on_random_graphs(graph_factory):
    for seed in range(20):
        g = graph_factory(seed, n_max=30)
        for k in (1, 2, 3):
            assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_row_blocks_match_oracle(monkeypatch, graph_factory, rows):
    # 40 vertices: several full blocks plus a ragged tail whenever 40 % rows != 0
    monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", rows * 40)
    for seed in range(4):
        g = graph_factory(seed, n_min=40, n_max=40)
        for k in (1, 2, 3, 4):
            assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)


def test_diagonal_zeros_leave_no_empty_bin():
    # strictly increasing times on a path: every 0-difference within 2 hops is a
    # vertex and itself, so bin 0 is absent, not a zero count
    g = graph_from([1, 2, 3, 4, 5], [(0, 1), (1, 2), (2, 3), (3, 4)])
    h = eg.k_hop_time_diffs(g, 2)
    assert h.counts == {1: 4, 2: 3} == bounded_pairs_oracle(g, 2)
    assert 0 not in h.counts


def test_generated_graph_in_blocks_matches_oracle(monkeypatch):
    # sparser than the default, to keep the brute-force oracle at k = 3 quick
    cfg = eg.SynthConfig(num_timestamps=10, vertices_per_timestamp=110, intra_class_edge_prob=0.03,
                         inter_class_edge_prob=0.004, seed=2)
    g = eg.generate(cfg)
    assert g.num_vertices >= 1000 and g.num_edges > 3 * g.num_vertices
    # about 300 rows per block: four blocks, the last one ragged
    monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", 300 * g.num_vertices)
    for k in (1, 2, 3):
        assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)


def complete_graph(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def two_hubs(m):
    """Vertices 0 and 1 joined only through m middle vertices: m two-hop paths."""
    return [(hub, mid) for hub in (0, 1) for mid in range(2, m + 2)]


@pytest.mark.parametrize(
    "edges, k",
    [
        (complete_graph(20), 3),  # hundreds of walks of length <= 3 per pair
        (two_hubs(256), 2),  # exactly 256 paths: an 8-bit count wraps to zero
    ],
)
def test_many_paths_per_pair_do_not_wrap(edges, k):
    n = max(max(e) for e in edges) + 1
    g = graph_from(np.random.default_rng(3).integers(0, 5, n), edges)
    assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)


@pytest.mark.parametrize(
    "times, edges",
    [
        ([4], []),
        ([1, 2, 3], []),
        ([1, 2, 3, 4, 5, 6], [(0, 1), (1, 2)]),  # vertices 3..5 isolated
        ([6, 1, 3, 5, 2, 0, 4], [(1, 6), (6, 3)]),  # isolated vertices between the edges
    ],
)
def test_small_and_isolated_graphs(monkeypatch, times, edges):
    monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", 2 * len(times))
    g = graph_from(times, edges)
    for k in (1, 2, 3):
        assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)


INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "times, edges, expected",
    [
        # differences near 1e12 must not need an array indexed by the difference
        ([0, 10**12, 3 * 10**11, 10**12], [(0, 1), (1, 2), (2, 3)],
         {0: 2, 3 * 10**11: 1, 7 * 10**11: 2, 10**12: 1}),
        # differences of 2**63 and more do not fit in int64, yet are counted exactly
        ([-2**62, 2**62, 2**62], [(0, 1), (1, 2)], {0: 2, 2**63: 2}),
        ([INT64.min, INT64.max], [(0, 1)], {2**64 - 1: 1}),
        ([INT64.max, 0, INT64.min], [(0, 1), (1, 2)], {2**63 - 1: 1, 2**63: 1, 2**64 - 1: 1}),
    ],
    ids=["1e12", "2**62", "int64-bounds", "int64-bounds-two-hops"],
)
def test_wide_timestamp_range(times, edges, expected):
    g = graph_from(times, edges)
    h = eg.k_hop_time_diffs(g, 2)
    assert h.counts == bounded_pairs_oracle(g, 2) == expected
    assert all(type(d) is int for d in h.counts)
    assert eg.k_hop_time_diffs(g, 1).counts == bounded_pairs_oracle(g, 1)


class TallyCalls:
    """``tdiff``'s numpy, counting its ``bincount`` calls (a block's table of
    timestamp-rank pairs) and ``unique`` calls (the ranks, once per call of
    ``k_hop_time_diffs``, and a block's tally of differences)."""

    def __init__(self):
        self.calls = {"bincount": 0, "unique": 0}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def tally_case(name):
    """60 vertices on a ring plus random chords, so that no vertex is isolated."""
    rng = np.random.default_rng(7)
    n = 60
    edges = [(i, (i + 1) % n) for i in range(n)] + rng.integers(0, n, (60, 2)).tolist()
    times = {
        "few-timestamps": np.repeat([3, 5, 9], 20),
        "one-per-vertex": 1_600_000_000 + np.sort(rng.choice(10**6, n, replace=False)),
        # ids no longer grouped by timestamp: every block spans several groups, each cut
        "shuffled": rng.permutation(np.repeat([3, 5, 9], 20)),
        # differences of 2**63 and more, up to 2**64 - 1
        "wide-range": np.repeat([INT64.min, -2**62, 0, 2**62, INT64.max], 12),
    }[name]
    return graph_from(times, edges)


# case -> the tally every block takes
TALLY_PATHS = {
    "few-timestamps": "bincount",
    "one-per-vertex": "unique",
    "shuffled": "bincount",
    "wide-range": "bincount",
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TALLY_PATHS))
def test_block_tallies_match_oracle(monkeypatch, name, k):
    g = tally_case(name)
    monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", 6 * g.num_vertices)  # ten blocks of 6 rows
    spy = TallyCalls()
    monkeypatch.setattr(tdiff, "np", spy)
    h = eg.k_hop_time_diffs(g, k)
    assert h.counts == bounded_pairs_oracle(g, k)
    assert all(type(d) is int and type(c) is int and c > 0 for d, c in h.counts.items())
    if name == "wide-range":
        assert 2**64 - 1 in h.counts  # the ring's edge from INT64.max back to INT64.min
    table_blocks = 10 if TALLY_PATHS[name] == "bincount" else 0
    assert spy.calls == {"bincount": table_blocks, "unique": 1 + 10 - table_blocks}


# name -> (times, edges), besides two random graphs
BLOCK_PRODUCT_GRAPHS = {
    "complete": (np.arange(12) % 4, complete_graph(12)),
    "two-hubs": (np.arange(22) % 3, two_hubs(20)),
    "one-vertex": ([4], []),
    "edgeless": ([7, 7, 1, 3, 7], []),
    "path-and-isolated": ([1, 2, 3, 4, 5, 6], [(0, 1), (1, 2)]),
    "isolated-between": ([6, 1, 3, 5, 2, 0, 4], [(1, 6), (6, 3)]),
}


def row_sets(indptr, indices):
    return [sorted(indices[a:b].tolist()) for a, b in zip(indptr[:-1], indptr[1:])]


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("name", ["random-0", "random-1", *BLOCK_PRODUCT_GRAPHS])
def test_block_product_matches_scipy(monkeypatch, graph_factory, name, block_rows):
    """Each block's kernel-only product holds, row by row, the entries of the public
    ``reach @ step``, and the kernel never writes past the path-count bound."""
    if name.startswith("random"):
        g = graph_factory(int(name[-1]), n_min=20, n_max=40)
    else:
        g = graph_from(*BLOCK_PRODUCT_GRAPHS[name])
    n = g.num_vertices
    if block_rows is not None:
        monkeypatch.setattr(tdiff, "_BLOCK_ENTRIES", block_rows * n)
    adj = g.adjacency().astype(bool)
    step = adj + sp.identity(n, dtype=bool, format="csr")
    s_deg = np.diff(step.indptr)
    products, kernel_calls = [], []
    block_reach, kernel = tdiff._block_reach, tdiff.csr_matmat

    def spy_block(indptr, indices, data, step_csr, deg, hops):
        out = block_reach(indptr, indices, data, step_csr, deg, hops)
        products.append(((indptr, indices), out))
        return out

    def spy_kernel(rows, cols, ap, aj, ax, bp, bj, bx, cp, cj, cx):
        assert all(a.dtype == np.int64 for a in (ap, aj, bp, bj, cp, cj))
        kernel(rows, cols, ap, aj, ax, bp, bj, bx, cp, cj, cx)
        kernel_calls.append((int(s_deg[aj].sum()), rows * cols, cj.size, int(cp[-1])))

    monkeypatch.setattr(tdiff, "_block_reach", spy_block)
    monkeypatch.setattr(tdiff, "csr_matmat", spy_kernel)
    for k in (1, 2, 3, 4):
        products.clear()
        kernel_calls.clear()
        assert eg.k_hop_time_diffs(g, k).counts == bounded_pairs_oracle(g, k)
        reach = adj
        for _ in range(k - 1):
            reach = reach @ step
        # the blocks are the adjacency's rows in order, and their products are reach's rows
        assert sum((row_sets(*block) for block, _ in products), []) == row_sets(adj.indptr, adj.indices)
        assert sum((row_sets(*out) for _, out in products), []) == row_sets(reach.indptr, reach.indices)
        assert len(kernel_calls) == len(products) * (k - 1)
        for paths, cells, capacity, written in kernel_calls:
            assert capacity == min(paths, cells)
            assert written <= capacity
        if name == "complete" and k >= 2:
            # every row is full after one product, with 11 * 12 paths for its 12 entries
            assert all(cells < paths for paths, cells, _, _ in kernel_calls)
            assert all(written == capacity for _, _, capacity, written in kernel_calls)


class TestPercentile:
    def test_single_value(self):
        h = eg.TimeDiffHistogram({0: 6})
        assert eg.percentile(h, 50) == 0

    def test_nearest_rank_examples(self):
        h = eg.TimeDiffHistogram({0: 4, 1: 2})
        assert eg.percentile(h, 25) == 0 == percentile_oracle(h.counts, 25)
        assert eg.percentile(h, 75) == 1 == percentile_oracle(h.counts, 75)

    def test_max_at_100(self):
        h = eg.TimeDiffHistogram({1: 1, 2: 1, 3: 1})
        assert eg.percentile(h, 100) == 3

    def test_empty_is_zero(self):
        h = eg.TimeDiffHistogram({})
        assert [eg.percentile(h, p) for p in (1e-9, 50, 100)] == [0, 0, 0]
        raises_exactly(lambda: eg.percentile(h, 0), ValidationError, "percentile 0 outside (0, 100]")

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            counts = {int(d): int(c) for d, c in zip(rng.integers(0, 9, 5), rng.integers(1, 6, 5))}
            h = eg.TimeDiffHistogram(counts)
            for p in (10, 25, 50, 75, 90, 100):
                assert eg.percentile(h, p) == percentile_oracle(counts, p)


class TestSuggestHistorySizes:
    def test_empty_histogram_suggests_one(self):
        assert tdiff.history_sizes(eg.TimeDiffHistogram({}), [25, 50, 100]) == [1]
        assert eg.suggest_history_sizes(graph_from([1, 2], []), 2, [25, 50]) == [1]

    def test_uniform_times_floor_to_one(self):
        g = graph_from([7, 7, 7], [(0, 1), (1, 2)])
        assert eg.suggest_history_sizes(g, 2, [25, 50, 75, 100]) == [1]

    def test_path_dedup(self):
        g = graph_from([2000, 2001, 2003], [(0, 1), (1, 2)])
        assert eg.suggest_history_sizes(g, 2, [25, 50, 75, 100]) == [1, 2, 3]

    def test_monotone_on_synthetic_default(self):
        g = eg.generate(eg.SynthConfig(seed=5))
        sizes = eg.suggest_history_sizes(g, 2, [25, 50, 75, 100])
        assert sizes == sorted(sizes)


def rescaled_times(g, a, seed):
    """time'(u) with time(u) == floor(time'(u) / a)."""
    rng = np.random.default_rng(seed)
    fine = a * g.time + rng.integers(0, a, g.num_vertices)
    return eg.TemporalGraph(
        num_vertices=g.num_vertices,
        edges=g.edges,
        time=fine,
        features=g.features,
        labels=g.labels,
        num_classes=g.num_classes,
    )


def test_equivariance_to_granularity():
    # randomized fine-grained timestamps over generated evolving graphs
    for seed in range(12):
        rng = np.random.default_rng(seed + 500)
        g = eg.generate(
            eg.SynthConfig(
                num_timestamps=int(rng.integers(6, 12)),
                vertices_per_timestamp=int(rng.integers(10, 25)),
                feature_dim=8,
                window_back=int(rng.integers(1, 5)),
                seed=seed,
            )
        )
        h = eg.k_hop_time_diffs(g, 2)
        for a in (2, 12):
            g_fine = rescaled_times(g, a, seed + 100)
            h_fine = eg.k_hop_time_diffs(g_fine, 2)
            for p in (25, 50, 75, 100):
                coarse = a * eg.percentile(h, p)
                fine = eg.percentile(h_fine, p)
                assert fine - a < coarse < fine + a


def test_mass_and_max_monotone_in_k(graph_factory):
    for seed in range(8):
        g = graph_factory(seed)
        prev = eg.k_hop_time_diffs(g, 1)
        for k in (2, 3):
            curr = eg.k_hop_time_diffs(g, k)
            assert curr.total() >= prev.total()
            assert max(curr.counts, default=0) >= max(prev.counts, default=0)
            prev = curr


def test_equal_time_pairs_contribute_exactly_two(graph_factory):
    for seed in range(8):
        g = graph_factory(seed, time_span=2)
        h = eg.k_hop_time_diffs(g, 2)
        oracle = bounded_pairs_oracle(g, 2)
        assert h.counts.get(0, 0) == oracle.get(0, 0)
        assert h.counts.get(0, 0) % 2 == 0


# call, exception class, whole message
ARGUMENT_ERRORS = {
    "zero-hops": (lambda: eg.k_hop_time_diffs(graph_from([1, 2], [(0, 1)]), 0),
                  ValidationError, "hop bound k must be >= 1"),
    "float-hops": (lambda: eg.k_hop_time_diffs(graph_from([1, 2], [(0, 1)]), 2.0),
                   ValidationError, "hop bound k must be an integer, got 2.0"),
    "fractional-hops": (lambda: eg.k_hop_time_diffs(graph_from([1, 2], [(0, 1)]), 2.5),
                        ValidationError, "hop bound k must be an integer, got 2.5"),
    "string-hops": (lambda: eg.k_hop_time_diffs(graph_from([1, 2], [(0, 1)]), "2"),
                    ValidationError, "hop bound k must be an integer, got '2'"),
    # a bool is a flag, not a count, though Python's True is the int 1
    "bool-hops": (lambda: eg.k_hop_time_diffs(graph_from([1, 2], [(0, 1)]), True),
                  ValidationError, "hop bound k must be an integer, got True"),
    "p-zero": (lambda: eg.percentile(eg.TimeDiffHistogram({3: 1}), 0),
               ValidationError, "percentile 0 outside (0, 100]"),
    "history-sizes-p-zero": (lambda: tdiff.history_sizes(eg.TimeDiffHistogram({}), [50, 0]),
                             ValidationError, "percentile 0 outside (0, 100]"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_bad_argument_raises(case):
    raises_exactly(*ARGUMENT_ERRORS[case])


@pytest.mark.parametrize("k", [2.0, "2", True])
def test_non_integer_hops_fail_before_the_adjacency(k):
    g = graph_from([1, 2], [(0, 1)])
    with pytest.raises(ValidationError):
        eg.k_hop_time_diffs(g, k)
    assert g._csr is None
