import math
from collections import defaultdict

import numpy as np
import pytest

import evograph as eg
from evograph import tdiff
from evograph.errors import ValidationError


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
                d = int(g.time[u] - g.time[v])
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


def test_wide_timestamp_range():
    # differences near 1e12 must not need an array indexed by the difference
    g = graph_from([0, 10**12, 3 * 10**11, 10**12], [(0, 1), (1, 2), (2, 3)])
    assert eg.k_hop_time_diffs(g, 2).counts == bounded_pairs_oracle(g, 2)


class TestPercentile:
    def test_single_value(self):
        h = eg.TimeDiffHistogram({0: 6}, k=1)
        assert eg.percentile(h, 50) == 0

    def test_nearest_rank_examples(self):
        h = eg.TimeDiffHistogram({0: 4, 1: 2}, k=1)
        assert eg.percentile(h, 25) == 0 == percentile_oracle(h.counts, 25)
        assert eg.percentile(h, 75) == 1 == percentile_oracle(h.counts, 75)

    def test_max_at_100(self):
        h = eg.TimeDiffHistogram({1: 1, 2: 1, 3: 1}, k=1)
        assert eg.percentile(h, 100) == 3

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            eg.percentile(eg.TimeDiffHistogram({}, k=1), 50)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            counts = {int(d): int(c) for d, c in zip(rng.integers(0, 9, 5), rng.integers(1, 6, 5))}
            h = eg.TimeDiffHistogram(counts, k=1)
            for p in (10, 25, 50, 75, 90, 100):
                assert eg.percentile(h, p) == percentile_oracle(counts, p)


class TestSuggestHistorySizes:
    def test_empty_histogram_suggests_one(self):
        assert tdiff.history_sizes(eg.TimeDiffHistogram({}, k=2), [25, 50, 100]) == [1]
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
            assert curr.max_diff() >= prev.max_diff()
            prev = curr


def test_equal_time_pairs_contribute_exactly_two(graph_factory):
    for seed in range(8):
        g = graph_factory(seed, time_span=2)
        h = eg.k_hop_time_diffs(g, 2)
        oracle = bounded_pairs_oracle(g, 2)
        assert h.counts.get(0, 0) == oracle.get(0, 0)
        assert h.counts.get(0, 0) % 2 == 0
