import numpy as np
import pytest

import evograph as eg
from evograph.errors import TaskSequenceError, ValidationError


def make_graph(times, edges=(), labels=None, num_classes=3, feature_dim=2):
    n = len(times)
    labels = list(labels) if labels is not None else [0] * n
    rng = np.random.default_rng(7)
    return eg.TemporalGraph(
        num_vertices=n,
        edges=np.asarray(list(edges), dtype=np.int64).reshape(-1, 2),
        time=times,
        features=rng.normal(size=(n, feature_dim)).astype(np.float32),
        labels=labels,
        num_classes=num_classes,
    )


def trim_oracle(g, t, c):
    """Brute-force filter-then-induce subgraph."""
    if c is eg.FULL:
        keep = [v for v in range(g.num_vertices) if g.time[v] <= t]
    else:
        keep = [v for v in range(g.num_vertices) if t - c <= g.time[v] <= t]
    remap = {old: new for new, old in enumerate(keep)}
    edges = sorted(
        tuple(sorted((remap[u], remap[v])))
        for u, v in g.edges
        if u in remap and v in remap
    )
    return keep, edges


class TestTemporalGraph:
    def test_symmetrization_dedup(self):
        g = make_graph([1, 1, 1], edges=[(0, 1), (1, 0), (1, 2), (2, 1), (1, 2)])
        assert g.num_edges == 2
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    def test_self_loops_dropped(self):
        g = make_graph([1, 1], edges=[(0, 0), (0, 1)])
        assert g.num_edges == 1
        adj = g.adjacency().toarray()
        assert adj[0, 0] == 0 and adj[0, 1] == 1 and adj[1, 0] == 1

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="7"):
            make_graph([1, 1, 1, 1], edges=[(7, 1)])

    def test_bad_label_rejected(self):
        with pytest.raises(ValidationError):
            make_graph([1, 1], labels=[0, 5], num_classes=2)

    def test_nonfinite_features_rejected(self):
        feats = np.ones((2, 2), dtype=np.float32)
        feats[0, 0] = np.nan
        with pytest.raises(ValidationError):
            eg.TemporalGraph(2, [], [1, 1], feats, [0, 0], 1)

    def test_adjacency_cache_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            eg.TemporalGraph(2, [], [1, 1], np.ones((2, 2), np.float32), [0, 0], 1, _csr="junk")

    def test_arrays_frozen(self):
        g = make_graph([1, 2])
        with pytest.raises(ValueError):
            g.time[0] = 9


def induce_window(g, t, c):
    """``induced_subgraph`` on ``trim_oracle``'s keep ids."""
    keep, _ = trim_oracle(g, t, c)
    return eg.induced_subgraph(g, np.asarray(keep, dtype=np.int64))


class TestTrimHistory:
    """``induced_subgraph`` on history windows: edge re-indexing, the empty keep
    set, composition and bit-exact features."""

    def test_full_keeps_everything(self, path4):
        trimmed = induce_window(path4, 4, eg.FULL)
        assert trimmed.num_vertices == 4
        assert trimmed.num_edges == path4.num_edges

    def test_c1_keeps_last_two_times(self, path4):
        trimmed = induce_window(path4, 4, 1)
        keep, edges = trim_oracle(path4, 4, 1)
        assert trimmed.num_vertices == len(keep) == 2
        assert sorted(map(tuple, trimmed.edges.tolist())) == edges
        assert np.array_equal(trimmed.time, path4.time[keep])

    def test_c0_only_exact_time(self, path4):
        trimmed = induce_window(path4, 4, 0)
        keep, _ = trim_oracle(path4, 4, 0)
        assert trimmed.num_vertices == len(keep) == 1
        assert np.array_equal(trimmed.time, path4.time[keep])

    def test_empty_window_is_empty_graph(self, path4):
        trimmed = induce_window(path4, 0, 0)
        assert trimmed.num_vertices == 0
        assert trimmed.num_edges == 0

    def test_matches_oracle_on_random_graphs(self, graph_factory):
        for seed in range(10):
            g = graph_factory(seed)
            for t in range(6):
                for c in (eg.FULL, 0, 1, 2):
                    trimmed = induce_window(g, t, c)
                    keep, edges = trim_oracle(g, t, c)
                    assert trimmed.num_vertices == len(keep)
                    assert np.array_equal(trimmed.time, g.time[keep])
                    assert np.array_equal(trimmed.labels, g.labels[keep])
                    assert sorted(map(tuple, trimmed.edges.tolist())) == edges

    def test_idempotent_composition(self, graph_factory):
        for seed in range(5):
            g = graph_factory(seed)
            t = 4
            for c in (0, 1, 2):
                once = induce_window(g, t, c)
                twice = induce_window(induce_window(g, t, eg.FULL), t, c)
                assert once.equals(twice)

    def test_features_preserved_bit_exactly(self, graph_factory):
        g = graph_factory(3)
        trimmed = induce_window(g, 4, 2)
        keep, _ = trim_oracle(g, 4, 2)
        for new_id, old_id in enumerate(keep):
            assert np.array_equal(trimmed.features[new_id], g.features[old_id])


class TestTaskSequence:
    def test_quarter_rule_example(self):
        # 25 at time 1, 25 at time 2, 50 at time 3 -> start at 1, tasks at 2 and 3
        times = [1] * 25 + [2] * 25 + [3] * 50
        g = make_graph(times)
        assert eg.start_timestamp(g) == 1
        tasks = eg.build_task_sequence(g, eg.FULL)
        assert [t.time for t in tasks] == [2, 3]
        assert [t.t for t in tasks] == [1, 2]

    def test_uniform_start_at_three(self):
        times = sum(([t] * 10 for t in range(1, 11)), [])
        g = make_graph(times)
        assert eg.start_timestamp(g) == 3
        tasks = eg.build_task_sequence(g, eg.FULL)
        assert [t.time for t in tasks] == list(range(4, 11))

    def test_single_timestamp_errors(self):
        g = make_graph([5] * 10)
        with pytest.raises(TaskSequenceError):
            eg.build_task_sequence(g, eg.FULL)

    def test_masks_partition_and_history(self):
        times = [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4
        g = make_graph(times, labels=[0, 1, 2, eg.UNLABELED] * 4)
        for c in (eg.FULL, 1, 2):
            ts = g.timestamps()
            for task in eg.build_task_sequence(g, c):
                prev = int(ts[ts < task.time][-1])
                train_times = g.time[task.train_vertices]
                window_times = g.time[task.vertices]
                if c is not eg.FULL:
                    assert train_times.min() >= prev - c
                    assert window_times.min() >= task.time - c
                assert train_times.max() == prev < task.time
                assert window_times.max() == task.time
                # unlabeled vertices stay in the windows but are never tested
                labeled = g.labels[task.vertices] != eg.UNLABELED
                assert np.array_equal(task.test_mask, (window_times == task.time) & labeled)
                tested = task.vertices[task.test_mask]
                assert not np.intersect1d(tested, task.train_vertices).size

    def test_test_vertices_become_next_training_candidates(self):
        times = [1] * 6 + [2] * 3 + [3] * 3 + [4] * 3
        g = make_graph(times, labels=[0, 1] * 7 + [2])
        for c in (eg.FULL, 1):
            tasks = eg.build_task_sequence(g, c)
            for prev, curr in zip(tasks, tasks[1:]):
                tested = set(prev.vertices[prev.test_mask].tolist())
                introduced = set(
                    curr.train_vertices[g.time[curr.train_vertices] == prev.time].tolist()
                )
                assert tested == introduced

    def test_known_classes_monotone_and_training_only(self):
        times = [1] * 6 + [2] * 3 + [3] * 3 + [4] * 3 + [5] * 3
        labels = [0] * 6 + [1] * 3 + [2] * 3 + [0] * 3 + [1] * 3
        g = make_graph(times, labels=labels)
        tasks = eg.build_task_sequence(g, eg.FULL)
        assert [t.time for t in tasks] == [2, 3, 4, 5]
        trained = [set(g.labels[t.train_vertices].tolist()) for t in tasks]
        assert trained == [{0}, {0, 1}, {0, 1, 2}, {0, 1, 2}]
        # class 2 first appears at time 3, as test data of the time-3 task; it
        # enters training one task later
        assert 2 in g.labels[tasks[1].vertices[tasks[1].test_mask]]

    def test_c1_trains_on_one_time_unit_before_prev(self):
        # c counts time units, not timestamps: the task at tau trains on
        # [prev - 1, prev] and is tested on tau
        g = make_graph(sum(([t] * 4 for t in range(1, 9)), []))
        for task in eg.build_task_sequence(g, 1):
            tau = task.time
            assert set(g.time[task.train_vertices].tolist()) == {tau - 2, tau - 1}
            assert set(g.time[task.vertices].tolist()) == {tau - 1, tau}
        # gapped: where the timestamp just before prev is absent, only prev trains
        g = make_graph(sum(([t] * 4 for t in (1, 2, 4, 7, 8, 11)), []))
        tasks = eg.build_task_sequence(g, 1)
        assert [t.time for t in tasks] == [4, 7, 8, 11]
        assert [sorted(set(g.time[t.train_vertices].tolist())) for t in tasks] == [
            [1, 2], [4], [7], [7, 8]
        ]

    @pytest.mark.parametrize("c", [1, 3, eg.FULL])
    def test_each_window_built_once(self, graph_factory, monkeypatch, c):
        g = graph_factory(5)
        calls = []
        window = eg.graph._window
        monkeypatch.setattr(eg.graph, "_window", lambda *a: calls.append(a) or window(*a))
        tasks = eg.build_task_sequence(g, c)
        assert len(calls) == len(tasks) + 1
        for prev, curr in zip(tasks, tasks[1:]):
            assert curr.train_vertices is prev.vertices

    def test_windows_match_trim_oracle(self, graph_factory):
        for seed in range(10):
            g = graph_factory(seed, unlabeled_frac=0.3)
            gapped = eg.TemporalGraph(
                g.num_vertices, g.edges, g.time ** 2, g.features, g.labels, g.num_classes
            )
            for h in (g, gapped):
                ts = h.timestamps()
                for c in (eg.FULL, 0, 1, 2, 3):
                    for task in eg.build_task_sequence(h, c):
                        prev = int(ts[ts < task.time][-1])
                        assert np.array_equal(task.train_vertices, trim_oracle(h, prev, c)[0])
                        assert np.array_equal(task.vertices, trim_oracle(h, task.time, c)[0])
