"""Whole-pipeline invariants: a run, from graph to report, depends only on what it should.

Each row transforms SEQ_BENCH in a way the method must not see and requires the
transformed run's ``to_jsonl()`` to be byte-identical to the original's:

* affine time -- every timestamp mapped to ``7 * t + 10**12``, with ``history_size``
  (in time units) scaled by 7; on DET_BENCH too, whose ~320-row windows are those of
  the benchmark's ``det-gdoc`` workload;
* relabelling -- a random vertex permutation, edges, times, features and labels carried
  along.  Only at dropout 0: the masks are drawn in window row order, and windows are
  sorted by vertex id, so a permutation reorders them;
* unlabeled, isolated vertices -- added at existing timestamps, few enough that the 25%
  start timestamp stays where it is (it counts every vertex, so enough of them would
  move it).

``analyze-tdiff`` on a relabelled graph, read from text files, must write the same
``tdiff.json`` and ``tdiff.csv`` as on the binary original.
"""

import numpy as np
import pytest

import evograph as eg
from conftest import csv_features, text_copy
from evograph.cli import main
from evograph.graph import start_timestamp
from test_acceptance import DET_BENCH, SEQ_BENCH

SEED = 3
GDOC_RR = eg.DetectorConfig(variant="gdoc", use_risk_reduction=True)


@pytest.fixture(scope="module")
def graph():
    return eg.generate(SEQ_BENCH)


@pytest.fixture(scope="module")
def det_graph():
    return eg.generate(DET_BENCH)


def report(g, **cfg):
    return eg.run_sequence(g, eg.ExperimentConfig(**cfg), seed=SEED).to_jsonl()


def relabelled(g, seed=0):
    """``g`` with vertex ``v`` renamed ``perm[v]`` for a random permutation ``perm``."""
    perm = np.random.default_rng(seed).permutation(g.num_vertices)
    time, features, labels = (np.empty_like(a) for a in (g.time, g.features, g.labels))
    time[perm], features[perm], labels[perm] = g.time, g.features, g.labels
    return eg.TemporalGraph(g.num_vertices, perm[g.edges], time, features, labels, g.num_classes)


def assert_affine_time(g, model, detector, history):
    moved = eg.TemporalGraph(g.num_vertices, g.edges, 7 * g.time + 10**12, g.features, g.labels,
                             g.num_classes)
    cfg = dict(model=model, detector=detector, epochs=20, dropout_rate=0.5)
    scaled = history if history is eg.FULL else 7 * history
    assert report(moved, history_size=scaled, **cfg) == report(g, history_size=history, **cfg)


HISTORIES = pytest.mark.parametrize("history", [1, 3, eg.FULL], ids=["history-1", "history-3", "full"])
KINDS = pytest.mark.parametrize("model, detector", [("mlp", None), ("sgc", None), ("sage", GDOC_RR)],
                                ids=["mlp", "sgc", "sage-gdoc"])


@HISTORIES
@KINDS
def test_affine_time(graph, model, detector, history):
    assert_affine_time(graph, model, detector, history)


@HISTORIES
@KINDS
def test_affine_time_on_det_bench(det_graph, model, detector, history):
    assert_affine_time(det_graph, model, detector, history)


@pytest.mark.parametrize("detector", [None, GDOC_RR], ids=["plain", "gdoc"])
@pytest.mark.parametrize("model", ["mlp", "sgc", "sage"])
def test_vertex_relabelling(graph, model, detector):
    cfg = dict(model=model, detector=detector, epochs=30, dropout_rate=0.0)
    assert report(relabelled(graph), **cfg) == report(graph, **cfg)


@pytest.mark.parametrize("detector", [None, GDOC_RR], ids=["plain", "gdoc"])
@pytest.mark.parametrize("model", ["mlp", "sgc", "sage"])
def test_unlabeled_isolated_vertices(graph, model, detector):
    rng = np.random.default_rng(1)
    extra = 60
    grown = eg.TemporalGraph(
        graph.num_vertices + extra,
        graph.edges,
        np.concatenate([graph.time, rng.choice(graph.timestamps(), size=extra)]),
        np.concatenate([graph.features, rng.standard_normal((extra, graph.feature_dim))]),
        np.concatenate([graph.labels, np.full(extra, eg.UNLABELED)]),
        graph.num_classes,
    )
    assert start_timestamp(grown) == start_timestamp(graph)
    cfg = dict(model=model, detector=detector, epochs=20, dropout_rate=0.0)
    assert report(grown, **cfg) == report(graph, **cfg)


def test_tdiff_of_relabelled_text_copy(graph, tmp_path):
    eg.save_dataset(graph, tmp_path / "bin")
    eg.save_dataset(relabelled(graph), tmp_path / "relabelled")
    text = csv_features(text_copy(tmp_path / "relabelled", tmp_path / "text"))
    for ds in ("bin", "text"):
        assert main(["analyze-tdiff", str(tmp_path / ds), "--output-dir", str(tmp_path / f"out-{ds}"),
                     "--quiet"]) == 0
    assert sorted(p.name for p in text.iterdir()) == ["edges", "features.csv", "labels", "manifest", "times"]
    for f in ("tdiff.json", "tdiff.csv"):
        assert (tmp_path / "out-text" / f).read_bytes() == (tmp_path / "out-bin" / f).read_bytes()
