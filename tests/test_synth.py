import hashlib
import re

import numpy as np
import pytest
import reference_synth as ref
from test_acceptance import DET_BENCH, SEQ_BENCH

import evograph as eg
from evograph import synth
from evograph.cli import main
from evograph.errors import ConfigError
from conftest import raises_exactly


def test_same_seed_identical_graphs():
    cfg = eg.SynthConfig(seed=12, new_class_schedule={4: 1})
    a, b = eg.generate(cfg), eg.generate(cfg)
    assert a.equals(b)


def test_different_seed_differs():
    a = eg.generate(eg.SynthConfig(seed=1))
    b = eg.generate(eg.SynthConfig(seed=2))
    assert not a.equals(b)


def test_schedule_contract():
    cfg = eg.SynthConfig(num_initial_classes=3, new_class_schedule={5: 1}, seed=0)
    g = eg.generate(cfg)
    new_class = 3
    first_time = g.time[g.labels == new_class].min()
    assert first_time == 5
    assert not np.any((g.labels == new_class) & (g.time < 5))


def test_schedule_at_zero_rejected():
    with pytest.raises(ConfigError):
        eg.SynthConfig(new_class_schedule={0: 1})


@pytest.mark.parametrize(
    "schedule, per_ts, message",
    [
        ({3: -1}, 30, "timestamp 3: negative class count -1"),
        ({2: 2}, 1, "timestamp 2: 2 new classes but only 1 vertices"),
    ],
)
def test_schedule_count_out_of_range_rejected(schedule, per_ts, message):
    with pytest.raises(ConfigError, match=message):
        eg.SynthConfig(vertices_per_timestamp=per_ts, new_class_schedule=schedule)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["class_skew", "feature_noise"])
def test_nonfinite_skew_and_noise_rejected(field, value, tmp_path, capsys):
    message = f"{field} must be finite and >= 0, got {float(value)!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        eg.SynthConfig(**{field: float(value)})
    out = tmp_path / "d"
    flag = "--" + field.replace("_", "-")
    assert main(["generate", str(out), f"{flag}={value}", "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_feature_dim_must_cover_classes():
    with pytest.raises(ConfigError):
        eg.SynthConfig(num_initial_classes=5, feature_dim=4)


def test_inter_above_intra_rejected():
    with pytest.raises(ConfigError):
        eg.SynthConfig(intra_class_edge_prob=0.01, inter_class_edge_prob=0.1)


def test_zero_skew_two_classes_balanced():
    cfg = eg.SynthConfig(
        num_timestamps=10,
        vertices_per_timestamp=1000,
        num_initial_classes=2,
        class_skew=0.0,
        feature_dim=4,
        intra_class_edge_prob=0.0,
        inter_class_edge_prob=0.0,
        window_back=0,
        seed=3,
    )
    g = eg.generate(cfg)
    ratio = np.mean(g.labels == 0)
    assert abs(ratio - 0.5) < 0.05


def test_positive_skew_orders_class_sizes():
    g = eg.generate(eg.SynthConfig(class_skew=1.5, seed=4))
    counts = np.bincount(g.labels, minlength=g.num_classes)
    assert counts[0] > counts[-1]


def test_generated_graphs_pass_invariants():
    # construction validates: in-range edges, finite features, label range
    for seed in range(5):
        cfg = eg.SynthConfig(
            num_timestamps=6,
            vertices_per_timestamp=15,
            new_class_schedule={3: 1},
            feature_dim=8,
            seed=seed,
        )
        g = eg.generate(cfg)
        assert g.num_vertices == 90
        assert g.num_classes == 5
        assert np.all(g.labels >= 0)
        adj = g.adjacency()
        assert (adj != adj.T).nnz == 0


def test_separability_knob_reaches_high_accuracy():
    cfg = eg.SynthConfig(
        num_timestamps=6,
        vertices_per_timestamp=40,
        num_initial_classes=3,
        class_skew=0.5,
        feature_dim=8,
        feature_noise=0.15,
        intra_class_edge_prob=0.15,
        inter_class_edge_prob=0.01,
        window_back=2,
        seed=7,
    )
    g = eg.generate(cfg)
    run_cfg = eg.ExperimentConfig(
        model="sage", epochs=150, history_size=eg.FULL, restart="cold",
        learning_rate=0.01, seeds=(0,),
    )
    report = eg.run_sequence(g, run_cfg)
    assert report.avg_accuracy() > 0.9


def assert_same_graph(got, want):
    for name in ("edges", "time", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert got.features.shape == want.features.shape
    assert np.array_equal(got.features.view(np.uint32), want.features.view(np.uint32))
    assert got.num_classes == want.num_classes


TDIFF_SCALE = eg.SynthConfig(
    num_timestamps=50, vertices_per_timestamp=400, num_initial_classes=6,
    new_class_schedule={20: 1, 35: 1}, feature_dim=16, intra_class_edge_prob=0.01,
    inter_class_edge_prob=0.001, window_back=3, seed=1,
)

CORNER_CONFIGS = {
    "noise_0": eg.SynthConfig(feature_noise=0.0, seed=1),
    "window_back_0": eg.SynthConfig(window_back=0, seed=2),
    "one_vertex_per_timestamp": eg.SynthConfig(vertices_per_timestamp=1, window_back=0, seed=3),
    "edge_probs_1": eg.SynthConfig(
        num_timestamps=5, vertices_per_timestamp=8, intra_class_edge_prob=1.0,
        inter_class_edge_prob=1.0, seed=4,
    ),
    "edge_probs_0": eg.SynthConfig(intra_class_edge_prob=0.0, inter_class_edge_prob=0.0, seed=5),
    "noise_0_window_0_probs_1": eg.SynthConfig(
        feature_noise=0.0, window_back=0, intra_class_edge_prob=1.0,
        inter_class_edge_prob=1.0, seed=6,
    ),
    "skew_0_noise_2": eg.SynthConfig(class_skew=0.0, feature_noise=2.0, seed=7),
    "class_at_last_timestamp": eg.SynthConfig(num_timestamps=6, new_class_schedule={5: 2}, seed=8),
    "schedule_fills_timestamp": eg.SynthConfig(
        vertices_per_timestamp=3, new_class_schedule={2: 3, 4: 1}, seed=9,
    ),
}


def random_config(seed: int) -> eg.SynthConfig:
    r = np.random.default_rng(1000 + seed)
    num_timestamps = int(r.integers(1, 9))
    per_ts = int(r.integers(1, 13))
    late = np.arange(1, num_timestamps)
    picked = r.choice(late, size=min(late.size, int(r.integers(0, 3))), replace=False)
    schedule = {int(t): int(r.integers(0, min(per_ts, 3) + 1)) for t in picked}
    initial = int(r.integers(1, 5))
    intra = float(r.uniform(0.0, 1.0))
    return eg.SynthConfig(
        num_timestamps=num_timestamps,
        vertices_per_timestamp=per_ts,
        num_initial_classes=initial,
        new_class_schedule=schedule,
        class_skew=float(r.uniform(0.0, 2.0)),
        feature_dim=initial + sum(schedule.values()) + int(r.integers(0, 4)),
        feature_noise=float(r.uniform(0.0, 1.5)),
        intra_class_edge_prob=intra,
        inter_class_edge_prob=float(r.uniform(0.0, intra)),
        window_back=int(r.integers(0, 5)),
        seed=seed,
    )


ORACLE_CONFIGS = {
    "DET_BENCH": DET_BENCH,
    "SEQ_BENCH": SEQ_BENCH,
    "tdiff_scale_20k": TDIFF_SCALE,
    **CORNER_CONFIGS,
    **{f"random_{seed}": random_config(seed) for seed in range(20)},
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_generate_matches_reference(name):
    cfg = ORACLE_CONFIGS[name]
    assert_same_graph(eg.generate(cfg), ref.generate(cfg))


@pytest.mark.parametrize("entries", [1, 7, 50])
def test_small_block_budget_matches_reference(entries, monkeypatch):
    cfg = eg.SynthConfig(
        num_timestamps=6, vertices_per_timestamp=10, new_class_schedule={3: 2},
        intra_class_edge_prob=0.4, inter_class_edge_prob=0.1, window_back=2, seed=11,
    )
    monkeypatch.setattr(synth, "_BLOCK_ENTRIES", entries)
    assert_same_graph(eg.generate(cfg), ref.generate(cfg))


def graph_sha256(g) -> str:
    h = hashlib.sha256()
    for a, dtype in ((g.edges, "<i8"), (g.time, "<i8"), (g.labels, "<i8"), (g.features, "<f4")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    h.update(str(g.num_classes).encode())
    return h.hexdigest()


# The acceptance criteria's thresholds were set on exactly these graphs: a
# generator change that moves them must fail here, not drift the criteria.
FIXTURE_SHA256 = {
    "DET_BENCH": "98b1eea14b2faae3ebdcec7bcf72d74458fee80001c1a536f6e8f042b0f8d022",
    "SEQ_BENCH": "8a58c0f6026f99675ce6b7be84638da5ffb8030840034b523a2919f5cab3c84f",
}


@pytest.mark.parametrize("name", FIXTURE_SHA256)
def test_fixture_graphs_pinned(name):
    assert graph_sha256(eg.generate(ORACLE_CONFIGS[name])) == FIXTURE_SHA256[name]


# call, exception class, whole message
ARGUMENT_ERRORS = {
    "no-timestamps": (lambda: eg.SynthConfig(num_timestamps=0),
                      ConfigError, "need at least one timestamp and one vertex per timestamp"),
    "no-classes": (lambda: eg.SynthConfig(num_initial_classes=0), ConfigError, "need at least one initial class"),
    "schedule-beyond-range": (lambda: eg.SynthConfig(num_timestamps=4, new_class_schedule={4: 1}),
                              ConfigError, "new_class_schedule timestamps outside the generated range"),
    "window-back": (lambda: eg.SynthConfig(window_back=-1), ConfigError, "window_back must be >= 0"),
    "negative-seed": (lambda: eg.SynthConfig(seed=-1), ConfigError, "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_bad_argument_raises(case):
    raises_exactly(*ARGUMENT_ERRORS[case])
