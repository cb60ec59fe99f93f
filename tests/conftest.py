import shutil

import numpy as np
import pytest

import evograph as eg


@pytest.fixture
def path4():
    """Path 0-1-2-3 with times 1..4, two alternating classes."""
    return eg.TemporalGraph(
        num_vertices=4,
        edges=[(0, 1), (1, 2), (2, 3)],
        time=[1, 2, 3, 4],
        features=np.arange(12, dtype=np.float32).reshape(4, 3),
        labels=[0, 1, 0, 1],
        num_classes=2,
    )


@pytest.fixture
def graph_factory():
    """Seeded random-graph builder for property tests."""

    def build(seed, n_min=5, n_max=30, num_classes=3, time_span=6, unlabeled_frac=0.0):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(n_min, n_max + 1))
        prob = rng.uniform(0.05, 0.3)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
        labels = rng.integers(0, num_classes, n)
        if unlabeled_frac > 0:
            labels[rng.random(n) < unlabeled_frac] = eg.UNLABELED
        return eg.TemporalGraph(
            num_vertices=n,
            edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            time=rng.integers(0, time_span, n),
            features=rng.normal(size=(n, 4)).astype(np.float32),
            labels=labels,
            num_classes=num_classes,
        )

    return build


def two_class_blobs(n_per_class=10, dim=2, separation=4.0, seed=0, edge_prob=0.3):
    """Linearly separable two-class toy graph."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    feats = rng.normal(size=(n, dim))
    labels = np.repeat([0, 1], n_per_class)
    feats[labels == 1, 0] += separation
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j] and rng.random() < edge_prob:
                pairs.append((i, j))
    return eg.TemporalGraph(
        num_vertices=n,
        edges=np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
        time=np.zeros(n, dtype=np.int64),
        features=feats.astype(np.float32),
        labels=labels,
        num_classes=2,
    )


def raises_exactly(call, error, message):
    """Check that ``call()`` raises ``error`` itself, not a subclass, with the whole ``message``."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def text_copy(src, dst):
    """Copy dataset ``src`` to ``dst`` with text integer files in place of its ``.bin`` ones:
    one row per line, values apart by a space, as a dataset written by hand has them."""
    shutil.copytree(src, dst)
    for name, width in (("edges", 2), ("times", 1), ("labels", 1)):
        values = np.fromfile(dst / f"{name}.bin", "<i8").reshape(-1, width)
        np.savetxt(dst / name, values, fmt="%d")
        (dst / f"{name}.bin").unlink()
    return dst


def csv_features(ds):
    """Replace dataset ``ds``'s ``features.bin`` with a ``features.csv`` of the same values at 9
    significant digits, the fewest that hold every float32 exactly."""
    np.savetxt(ds / "features.csv", eg.load_dataset(ds).features, delimiter=",", fmt="%.9g")
    (ds / "features.bin").unlink()
    return ds
