import math

import numpy as np
import pytest

import evograph as eg
import reference_kernels as ref
from evograph.errors import ValidationError


def logit(p):
    return np.log(np.asarray(p, dtype=np.float64) / (1.0 - np.asarray(p, dtype=np.float64)))


class TestClassWeights:
    def test_three_one_split(self):
        w = eg.class_weights([0, 0, 0, 1], np.ones(4, bool), 2)
        assert np.allclose(w, [1 / 3, 3.0])

    def test_balanced(self):
        w = eg.class_weights([0, 1, 0, 1], np.ones(4, bool), 2)
        assert np.allclose(w, [1.0, 1.0])

    def test_absent_class_gets_one(self):
        w = eg.class_weights([0, 0], np.ones(2, bool), 3)
        assert w[1] == 1.0 and w[2] == 1.0

    def test_empty_mask_errors(self):
        with pytest.raises(ValidationError):
            eg.class_weights([0, 1], np.zeros(2, bool), 2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_bad_masked_label_errors(self, bad):
        with pytest.raises(ValidationError, match="labels on masked rows must be valid"):
            eg.class_weights([0, bad, 1], np.ones(3, bool), 2)
        # a bad label outside the mask is never read
        w = eg.class_weights([0, bad, 1], np.array([True, False, True]), 2)
        assert np.array_equal(w, [1.0, 1.0])


class TestDetectorConfig:
    def test_default_tau_min_follows_variant(self):
        assert eg.DetectorConfig(variant=eg.DOC).tau_min == 0.5
        assert eg.DetectorConfig(variant=eg.GDOC).tau_min == 0.75
        assert eg.DetectorConfig().tau_min == 0.75
        assert eg.DetectorConfig(variant=eg.DOC, tau_min=0.9).tau_min == 0.9


class TestFitThresholds:
    def fit_one_class(self, outputs, cfg):
        arr = np.asarray(outputs, dtype=np.float64)[:, None]
        labels = np.zeros(arr.shape[0], dtype=np.int64)
        return eg.fit_thresholds(arr, labels, np.ones(arr.shape[0], bool), cfg)

    def test_alpha_zero_with_risk_reduction_forces_one(self):
        cfg = eg.DetectorConfig(variant=eg.GDOC, tau_min=0.5, alpha=0.0, use_risk_reduction=True)
        thr = self.fit_one_class([0.7, 0.9], cfg)
        assert thr.tau[0] == 1.0

    def test_mirror_point_example(self):
        # outputs {0.8, 0.9, 1.0}: mirrored set {0.8,0.9,1.0,1.0,1.1,1.2}
        mirrored = [0.8, 0.9, 1.0, 1.0, 1.1, 1.2]
        sd_oracle = math.sqrt(sum((x - 1.0) ** 2 for x in mirrored) / len(mirrored))
        tau_oracle = max(0.5, 1.0 - 3.0 * sd_oracle)
        assert abs(tau_oracle - 0.61270) < 1e-5
        cfg = eg.DetectorConfig(variant=eg.GDOC, tau_min=0.5, alpha=3.0, use_risk_reduction=True)
        thr = self.fit_one_class([0.8, 0.9, 1.0], cfg)
        assert abs(thr.tau[0] - tau_oracle) < 1e-12

    def test_bypass_when_disabled(self):
        cfg = eg.DetectorConfig(variant=eg.GDOC, tau_min=0.75, alpha=3.0, use_risk_reduction=False)
        thr = self.fit_one_class([0.2, 0.4], cfg)
        assert np.all(thr.tau == 0.75)

    def test_unpopulated_class_gets_tau_min(self):
        outputs = np.full((3, 2), 0.9)
        labels = np.zeros(3, dtype=np.int64)  # class 1 never trained
        cfg = eg.DetectorConfig(variant=eg.GDOC, tau_min=0.6, alpha=3.0, use_risk_reduction=True)
        thr = eg.fit_thresholds(outputs, labels, np.ones(3, bool), cfg)
        assert thr.tau[1] == 0.6

    def test_never_below_tau_min(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            outputs = rng.uniform(0, 1, size=(8, 3))
            labels = rng.integers(0, 3, 8)
            cfg = eg.DetectorConfig(
                variant=eg.GDOC, tau_min=0.75, alpha=float(rng.uniform(0, 5)),
                use_risk_reduction=True,
            )
            thr = eg.fit_thresholds(outputs, labels, np.ones(8, bool), cfg)
            assert np.all(thr.tau >= 0.75)


class TestPredictOpen:
    def test_all_below_rejects(self):
        pred = eg.predict_open(logit([[0.6, 0.4]]), eg.Thresholds([0.75, 0.75]))
        assert pred[0] == eg.UNSEEN

    def test_one_above_accepts(self):
        pred = eg.predict_open(logit([[0.8, 0.1]]), eg.Thresholds([0.75, 0.75]))
        assert pred[0] == 0

    def test_argmax_not_first_above(self):
        pred = eg.predict_open(logit([[0.8, 0.9]]), eg.Thresholds([0.75, 0.75]))
        assert pred[0] == 1

    def test_tie_breaks_to_lowest_class(self):
        pred = eg.predict_open(np.array([[2.0, 2.0]]), eg.Thresholds([0.5, 0.5]))
        assert pred[0] == 0

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            eg.predict_open(np.zeros((1, 3)), eg.Thresholds([0.5, 0.5]))

    def test_tiny_thresholds_reject_nothing(self):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-10, 10, size=(50, 4))
        pred = eg.predict_open(logits, eg.Thresholds([1e-12] * 4))
        assert np.all(pred != eg.UNSEEN)

    def test_unit_thresholds_reject_everything(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-20, 20, size=(50, 4))
        pred = eg.predict_open(logits, eg.Thresholds([1.0] * 4))
        assert np.all(pred == eg.UNSEEN)

    def test_raising_thresholds_never_unrejects(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-5, 5, size=(40, 3))
        tau = np.full(3, 0.5)
        rejected = eg.predict_open(logits, eg.Thresholds(tau)) == eg.UNSEEN
        for i in range(3):
            higher = tau.copy()
            higher[i] = 0.9
            rejected_higher = eg.predict_open(logits, eg.Thresholds(higher)) == eg.UNSEEN
            assert np.all(rejected_higher | ~rejected)

    def test_raising_tau_min_weakly_increases_rejections(self):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-5, 5, size=(60, 3))
        counts = [
            int(np.sum(eg.predict_open(logits, eg.Thresholds([t] * 3)) == eg.UNSEEN))
            for t in (0.3, 0.5, 0.75, 0.9)
        ]
        assert counts == sorted(counts)


class TestSigmoid:
    """``sigmoid`` against the two-branch reference, bit for bit."""

    def assert_same(self, z):
        with np.errstate(over="ignore", invalid="ignore"):
            got, expected = eg.sigmoid(z), ref.sigmoid(z)
        assert type(got) is type(expected)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(ref.bits(got), ref.bits(expected))

    def test_edge_values(self):
        specials = [0.0, np.inf, np.nan, 5e-324, 36.8, 709.8, 745.2]
        z = np.array(specials + [-v for v in specials])
        assert np.signbit(z[7]) and np.signbit(z[9])  # -0.0 and a negative nan
        self.assert_same(z)
        for value in z:
            self.assert_same(value)

    def test_normal_draws(self):
        self.assert_same(np.random.default_rng(0).normal(size=10**4) * 50)

    def test_shapes_and_dtypes(self):
        self.assert_same(np.float64(3.5))
        self.assert_same(-2)
        self.assert_same(np.empty((0, 3)))
        self.assert_same(np.arange(-40, 41).reshape(9, 9))
        self.assert_same(np.array([[-1.0, 2.0]], dtype=np.float32))
