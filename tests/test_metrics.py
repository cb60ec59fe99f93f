import json
import math
from fractions import Fraction

import numpy as np
import pytest

import evograph as eg
from evograph.errors import ValidationError
from evograph.metrics import TaskRecord


class TestAvgAccuracy:
    def test_constant(self):
        assert eg.avg_accuracy([0.5, 0.5, 0.5]) == 0.5

    def test_two_point(self):
        assert eg.avg_accuracy([1.0, 0.0]) == 0.5

    def test_matches_exact_fraction_mean(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1000, 20) / 1000.0
        exact = Fraction(0)
        for v in values:
            exact += Fraction(v)
        exact /= len(values)
        assert abs(eg.avg_accuracy(values) - float(exact)) < 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            eg.avg_accuracy([])


class TestForwardTransfer:
    def test_identical_is_zero(self):
        assert eg.forward_transfer([0.4, 0.6, 0.7], [0.4, 0.6, 0.7]) == 0.0

    def test_direct_formula(self):
        assert np.isclose(eg.forward_transfer([0.9, 0.6, 0.7], [0.1, 0.5, 0.6]), 0.10)

    def test_antisymmetric(self):
        a, b = [0.2, 0.5, 0.9], [0.3, 0.4, 0.7]
        assert np.isclose(eg.forward_transfer(a, b), -eg.forward_transfer(b, a))

    def test_length_errors(self):
        with pytest.raises(ValidationError):
            eg.forward_transfer([0.5], [0.5])
        with pytest.raises(ValidationError):
            eg.forward_transfer([0.5, 0.6], [0.5])


def macro_f1_oracle(y_true, y_pred, classes):
    """Plain per-class F1 average from explicit confusion counts."""
    scores = []
    for c in classes:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        if tp + fp + fn == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores) if scores else 0.0


class TestOpenMacroF1:
    def test_perfect_predictions(self):
        y = [0, 1, eg.UNSEEN, 2]
        assert eg.open_macro_f1(y, y, {0, 1, 2}) == 1.0

    def test_derived_five_ninths(self):
        # y_true' = [0, 1, unseen], y_pred' = [0, unseen, unseen]
        y_true = [0, 1, 7]  # class 7 not known -> maps to unseen
        y_pred = [0, eg.UNSEEN, eg.UNSEEN]
        value = eg.open_macro_f1(y_true, y_pred, {0, 1})
        assert abs(value - 5 / 9) < 1e-12
        oracle = macro_f1_oracle([0, 1, eg.UNSEEN], y_pred, [0, 1, eg.UNSEEN])
        assert abs(value - oracle) < 1e-12

    def test_all_unseen_no_true_unseen(self):
        assert eg.open_macro_f1([0, 1], [eg.UNSEEN, eg.UNSEEN], {0, 1}) == 0.0

    def test_reduces_to_plain_macro_f1(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            y_true = rng.integers(0, 4, 30)
            y_pred = rng.integers(0, 4, 30)
            ours = eg.open_macro_f1(y_true, y_pred, {0, 1, 2, 3})
            oracle = macro_f1_oracle(y_true.tolist(), y_pred.tolist(), [0, 1, 2, 3])
            assert abs(ours - oracle) < 1e-12

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            eg.open_macro_f1([], [], {0})


class TestMcc:
    def test_perfect(self):
        assert eg.mcc(1, 1, 0, 0) == 1.0

    def test_total_inversion(self):
        assert eg.mcc(0, 0, 3, 5) == -1.0

    def test_derived_value_high_precision(self):
        exact = Fraction(10 * 80 - 5 * 5, 1)
        denom = Fraction(15 * 15 * 85 * 85)
        oracle = float(exact / Fraction(math.isqrt(int(denom))))
        assert abs(oracle - 0.60784) < 1e-5
        assert abs(eg.mcc(10, 80, 5, 5) - oracle) < 1e-12

    def test_degenerate_zero(self):
        assert eg.mcc(0, 5, 0, 0) == 0.0

    def test_swap_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tp, tn, fp, fn = (int(x) for x in rng.integers(0, 50, 4))
            assert np.isclose(eg.mcc(tp, tn, fp, fn), eg.mcc(tn, tp, fn, fp))

    def test_negative_counts_error(self):
        with pytest.raises(ValidationError):
            eg.mcc(-1, 0, 0, 0)


class TestDriftMagnitude:
    def test_identical(self):
        assert eg.drift_magnitude({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0

    def test_support_union(self):
        assert np.isclose(
            eg.drift_magnitude({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.25, 2: 0.25}), 0.25
        )

    def test_disjoint_supports(self):
        assert eg.drift_magnitude({0: 1.0}, {1: 1.0}) == 1.0

    def test_negative_probability_error(self):
        with pytest.raises(ValidationError):
            eg.drift_magnitude({0: -0.5, 1: 1.5}, {0: 1.0})

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            dists = []
            for _ in range(3):
                raw = rng.uniform(0.01, 1, 4)
                raw /= raw.sum()
                dists.append({i: float(p) for i, p in enumerate(raw)})
            a, b, c = dists
            assert eg.drift_magnitude(a, c) <= (
                eg.drift_magnitude(a, b) + eg.drift_magnitude(b, c) + 1e-12
            )


class TestSymmetricDivergence:
    def test_identical_zero(self):
        assert eg.symmetric_divergence({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0

    def test_derived_value(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 0.25, 1: 0.75}
        kl_pq = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        kl_qp = 0.25 * math.log(0.25 / 0.5) + 0.75 * math.log(0.75 / 0.5)
        oracle = 0.5 * kl_pq + 0.5 * kl_qp
        assert abs(oracle - 0.13733) < 1e-5
        assert abs(eg.symmetric_divergence(p, q) - oracle) < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            raw1 = rng.uniform(0.01, 1, 3)
            raw2 = rng.uniform(0.01, 1, 3)
            p = {i: float(x) for i, x in enumerate(raw1 / raw1.sum())}
            q = {i: float(x) for i, x in enumerate(raw2 / raw2.sum())}
            assert np.isclose(eg.symmetric_divergence(p, q), eg.symmetric_divergence(q, p))

    def test_zero_mass_errors_without_smoothing(self):
        with pytest.raises(ValidationError):
            eg.symmetric_divergence({0: 1.0}, {1: 1.0})
        assert eg.symmetric_divergence({0: 1.0}, {1: 1.0}, smooth=True) > 0


class TestMetricsReport:
    def build(self):
        return eg.MetricsReport(
            records=[
                TaskRecord(t=1, accuracy=0.8, tp=1, tn=10, fp=2, fn=1, open_f1=0.5),
                TaskRecord(t=2, accuracy=0.6, tp=2, tn=12, fp=0, fn=3, open_f1=0.7),
            ]
        )

    def test_aggregates_recomputable(self):
        rep = self.build()
        assert rep.avg_accuracy() == eg.avg_accuracy([0.8, 0.6])
        assert rep.mcc() == eg.mcc(3, 22, 2, 4)
        assert rep.open_macro_f1() == np.mean([0.5, 0.7])

    def test_jsonl_round_trip(self):
        rep = self.build()
        text = rep.to_jsonl()
        back = eg.MetricsReport.from_jsonl(text)
        assert back.records == rep.records
        assert back.to_jsonl() == text
        summary_line = json.loads(text.splitlines()[-1])
        assert summary_line["kind"] == "summary"
        assert summary_line["avg_accuracy"] == rep.avg_accuracy()

    def test_record_key_set(self):
        line = json.loads(self.build().to_jsonl().splitlines()[0])
        assert set(line) == {"kind", "t", "accuracy", "tp", "tn", "fp", "fn", "open_f1"}

    def test_events_stay_out_of_the_value(self):
        rep = self.build()
        rep.events.extend([{"t": 1, "thresholds": [0.75]}, {"t": 2, "thresholds": [0.8]}])
        assert rep == self.build()
        assert rep.to_jsonl() == self.build().to_jsonl()
        assert eg.MetricsReport.from_jsonl(rep.to_jsonl()).events == []


def test_mean_ci95():
    mean, ci = eg.mean_ci95([1.0])
    assert mean == 1.0 and ci == 0.0
    mean, ci = eg.mean_ci95([0.0, 1.0])
    sem = np.std([0.0, 1.0], ddof=1) / math.sqrt(2)
    assert np.isclose(ci, 1.96 * sem)
