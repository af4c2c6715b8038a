"""Unit tests for NDCG, macro-F1, and regression metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy,
    dcg,
    macro_f1,
    ndcg_at,
    per_node_f1,
    precision_recall_f1,
    r2_score,
)


class TestDCG:
    def test_empty(self):
        assert dcg(np.array([])) == 0.0

    def test_single(self):
        assert dcg(np.array([3.0])) == pytest.approx(3.0)

    def test_discounting(self):
        # positions 1, 2: discounts log2(2)=1, log2(3)
        assert dcg(np.array([1.0, 1.0])) == pytest.approx(1.0 + 1.0 / np.log2(3))


class TestNDCG:
    def test_perfect_ranking_is_one(self):
        rel = np.array([5.0, 3.0, 1.0, 0.0])
        assert ndcg_at(rel, rel, 3) == pytest.approx(1.0)

    def test_monotone_transform_of_scores_invariant(self):
        rel = np.array([5.0, 3.0, 1.0, 0.0])
        assert ndcg_at(rel, rel * 100 + 7, 3) == pytest.approx(1.0)

    def test_worst_ranking_below_one(self):
        rel = np.array([10.0, 0.0, 0.0, 0.0])
        assert ndcg_at(rel, -rel, 2) < 0.5

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rel = rng.random(30)
            scores = rng.random(30)
            value = ndcg_at(rel, scores, 20)
            assert 0.0 <= value <= 1.0

    def test_all_zero_relevance_is_one(self):
        assert ndcg_at(np.zeros(5), np.arange(5.0), 3) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ndcg_at(np.ones(3), np.ones(4))

    def test_bad_n_raises(self):
        with pytest.raises(ValueError):
            ndcg_at(np.ones(3), np.ones(3), n=0)

    def test_paper_cutoff_20(self):
        """With fewer than n items the metric still works."""
        rel = np.array([3.0, 2.0, 1.0])
        assert ndcg_at(rel, rel, 20) == pytest.approx(1.0)


class TestClassification:
    def test_accuracy(self):
        assert accuracy(["a", "b", "a"], ["a", "b", "b"]) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_precision_recall_f1_perfect(self):
        p, r, f = precision_recall_f1(["x", "y"], ["x", "y"], positive="x")
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_precision_recall_f1_zero_division(self):
        # class never predicted and never true -> all zeros, no crash
        p, r, f = precision_recall_f1(["x", "x"], ["x", "x"], positive="y")
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_macro_f1_perfect(self):
        assert macro_f1(["a", "b", "c"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_macro_f1_penalises_invented_class(self):
        """Predicting a class that never occurs drags the average down."""
        balanced = macro_f1(["a", "a", "b", "b"], ["a", "a", "b", "b"])
        invented = macro_f1(["a", "a", "b", "b"], ["a", "a", "b", "c"])
        assert invented < balanced

    def test_macro_f1_unweighted_across_classes(self):
        """A rare class's F1 counts as much as a common class's."""
        y_true = ["a"] * 9 + ["b"]
        y_pred = ["a"] * 9 + ["a"]  # misses the single b completely
        # class a: P=0.9, R=1 -> F1~0.947; class b: 0 -> macro ~0.47
        assert macro_f1(y_true, y_pred) == pytest.approx((2 * 0.9 / 1.9 + 0) / 2)

    def test_per_node_f1_equals_accuracy(self):
        """The literal Eq. 7 collapses to accuracy for single-label nodes."""
        y_true = ["a", "b", "c", "a"]
        y_pred = ["a", "b", "a", "a"]
        assert per_node_f1(y_true, y_pred) == accuracy(y_true, y_pred)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            macro_f1(["a"], ["a", "b"])


class TestRegression:
    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == pytest.approx(1.0)

    def test_r2_mean_prediction_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_can_be_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.array([3.0, 3.0, -3.0])) < 0

    def test_r2_constant_target(self):
        y = np.array([2.0, 2.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.array([1.0, 3.0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score([1.0], [1.0, 2.0])
