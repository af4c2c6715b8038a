"""Unit tests for CART trees."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree_batched import _resolve_max_features
from tests.oracles import ReferenceDecisionTreeClassifier, ReferenceDecisionTreeRegressor


class TestMaxFeaturesSpec:
    def test_none_means_all(self):
        assert _resolve_max_features(None, 10) == 10

    def test_sqrt(self):
        assert _resolve_max_features("sqrt", 16) == 4

    def test_log2(self):
        assert _resolve_max_features("log2", 16) == 4

    def test_fraction(self):
        assert _resolve_max_features(0.5, 10) == 5

    def test_int_clamped(self):
        assert _resolve_max_features(100, 10) == 10

    def test_small_fraction_clamps_to_one(self):
        # Regression: 0.01 * 10 would round to 0 candidate columns and the
        # builder would never find a split; the resolver must keep >= 1.
        assert _resolve_max_features(0.01, 10) == 1
        assert _resolve_max_features(0.05, 12) == 1

    def test_full_fraction_means_all(self):
        assert _resolve_max_features(1.0, 10) == 10

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            _resolve_max_features(0, 10)
        with pytest.raises(ValueError):
            _resolve_max_features(1.5, 10)
        with pytest.raises(ValueError):
            _resolve_max_features("weird", 10)

    def test_non_positive_float_raises(self):
        with pytest.raises(ValueError):
            _resolve_max_features(0.0, 10)
        with pytest.raises(ValueError):
            _resolve_max_features(-0.3, 10)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            _resolve_max_features(True, 10)


class TestRegressor:
    def test_memorises_training_data_when_unconstrained(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_learns_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.score(X, y) > 0.99

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.tree_depth_ <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        tree = DecisionTreeRegressor(min_samples_leaf=8).fit(X, y)

        leaf_sizes = tree._n_samples[tree._feat == -1]
        assert min(leaf_sizes) >= 8

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        tree = DecisionTreeRegressor().fit(X, np.full(10, 3.0))
        assert tree.n_leaves_ == 1
        assert np.allclose(tree.predict(X), 3.0)

    def test_feature_importances_identify_signal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 5))
        y = 5.0 * X[:, 2] + 0.01 * rng.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_duplicate_feature_values_handled(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0])
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict(np.array([[2.0]]))[0] == pytest.approx(1.0)

    def test_all_identical_features_yield_leaf(self):
        X = np.ones((10, 2))
        y = np.arange(10, dtype=float)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves_ == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_feature_count_mismatch(self):
        tree = DecisionTreeRegressor().fit(np.ones((5, 2)), np.arange(5.0))
        with pytest.raises(ValueError):
            tree.predict(np.ones((2, 3)))


class TestClassifier:
    def _blobs(self, seed=0, n=120):
        rng = np.random.default_rng(seed)
        X = np.vstack([
            rng.normal(loc=0.0, size=(n, 2)),
            rng.normal(loc=4.0, size=(n, 2)),
        ])
        y = np.array(["low"] * n + ["high"] * n)
        return X, y

    def test_separates_blobs(self):
        X, y = self._blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_predict_proba_sums_to_one(self):
        X, y = self._blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        probabilities = tree.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_classes_sorted(self):
        X, y = self._blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        assert list(tree.classes_) == ["high", "low"]

    def test_three_classes(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(loc=c, size=(60, 2)) for c in (0, 3, 6)])
        y = np.repeat([0, 1, 2], 60)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_pure_node_is_leaf(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.zeros(6)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves_ == 1

    def test_y_length_mismatch(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.ones((5, 2)), np.zeros(4))

    def test_string_and_int_labels(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        for labels in (np.array([0, 0, 1, 1]), np.array(["a", "a", "b", "b"])):
            tree = DecisionTreeClassifier().fit(X, labels)
            assert tree.predict(X).tolist() == labels.tolist()


class TestOracleParity:
    """A single tree is the array grower with one task; it must equal the
    per-node oracle builder node array for node array."""

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"max_depth": 2},
            {"min_samples_leaf": 5},
            {"max_features": "sqrt", "random_state": 4},
            {"max_features": 0.5, "random_state": 9},
        ],
    )
    @pytest.mark.parametrize("integer_X", [False, True])
    def test_regressor_and_classifier(self, params, integer_X):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(70, 6))
        if integer_X:
            X = np.floor(np.abs(X) * 2)
        y = X[:, 0] - X[:, 3] + rng.normal(size=70)
        labels = np.digitize(y, [-1.0, 1.0])
        pairs = [
            (DecisionTreeRegressor, ReferenceDecisionTreeRegressor, y),
            (DecisionTreeClassifier, ReferenceDecisionTreeClassifier, labels),
        ]
        for tree_cls, oracle_cls, target in pairs:
            fast = tree_cls(**params).fit(X, target)
            reference = oracle_cls(**params).fit(X, target)
            for name in ("_feat", "_thr", "_left", "_right", "_values", "_n_samples"):
                assert np.array_equal(getattr(fast, name), getattr(reference, name)), name
            assert np.array_equal(
                fast.feature_importances_, reference.feature_importances_
            )
            assert fast.tree_depth_ == max(_depths(reference))
            assert fast.n_leaves_ == int(np.sum(reference._feat == -1))
            assert np.array_equal(fast.predict(X), reference.predict(X))


def _depths(tree, node=0, depth=0):
    """Leaf depths by recursive descent (independent of ``tree_depth_``)."""
    if tree._feat[node] == -1:
        return [depth]
    return _depths(tree, tree._left[node], depth + 1) + _depths(
        tree, tree._right[node], depth + 1
    )
