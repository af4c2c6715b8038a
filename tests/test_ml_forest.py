"""Unit tests for random forests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from tests.oracles import (
    ReferenceRandomForestClassifier,
    ReferenceRandomForestRegressor,
)


def _friedmanish(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2] + rng.normal(0, 0.2, n)
    return X, y


class TestRegressorForest:
    def test_beats_single_tree_out_of_sample(self):
        from repro.ml.tree import DecisionTreeRegressor

        X, y = _friedmanish()
        X_train, y_train = X[:200], y[:200]
        X_test, y_test = X[200:], y[200:]
        tree = DecisionTreeRegressor(random_state=0).fit(X_train, y_train)
        forest = RandomForestRegressor(n_estimators=40, random_state=0).fit(
            X_train, y_train
        )
        assert forest.score(X_test, y_test) > tree.score(X_test, y_test)

    def test_deterministic_with_seed(self):
        X, y = _friedmanish(n=100)
        a = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y)
        b = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_importances_normalised(self):
        X, y = _friedmanish(n=150)
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)
        assert np.all(forest.feature_importances_ >= 0)

    def test_importances_rank_signal_over_noise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 6))
        y = 4.0 * X[:, 1] + 0.05 * rng.normal(size=300)
        forest = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert np.argmax(forest.feature_importances_) == 1

    def test_no_bootstrap_mode(self):
        X, y = _friedmanish(n=100)
        forest = RandomForestRegressor(
            n_estimators=5, bootstrap=False, random_state=0
        ).fit(X, y)
        # Without bootstrap and with all features every tree memorises.
        assert forest.score(X, y) > 0.99

    def test_bad_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)


class TestClassifierForest:
    def _blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(loc=c, size=(80, 3)) for c in (0, 2.5, 5)])
        y = np.repeat(["a", "b", "c"], 80)
        return X, y

    def test_separates_blobs(self):
        X, y = self._blobs()
        forest = RandomForestClassifier(n_estimators=25, random_state=0).fit(X, y)
        assert forest.score(X, y) > 0.95

    def test_predict_proba_valid_distribution(self):
        X, y = self._blobs()
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        probabilities = forest.predict_proba(X)
        assert probabilities.shape == (X.shape[0], 3)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0)

    def test_predict_consistent_with_proba(self):
        X, y = self._blobs()
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(X, y)
        probabilities = forest.predict_proba(X)
        predictions = forest.predict(X)
        assert np.array_equal(
            predictions, forest.classes_[np.argmax(probabilities, axis=1)]
        )

    def test_handles_bootstrap_missing_class(self):
        """Tiny class may vanish from bootstrap samples; probabilities must
        still align to the forest-level class list."""
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(size=(50, 2)), rng.normal(loc=5, size=(2, 2))])
        y = np.array(["common"] * 50 + ["rare"] * 2)
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        probabilities = forest.predict_proba(X)
        assert probabilities.shape[1] == 2
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_y_mismatch(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.ones((5, 2)), np.zeros(4))


class TestEnginesAndParallelism:
    """The batched growth and the process fan-out are bit-exact
    reformulations of the sequential per-tree oracle."""

    def test_fast_engine_matches_reference_regressor(self):
        X, y = _friedmanish(n=150)
        fast = RandomForestRegressor(
            n_estimators=15, max_features="sqrt", random_state=4
        ).fit(X, y)
        reference = ReferenceRandomForestRegressor(
            n_estimators=15, max_features="sqrt", random_state=4
        ).fit(X, y)
        assert np.array_equal(fast.predict(X), reference.predict(X))
        assert np.array_equal(
            fast.feature_importances_, reference.feature_importances_
        )

    def test_fast_engine_matches_reference_classifier(self):
        X, y = _friedmanish(n=150)
        labels = (y > np.median(y)).astype(int)
        fast = RandomForestClassifier(n_estimators=15, random_state=4).fit(X, labels)
        reference = ReferenceRandomForestClassifier(
            n_estimators=15, random_state=4
        ).fit(X, labels)
        assert np.array_equal(fast.predict_proba(X), reference.predict_proba(X))
        assert np.array_equal(
            fast.feature_importances_, reference.feature_importances_
        )

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_regressor_n_jobs_bit_identical(self, n_jobs):
        X, y = _friedmanish(n=120)
        serial = RandomForestRegressor(n_estimators=8, random_state=7).fit(X, y)
        parallel = RandomForestRegressor(
            n_estimators=8, random_state=7, n_jobs=n_jobs
        ).fit(X, y)
        assert np.array_equal(serial.predict(X), parallel.predict(X))
        assert np.array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_classifier_n_jobs_bit_identical(self, n_jobs):
        X, y = _friedmanish(n=120)
        labels = (y > np.median(y)).astype(int)
        serial = RandomForestClassifier(n_estimators=8, random_state=7).fit(X, labels)
        parallel = RandomForestClassifier(
            n_estimators=8, random_state=7, n_jobs=n_jobs
        ).fit(X, labels)
        assert np.array_equal(
            serial.predict_proba(X), parallel.predict_proba(X)
        )
        assert np.array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )

    def test_engine_validation(self):
        with pytest.raises(TypeError):
            RandomForestRegressor(engine="warp")
        with pytest.raises(ValueError):
            RandomForestRegressor(n_jobs=-1)
