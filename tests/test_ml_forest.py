"""Unit tests for random forests."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.obs.telemetry import fresh_telemetry
from tests.oracles import (
    ReferenceRandomForestClassifier,
    ReferenceRandomForestRegressor,
)

NODE_ARRAYS = ("_feat", "_thr", "_left", "_right", "_n_samples")


def _friedmanish(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 5))
    y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2] + rng.normal(0, 0.2, n)
    return X, y


def _counts(n=120, p=8, seed=0):
    """Heavy-tailed integer features with many ties, like subgraph counts."""
    rng = np.random.default_rng(seed)
    X = np.floor(rng.pareto(1.5, size=(n, p))).astype(np.float64)
    y = np.log1p(X[:, 0] + 2 * X[:, 1]) + rng.integers(0, 3, size=n)
    return X, y


def _assert_same_trees(fast, reference):
    """Every tree's node arrays, values (on the forest class axis) and
    importances are equal bit for bit."""
    classes = getattr(fast, "classes_", None)
    assert len(fast.estimators_) == len(reference.estimators_)
    for a, b in zip(fast.estimators_, reference.estimators_):
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        values = b._values
        if classes is not None:
            values = np.zeros((b._values.shape[0], classes.size))
            values[:, np.searchsorted(classes, b.classes_)] = b._values
        assert np.array_equal(a._values, values)
        assert np.array_equal(a.feature_importances_, b.feature_importances_)
    assert np.array_equal(fast.feature_importances_, reference.feature_importances_)


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

    def test_wrong_column_count_raises(self):
        X, y = _friedmanish(n=60)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="fitted on 5 features"):
            forest.predict(X[:, :4])
        labels = (y > np.median(y)).astype(int)
        forest = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, labels)
        with pytest.raises(ValueError, match="fitted on 5 features"):
            forest.predict_proba(np.hstack([X, X]))

    def test_engine_validation(self):
        with pytest.raises(TypeError):
            RandomForestRegressor(engine="warp")
        with pytest.raises(ValueError):
            RandomForestRegressor(n_jobs=-1)


#: Forest settings the oracle parity grid crosses with both data sets.
PARITY_PARAMS = [
    pytest.param({}, id="defaults"),
    pytest.param({"max_depth": 3}, id="max_depth"),
    pytest.param({"min_samples_leaf": 4}, id="min_samples_leaf"),
    pytest.param({"min_samples_split": 9}, id="min_samples_split"),
    pytest.param({"bootstrap": False}, id="no_bootstrap"),
    *(
        pytest.param({"max_features": spec}, id=f"max_features={spec}")
        for spec in (None, "sqrt", "log2", 0.5, 3)
    ),
]


class TestOracleParity:
    """The level-array grower and the all-trees predict equal the per-node
    oracle tree by tree, on tie-heavy integer data as well as continuous."""

    @pytest.mark.parametrize("data", [_friedmanish, _counts], ids=["continuous", "counts"])
    @pytest.mark.parametrize("params", PARITY_PARAMS)
    def test_regressor(self, data, params):
        X, y = data(n=90)
        fast = RandomForestRegressor(n_estimators=6, random_state=3, **params).fit(X, y)
        reference = ReferenceRandomForestRegressor(
            n_estimators=6, random_state=3, **params
        ).fit(X, y)
        _assert_same_trees(fast, reference)
        assert np.array_equal(fast.predict(X), reference.predict(X))

    @pytest.mark.parametrize("data", [_friedmanish, _counts], ids=["continuous", "counts"])
    @pytest.mark.parametrize("params", PARITY_PARAMS)
    def test_classifier(self, data, params):
        X, y = data(n=90)
        labels = np.digitize(y, np.quantile(y, [0.3, 0.7]))
        fast = RandomForestClassifier(n_estimators=6, random_state=3, **params).fit(
            X, labels
        )
        reference = ReferenceRandomForestClassifier(
            n_estimators=6, random_state=3, **params
        ).fit(X, labels)
        _assert_same_trees(fast, reference)
        assert np.array_equal(fast.predict_proba(X), reference.predict_proba(X))

    def test_classifier_rare_class_missing_from_bootstraps(self):
        X, _ = _counts(n=60)
        labels = np.array(["common"] * 40 + ["other"] * 19 + ["rare"])
        fast = RandomForestClassifier(n_estimators=12, random_state=1).fit(X, labels)
        reference = ReferenceRandomForestClassifier(
            n_estimators=12, random_state=1
        ).fit(X, labels)
        # The case under test: some bootstraps drew no "rare" sample.
        assert any(tree.classes_.size == 2 for tree in reference.estimators_)
        _assert_same_trees(fast, reference)
        assert np.array_equal(fast.predict_proba(X), reference.predict_proba(X))

    @pytest.mark.parametrize("forest_cls", [RandomForestRegressor, RandomForestClassifier])
    def test_node_arrays_equal_across_n_jobs(self, forest_cls):
        X, y = _counts(n=80)
        if forest_cls is RandomForestClassifier:
            y = (y > np.median(y)).astype(int)
        serial = forest_cls(n_estimators=5, random_state=2, n_jobs=1).fit(X, y)
        parallel = forest_cls(n_estimators=5, random_state=2, n_jobs=2).fit(X, y)
        _assert_same_trees(serial, parallel)

    def test_astronomical_targets(self):
        """Squares of ~1e300 targets overflow and split scores go NaN; the
        grower must then refuse the split as the oracle does, not crash."""
        X, y = _counts(n=60, p=4)
        y[::7] = 1e300
        y[3::11] = -1e300
        with np.errstate(over="ignore", invalid="ignore"):
            fast = RandomForestRegressor(n_estimators=10, random_state=0).fit(X, y)
            reference = ReferenceRandomForestRegressor(
                n_estimators=10, random_state=0
            ).fit(X, y)
        _assert_same_trees(fast, reference)
        assert np.array_equal(fast.predict(X), reference.predict(X))


class TestWorkCounters:
    @pytest.mark.parametrize("forest_cls", [RandomForestRegressor, RandomForestClassifier])
    def test_inline_and_pooled_manifests_agree(self, forest_cls):
        X, y = _counts(n=80)
        if forest_cls is RandomForestClassifier:
            y = (y > np.median(y)).astype(int)
        with fresh_telemetry() as serial:
            forest = forest_cls(n_estimators=6, random_state=2, n_jobs=1).fit(X, y)
        with fresh_telemetry() as parallel:
            forest_cls(n_estimators=6, random_state=2, n_jobs=2).fit(X, y)
        nodes = sum(tree._feat.size for tree in forest.estimators_)
        levels = 1 + max(tree.tree_depth_ for tree in forest.estimators_)
        for manifest in (serial.as_dict(), parallel.as_dict()):
            assert manifest["counters"]["forest/trees"] == 6
            assert manifest["counters"]["forest/nodes"] == nodes
            assert manifest["gauges"]["forest/levels"] == levels
