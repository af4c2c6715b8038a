"""The packed-key split scan against the per-node oracle.

The grower sorts integer keys ``rank << bits | cell`` built from a dense
rank table of ``X`` instead of stable-sorting float values, and runs its
prefix sums either through ``np.cumsum`` or a row-addition loop.  These
cases aim at the places where that could differ from the oracle's stable
float ``argsort``: signed zeros, single-valued columns, nodes wider than
256 slots, both sides of the prefix-sum switch, heavy ties with
``min_samples_leaf > 1``, and Gini scans over more than two classes.
"""

import numpy as np
import pytest

from repro.ml import tree_batched
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree_batched import _dense_ranks, _prefix_sums, fit_tree_batch
from repro.obs.telemetry import fresh_telemetry
from tests.oracles import (
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
    ReferenceRandomForestClassifier,
    ReferenceRandomForestRegressor,
)
from tests.test_ml_forest import _assert_same_trees, _counts

TREE_ARRAYS = ("_feat", "_thr", "_left", "_right", "_values", "_n_samples")


def _assert_tree_parity(tree_cls, oracle_cls, X, y, **params):
    fast = tree_cls(**params).fit(X, y)
    reference = oracle_cls(**params).fit(X, y)
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(fast, name), getattr(reference, name)), name
    assert np.array_equal(fast.feature_importances_, reference.feature_importances_)
    return fast


def _signed_zero_data(n=80, seed=0):
    """Columns mixing -0.0 and 0.0 among other values, plus constant ones."""
    rng = np.random.default_rng(seed)
    X = np.floor(rng.normal(size=(n, 6)))
    X[X == 0.0] = 0.0
    X[rng.random(size=X.shape) < 0.5] *= -1.0  # flips the sign of some zeros
    X[:, 2] = rng.choice([-0.0, 0.0], size=n)  # only zeros, both signs
    X[:, 4] = 3.0  # a single value
    y = X[:, 0] + X[:, 1] + rng.normal(size=n)
    return X, y


class TestDenseRanks:
    def test_ranks_are_dense_and_ordered(self):
        X, _ = _counts(n=50, p=5)
        ranks = _dense_ranks(X)
        assert ranks.shape == (5, 51)
        for f in range(5):
            values = np.unique(X[:, f])
            assert np.array_equal(ranks[f, :-1], np.searchsorted(values, X[:, f]))
            assert ranks[f, -1] == 50  # the pad row tops every rank

    def test_signed_zeros_share_a_rank(self):
        X, _ = _signed_zero_data()
        ranks = _dense_ranks(X)
        assert np.signbit(X[:, 2]).any() and not np.signbit(X[:, 2]).all()
        assert np.all(ranks[2, :-1] == 0)
        assert np.all(ranks[4, :-1] == 0)
        column = X[:, 0]
        zeros = column == 0.0
        assert np.unique(ranks[0, :-1][zeros]).size == 1


class TestScanParity:
    @pytest.mark.parametrize("params", [{}, {"max_features": "sqrt", "random_state": 2}])
    def test_signed_zeros_and_single_valued_columns(self, params):
        X, y = _signed_zero_data()
        _assert_tree_parity(
            DecisionTreeRegressor, ReferenceDecisionTreeRegressor, X, y, **params
        )
        labels = np.digitize(y, [-1.0, 1.0])
        _assert_tree_parity(
            DecisionTreeClassifier, ReferenceDecisionTreeClassifier, X, labels, **params
        )

    @pytest.mark.parametrize("integer_X", [False, True])
    def test_node_wider_than_256_slots(self, integer_X):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        if integer_X:
            X = np.floor(np.abs(X) * 3)
        y = X[:, 0] * X[:, 1] + rng.normal(size=300)
        tree = _assert_tree_parity(
            DecisionTreeRegressor, ReferenceDecisionTreeRegressor, X, y
        )
        assert tree._n_samples[0] == 300 and tree._feat[0] >= 0

    @pytest.mark.parametrize("n_estimators, loop", [(1, False), (40, True)])
    def test_both_sides_of_the_prefix_sum_switch(self, monkeypatch, n_estimators, loop):
        """One tree scans rows of ``k * 2`` statistics (the cumsum side);
        40 trees side by side scan rows of up to ``40 * k * 2`` (the loop)."""
        sides = set()

        def spy(a):
            sides.add(a[0].size >= 256)
            return _prefix_sums(a)

        monkeypatch.setattr(tree_batched, "_prefix_sums", spy)
        X, y = _counts(n=70, p=9)
        fast = RandomForestRegressor(
            n_estimators=n_estimators, max_features="sqrt", random_state=5
        ).fit(X, y)
        reference = ReferenceRandomForestRegressor(
            n_estimators=n_estimators, max_features="sqrt", random_state=5
        ).fit(X, y)
        _assert_same_trees(fast, reference)
        assert sides == ({False, True} if loop else {False})

    @pytest.mark.parametrize("min_samples_leaf", [2, 3, 7])
    def test_min_samples_leaf_on_tie_heavy_counts(self, min_samples_leaf):
        X, y = _counts(n=110, p=6, seed=4)
        params = {"min_samples_leaf": min_samples_leaf, "random_state": 1}
        fast = RandomForestRegressor(n_estimators=8, max_features=0.5, **params).fit(X, y)
        reference = ReferenceRandomForestRegressor(
            n_estimators=8, max_features=0.5, **params
        ).fit(X, y)
        _assert_same_trees(fast, reference)
        labels = (y > np.median(y)).astype(int)
        _assert_tree_parity(
            DecisionTreeClassifier, ReferenceDecisionTreeClassifier, X, labels,
            min_samples_leaf=min_samples_leaf,
        )

    @pytest.mark.parametrize("n_classes", [3, 5])
    def test_classifier_with_more_than_two_classes(self, n_classes):
        X, y = _counts(n=120, p=7, seed=6)
        labels = np.digitize(y, np.quantile(y, np.linspace(0, 1, n_classes + 1)[1:-1]))
        assert np.unique(labels).size == n_classes
        params = {"n_estimators": 10, "max_features": "sqrt", "random_state": 4}
        fast = RandomForestClassifier(**params).fit(X, labels)
        reference = ReferenceRandomForestClassifier(**params).fit(X, labels)
        _assert_same_trees(fast, reference)
        assert np.array_equal(fast.predict_proba(X), reference.predict_proba(X))


@pytest.mark.parametrize("shape", [(7, 3, 1), (7, 127, 2), (7, 128, 2), (5, 300, 3)])
def test_prefix_sums_equal_cumsum_bit_for_bit(shape):
    scale = 10.0 ** np.arange(shape[0])[:, None, None]
    values = np.random.default_rng(0).normal(size=shape) * scale
    assert np.array_equal(_prefix_sums(values.copy()), np.cumsum(values, axis=0))


def test_scan_cells_do_not_depend_on_batching():
    """``forest/scan_cells`` sums node size times candidates over scanned
    nodes, so trees grown as one batch count what they count one by one."""
    X, y = _counts(n=80, p=9)
    rng = np.random.default_rng(8)
    tasks = [(seed, rng.integers(0, 80, size=80)) for seed in range(6)]
    params = {"max_features": "sqrt", "min_samples_leaf": 2}
    with fresh_telemetry() as batched:
        fit_tree_batch(X, y, params, tasks)
    with fresh_telemetry() as one_by_one:
        for task in tasks:
            fit_tree_batch(X, y, params, [task])
    cells = batched.as_dict()["counters"]["forest/scan_cells"]
    assert cells > 0
    assert one_by_one.as_dict()["counters"]["forest/scan_cells"] == cells
