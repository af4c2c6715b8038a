"""Property-based tests (hypothesis) for the ML substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import (
    DecisionTreeRegressor,
    LinearRegression,
    StandardScaler,
)
from repro.ml.preprocessing import train_test_split


def finite_matrix(rows=st.integers(5, 30), cols=st.integers(1, 5)):
    return rows.flatmap(
        lambda r: cols.flatmap(
            lambda c: arrays(
                np.float64,
                (r, c),
                elements=st.floats(-100, 100, allow_nan=False, width=32),
            )
        )
    )


class TestScalerProperties:
    @given(finite_matrix())
    @settings(max_examples=60, deadline=None)
    def test_transform_standardises_columns(self, X):
        Z = StandardScaler().fit_transform(X)
        constant = (X == X[0]).all(axis=0)
        assert np.all(Z[:, constant] == 0.0)
        assert np.allclose(Z[:, ~constant].mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(Z[:, ~constant].std(axis=0), 1.0, atol=1e-6)

    @given(finite_matrix())
    @settings(max_examples=60, deadline=None)
    def test_output_always_finite(self, X):
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))


class TestTreeProperties:
    @given(
        finite_matrix(rows=st.integers(8, 40)),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_predictions_within_target_range(self, X, seed):
        """A regression tree predicts leaf means: never outside [min, max]
        of the training targets."""
        rng = np.random.default_rng(seed)
        y = rng.normal(size=X.shape[0])
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        predictions = tree.predict(X)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @given(finite_matrix(rows=st.integers(8, 40)), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_importances_are_distribution_or_zero(self, X, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=X.shape[0])
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        imp = tree.feature_importances_
        assert np.all(imp >= 0)
        assert imp.sum() == 0 or abs(imp.sum() - 1.0) < 1e-9


class TestLinearProperties:
    @given(
        st.integers(10, 60),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ols_residuals_orthogonal_to_features(self, n, p, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = LinearRegression().fit(X, y)
        residual = y - model.predict(X)
        # Normal equations: X_c^T r = 0 and sum(r) = 0 with intercept.
        assert abs(residual.sum()) < 1e-6 * n
        centred = X - X.mean(axis=0)
        assert np.all(np.abs(centred.T @ residual) < 1e-5 * n)


class TestSplitProperties:
    @given(
        st.integers(4, 200),
        st.floats(0.05, 0.95),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_a_partition(self, n, test_size, seed):
        X = np.arange(n)
        X_train, X_test = train_test_split(X, test_size=test_size, rng=seed)
        combined = np.sort(np.concatenate([X_train, X_test]))
        assert np.array_equal(combined, X)
        assert len(X_test) >= 1
        assert len(X_train) >= 1
