"""Tests for the omitted-baseline models: the linear SVR and SGD."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.sgd import SGDRegressor
from repro.ml.svm import LinearSVR
from tests.oracles.svm import ReferenceLinearSVR, svr_objective


def _linear_data(n=300, p=4, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    w = rng.normal(size=p)
    y = X @ w + 1.5 + noise * rng.normal(size=n)
    return X, y, w


class TestLinearSVR:
    def test_fits_linear_signal(self):
        X, y, _ = _linear_data()
        model = LinearSVR(C=10.0, epsilon=0.01).fit(X[:200], y[:200])
        assert model.score(X[200:], y[200:]) > 0.95

    def test_epsilon_tube_ignores_small_residuals(self):
        """With a huge epsilon the loss is flat: weights stay near zero."""
        X, y, _ = _linear_data()
        model = LinearSVR(C=1.0, epsilon=100.0).fit(X, y)
        assert np.linalg.norm(model.coef_) < 0.1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinearSVR(C=0.0)
        with pytest.raises(ValueError):
            LinearSVR(epsilon=-1.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearSVR().predict(np.ones((2, 2)))

    def test_feature_mismatch(self):
        X, y, _ = _linear_data()
        model = LinearSVR().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 9)))

    @pytest.mark.parametrize(
        "case", ["standard", "badly_scaled", "wide", "zero_columns", "heavy_tailed"]
    )
    @pytest.mark.parametrize("C, epsilon", [(0.1, 0.1), (1.0, 0.5), (100.0, 0.01)])
    def test_objective_no_worse_than_tight_oracle(self, case, C, epsilon):
        """The Newton fit reaches the optimum scipy reaches at tight tolerances."""
        rng = np.random.default_rng(7)
        X, y, _ = _linear_data(n=60, p=8, noise=0.5, seed=3)
        if case == "badly_scaled":
            X = X * np.logspace(-2, np.log10(30), X.shape[1])
        elif case == "wide":
            X, y, _ = _linear_data(n=30, p=80, noise=0.5, seed=3)
        elif case == "zero_columns":
            X[:, [1, 4]] = 0.0
        elif case == "heavy_tailed":
            rates = rng.gamma(0.5, 4.0, size=X.shape[1])
            X = rng.poisson(rates, size=X.shape).astype(float)
            y = np.log1p(X).sum(axis=1) + rng.normal(size=X.shape[0])
        model = LinearSVR(C=C, epsilon=epsilon).fit(X, y)
        oracle = ReferenceLinearSVR(
            C=C, epsilon=epsilon, max_iter=20000, ftol=1e-15, gtol=1e-10
        ).fit(X, y)

        def objective(est):
            params = np.append(est.coef_, est.intercept_)
            return svr_objective(params, X, y, C, epsilon)[0]

        assert np.all(np.isfinite(model.coef_)) and np.isfinite(model.intercept_)
        assert objective(model) <= objective(oracle) * (1 + 1e-9)


class TestSGDRegressor:
    def test_converges_on_linear_signal(self):
        X, y, _ = _linear_data()
        model = SGDRegressor(max_iter=100, learning_rate=0.05, random_state=0)
        model.fit(X[:200], y[:200])
        assert model.score(X[200:], y[200:]) > 0.9

    def test_deterministic_with_seed(self):
        X, y, _ = _linear_data(n=100)
        a = SGDRegressor(random_state=3).fit(X, y)
        b = SGDRegressor(random_state=3).fit(X, y)
        assert np.array_equal(a.coef_, b.coef_)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SGDRegressor(alpha=-1.0)
        with pytest.raises(ValueError):
            SGDRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            SGDRegressor(max_iter=0)

    def test_strong_penalty_shrinks(self):
        X, y, _ = _linear_data()
        weak = SGDRegressor(alpha=0.0, random_state=0).fit(X, y)
        strong = SGDRegressor(alpha=10.0, random_state=0).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)
