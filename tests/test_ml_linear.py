"""Unit tests for OLS and Bayesian ridge regression."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.bayes import BayesianRidge
from repro.ml.linear import LinearRegression


def _linear_data(n=200, p=5, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    w = rng.normal(size=p)
    y = X @ w + 2.5 + noise * rng.normal(size=n)
    return X, y, w


class TestLinearRegression:
    def test_recovers_coefficients(self):
        X, y, w = _linear_data(noise=0.0)
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, w, atol=1e-8)
        assert model.intercept_ == pytest.approx(2.5, abs=1e-8)

    def test_high_r2_with_noise(self):
        X, y, _ = _linear_data()
        model = LinearRegression().fit(X[:150], y[:150])
        assert model.score(X[150:], y[150:]) > 0.99

    def test_no_intercept(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = 3.0 * X.ravel()
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert model.coef_[0] == pytest.approx(3.0)

    def test_collinear_features_do_not_crash(self):
        X = np.column_stack([np.arange(20.0), np.arange(20.0) * 2])
        y = np.arange(20.0)
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-8)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict(np.ones((2, 2)))

    def test_feature_mismatch(self):
        X, y, _ = _linear_data()
        model = LinearRegression().fit(X, y)
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 3)))

    def test_nan_input_rejected(self):
        X = np.ones((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            LinearRegression().fit(X, np.ones(5))


class TestBayesianRidge:
    def test_matches_ols_on_clean_data(self):
        X, y, w = _linear_data(noise=0.01)
        model = BayesianRidge().fit(X, y)
        assert np.allclose(model.coef_, w, atol=0.05)

    def test_estimates_noise_precision(self):
        """alpha_ should approximate the inverse noise variance."""
        noise = 0.5
        X, y, _ = _linear_data(n=2000, noise=noise, seed=1)
        model = BayesianRidge().fit(X, y)
        assert model.alpha_ == pytest.approx(1.0 / noise**2, rel=0.2)

    def test_shrinks_more_than_ols_when_underdetermined(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 30))
        y = rng.normal(size=10)
        bayes = BayesianRidge().fit(X, y)
        ols = LinearRegression().fit(X, y)
        assert np.linalg.norm(bayes.coef_) < np.linalg.norm(ols.coef_) + 1e-9

    def test_predict_with_std(self):
        X, y, _ = _linear_data()
        model = BayesianRidge().fit(X, y)
        mean, std = model.predict(X[:5], return_std=True)
        assert mean.shape == (5,)
        assert std.shape == (5,)
        assert np.all(std > 0)

    def test_extrapolation_has_higher_std(self):
        X, y, _ = _linear_data()
        model = BayesianRidge().fit(X, y)
        _, near = model.predict(np.zeros((1, X.shape[1])), return_std=True)
        _, far = model.predict(np.full((1, X.shape[1]), 50.0), return_std=True)
        assert far[0] > near[0]

    def test_converges_and_reports_iterations(self):
        X, y, _ = _linear_data()
        model = BayesianRidge().fit(X, y)
        assert 1 <= model.n_iter_ <= model.max_iter

    def test_bad_max_iter(self):
        with pytest.raises(ValueError):
            BayesianRidge(max_iter=0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            BayesianRidge().predict(np.ones((2, 2)))
