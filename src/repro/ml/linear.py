"""Ordinary least squares.

``LinearRegression`` matches the sklearn default used in Section 4.2.3
(plain OLS via a least-squares solve with an intercept).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, check_X_y, check_array


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares with an intercept.

    Solves ``min ||y - Xw - b||^2`` via ``numpy.linalg.lstsq`` on centred
    data, which is robust to rank-deficient feature matrices (the top-5
    selected features can be collinear on small conferences).
    """

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = y.mean()
            coef, *_ = np.linalg.lstsq(X - x_mean, y - y_mean, rcond=None)
            self.coef_ = coef
            self.intercept_ = float(y_mean - x_mean @ coef)
        else:
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            self.coef_ = coef
            self.intercept_ = 0.0
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"fitted on {self.coef_.shape[0]} features, got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_

