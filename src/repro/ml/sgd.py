"""Stochastic-gradient-descent linear regression (the paper's other
omitted baseline, Section 4.2.3).

:class:`SGDRegressor` minimises squared loss with L2 penalty via mini-batch
SGD with an inverse-scaling learning rate.  It matches the spirit of
scikit-learn's ``SGDRegressor`` at the evaluation's scale and exists so the
appendix bench can demonstrate why the paper omitted it (unstable on small,
wide feature matrices).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, check_X_y, check_array


class SGDRegressor(BaseEstimator, RegressorMixin):
    """Mini-batch SGD on squared loss with L2 penalty."""

    def __init__(
        self,
        alpha: float = 1e-4,
        learning_rate: float = 0.01,
        power_t: float = 0.25,
        max_iter: int = 50,
        batch_size: int = 32,
        random_state: int | None = None,
    ) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        self.alpha = alpha
        self.learning_rate = learning_rate
        self.power_t = power_t
        self.max_iter = max_iter
        self.batch_size = batch_size
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "SGDRegressor":
        X, y = check_X_y(X, y)
        n, p = X.shape
        rng = np.random.default_rng(self.random_state)
        w = np.zeros(p)
        b = 0.0
        step = 0
        for _ in range(self.max_iter):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start: start + self.batch_size]
                Xb, yb = X[batch], y[batch]
                residual = Xb @ w + b - yb
                grad_w = Xb.T @ residual / len(yb) + self.alpha * w
                step += 1
                eta = self.learning_rate / step**self.power_t
                w -= eta * grad_w
                b -= eta * float(residual.mean())
        self.coef_ = w
        self.intercept_ = float(b)
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
