"""Reference linear SVR: one scipy L-BFGS-B solve per fit.

The oracle for :class:`repro.ml.svm.LinearSVR`'s Newton fit: the same
squared epsilon-insensitive objective, solved with L-BFGS-B and analytic
gradients.  The library's objective must be no worse than this one's
solved to tight tolerances (``ftol``/``gtol``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.ml.base import BaseEstimator, RegressorMixin, check_array, check_X_y


def svr_objective(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, C: float, epsilon: float
) -> tuple[float, np.ndarray]:
    """``0.5 ||w||^2 + C * sum max(0, |y - Xw - b| - epsilon)^2`` and its gradient."""
    p = X.shape[1]
    w, b = params[:p], params[p]
    residual = y - X @ w - b
    slack = np.maximum(np.abs(residual) - epsilon, 0.0)
    loss = 0.5 * (w @ w) + C * np.sum(slack**2)
    # d/d residual of slack^2 = 2 slack * sign(residual) on active set
    grad_residual = -2.0 * C * slack * np.sign(residual)
    grad_w = w + X.T @ grad_residual
    grad_b = float(np.sum(grad_residual))
    return loss, np.concatenate([grad_w, [grad_b]])


class ReferenceLinearSVR(BaseEstimator, RegressorMixin):
    """Linear SVR with squared epsilon-insensitive loss, via L-BFGS-B.

    ``options`` go to scipy's L-BFGS-B (``maxiter`` defaults to
    ``max_iter``).
    """

    def __init__(
        self, C: float = 1.0, epsilon: float = 0.1, max_iter: int = 300, **options
    ) -> None:
        self.C = C
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.options = options
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "ReferenceLinearSVR":
        X, y = check_X_y(X, y)
        p = X.shape[1]
        result = minimize(
            svr_objective,
            np.zeros(p + 1),
            args=(X, y, self.C, self.epsilon),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, **self.options},
        )
        self.coef_ = result.x[:p]
        self.intercept_ = float(result.x[p])
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        return check_array(X) @ self.coef_ + self.intercept_
