"""Linear support vector regression (the paper's omitted baseline).

Section 4.2.3 notes that SVMs were evaluated for the ranking task but
"performed poorly across all features" and were omitted from the figures;
the appendix bench ``benchmarks/test_ablation_omitted_models.py``
reproduces that with :class:`LinearSVR`.  Its squared epsilon-insensitive
loss is piecewise quadratic, so the batched Newton solver of
:mod:`repro.ml.newton` fits it with the loss's generalised Hessian, as
liblinear does for its L2-loss SVMs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, RegressorMixin, check_X_y, check_array
from repro.ml.newton import newton_fit


class LinearSVR(BaseEstimator, RegressorMixin):
    """Linear epsilon-insensitive support vector regression.

    Minimises ``0.5 ||w||^2 + C * sum max(0, |y - Xw - b| - epsilon)^2``
    (squared epsilon-insensitive loss, intercept unpenalised).
    """

    def __init__(self, C: float = 1.0, epsilon: float = 0.1, max_iter: int = 300) -> None:
        if C <= 0:
            raise ValueError(f"C must be > 0, got {C}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {epsilon}")
        self.C = C
        self.epsilon = epsilon
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearSVR":
        X, y = check_X_y(X, y)

        def loss(z, target):
            # The objective divided by C: same minimiser, penalty 1 / C.
            residual = target - z
            slack = np.maximum(np.abs(residual) - self.epsilon, 0.0)
            return slack**2, -2.0 * slack * np.sign(residual), 2.0 * (slack > 0.0)

        coef, intercept, _, _ = newton_fit(
            X, loss, y[None], [1.0 / self.C], self.max_iter
        )
        self.coef_ = coef[0]
        self.intercept_ = float(intercept[0])
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
