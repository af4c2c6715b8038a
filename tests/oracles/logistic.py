"""Reference logistic regression: one scipy L-BFGS-B solve per problem.

The oracle for the library's batched Newton fits
(:mod:`repro.ml.newton`): the binary L2 model solved on its own with
L-BFGS-B and analytic gradients, the one-vs-rest wrapper over it, and the
regularisation tuner that fits every grid value in turn.  The library's
chosen ``C`` and predictions must equal these; its objective must be no
worse than the oracle's solved to tight tolerances (``ftol``/``gtol``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array
from repro.ml.logistic import _sigmoid
from repro.ml.preprocessing import train_test_split


def penalised_log_loss(
    params: np.ndarray, X: np.ndarray, target: np.ndarray, penalty: float
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood plus ``0.5 * penalty * ||w||^2`` and its gradient.

    ``params`` is ``(w, b)`` with the intercept last; ``target`` is 0/1.
    """
    p = X.shape[1]
    w, b = params[:p], params[p]
    z = X @ w + b
    # log(1 + exp(-|z|)) formulation avoids overflow.
    log_likelihood = np.sum(
        np.where(target == 1.0, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    )
    loss = -log_likelihood + 0.5 * penalty * (w @ w)
    probability = _sigmoid(z)
    grad_w = X.T @ (probability - target) + penalty * w
    grad_b = float(np.sum(probability - target))
    return loss, np.concatenate([grad_w, [grad_b]])


class ReferenceLogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary L2 logistic regression, one L-BFGS-B solve per fit.

    ``options`` go to scipy's L-BFGS-B (``maxiter`` defaults to
    ``max_iter``); the parity tests pass ``ftol``/``gtol`` for a tight
    solve.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200, **options) -> None:
        if C <= 0:
            raise ValueError(f"C must be > 0, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.options = options
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "ReferenceLogisticRegression":
        X = check_array(X)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError(
                f"binary classifier got {self.classes_.size} classes; "
                "use ReferenceOneVsRest for multiclass"
            )
        # Map to {0, 1} with classes_[1] as the positive class.
        target = (y == self.classes_[1]).astype(np.float64)
        p = X.shape[1]
        result = minimize(
            penalised_log_loss,
            np.zeros(p + 1),
            args=(X, target, 1.0 / self.C),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, **self.options},
        )
        self.coef_ = result.x[:p]
        self.intercept_ = float(result.x[p])
        self._fitted = True
        return self

    def objective(self, X, y) -> float:
        """The penalised loss at the fitted parameters."""
        return penalised_log_loss(
            np.append(self.coef_, self.intercept_),
            check_array(X),
            (np.asarray(y) == self.classes_[1]).astype(np.float64),
            1.0 / self.C,
        )[0]

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return check_array(X) @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X)) >= 0.5
        return np.where(positive, self.classes_[1], self.classes_[0])


class ReferenceOneVsRest(BaseEstimator, ClassifierMixin):
    """One :class:`ReferenceLogisticRegression` per label; top score wins."""

    def __init__(self, C: float = 1.0, max_iter: int = 200, **options) -> None:
        self.C = C
        self.max_iter = max_iter
        self.options = options
        self.classes_: np.ndarray | None = None
        self.estimators_: list[ReferenceLogisticRegression] = []

    def fit(self, X, y) -> "ReferenceOneVsRest":
        X = check_array(X)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ValueError("need at least two classes")
        self.estimators_ = [
            ReferenceLogisticRegression(self.C, self.max_iter, **self.options).fit(
                X, (y == cls).astype(np.int64)
            )
            for cls in self.classes_
        ]
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        scores = np.column_stack(
            [est.predict_proba(X)[:, 1] for est in self.estimators_]
        )
        return self.classes_[np.argmax(scores, axis=1)]


def reference_tune_regularization(
    X,
    y,
    grid=(0.01, 0.1, 1.0, 10.0, 100.0),
    validation_size: float = 0.25,
    rng=0,
    max_iter: int = 200,
    **options,
) -> ReferenceOneVsRest:
    """Fit one one-vs-rest model per ``C`` on the inner split, refit the best.

    The winner is the first ``C`` with the highest validation accuracy; the
    returned model is refitted on all of ``X``.
    """
    X, y = check_array(X), np.asarray(y)
    X_train, X_val, y_train, y_val = train_test_split(
        X, y, test_size=validation_size, rng=rng, stratify=y
    )
    best_c, best_score = None, -np.inf
    for c in grid:
        model = ReferenceOneVsRest(C=c, max_iter=max_iter, **options)
        score = model.fit(X_train, y_train).score(X_val, y_val)
        if score > best_score:
            best_c, best_score = c, score
    return ReferenceOneVsRest(C=best_c, max_iter=max_iter, **options).fit(X, y)
