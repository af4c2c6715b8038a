"""L2-regularised logistic regression with a one-vs-rest multiclass wrapper.

Section 4.3.3 trains one binary logistic classifier per label ("one vs all")
and predicts the label with the highest probability score, tuning only the
regularisation strength.  The binary model here minimises the standard
penalised negative log-likelihood (intercept unpenalised) with the batched
Newton solver of :mod:`repro.ml.newton`: :class:`LogisticRegression` is a
batch of one, :class:`OneVsRestLogisticRegression` a batch of one problem
per label, and :func:`tune_regularization` one problem per (``C``, label)
pair of its grid.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from repro.ml.newton import newton_fit
from repro.ml.preprocessing import train_test_split
from repro.obs.telemetry import get_telemetry


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Numerically stable logistic function: 1 / (1 + exp(-z)) for z >= 0,
    # exp(z) / (1 + exp(z)) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_loss(z: np.ndarray, target: np.ndarray):
    """Negative log-likelihood per row and its first two derivatives in ``z``."""
    e = np.exp(-np.abs(z))
    value = np.log1p(e) + np.maximum(z, 0.0) - target * z
    return value, _sigmoid(z) - target, e / (1.0 + e) ** 2


def _fit_binary(X: np.ndarray, targets: np.ndarray, C, max_iter: int):
    """One binary problem per row of boolean ``targets``, each at its ``C``."""
    coef, intercept, iterations, unconverged = newton_fit(
        X, _log_loss, targets.astype(np.float64), 1.0 / np.asarray(C), max_iter
    )
    telemetry = get_telemetry()
    telemetry.count("logreg/problems", targets.shape[0])
    telemetry.count("logreg/newton_iters", iterations)
    telemetry.count("logreg/unconverged", unconverged)
    return coef, intercept


def _check_c(C) -> None:
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary logistic regression with L2 penalty.

    Parameters
    ----------
    C:
        Inverse regularisation strength (sklearn convention: smaller is
        stronger).  The intercept is not penalised.
    max_iter:
        Newton iteration cap.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        _check_c(C)
        self.C = C
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y, classification=True)
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError(
                f"binary classifier got {self.classes_.size} classes; "
                "use OneVsRestLogisticRegression for multiclass"
            )
        # classes_[1] is the positive class.
        coef, intercept = _fit_binary(
            X, (y == self.classes_[1])[None], [self.C], self.max_iter
        )
        return self._set(self.classes_, coef[0], intercept[0])

    def _set(self, classes, coef, intercept) -> "LogisticRegression":
        self.classes_ = classes
        self.coef_ = coef
        self.intercept_ = float(intercept)
        self._fitted = True
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"fitted on {self.coef_.shape[0]} features, got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Probabilities for ``classes_[0]`` and ``classes_[1]`` per row."""
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X)) >= 0.5
        return np.where(positive, self.classes_[1], self.classes_[0])


class OneVsRestLogisticRegression(BaseEstimator, ClassifierMixin):
    """One classifier per label; predicts the label with the highest score.

    This is exactly the setup of Section 4.3.3: "we train classifiers in a
    one vs. all setting ... for prediction, we then select the label with
    the highest probability score".  The labels' problems are one batch.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        _check_c(C)
        self.C = C
        self.max_iter = max_iter
        self.classes_: np.ndarray | None = None
        self.estimators_: list[LogisticRegression] = []

    def fit(self, X, y) -> "OneVsRestLogisticRegression":
        X, y, classes = _multiclass_input(X, y)
        coef, intercept = _fit_binary(
            X, y == classes[:, None], [self.C] * classes.size, self.max_iter
        )
        return self._set(classes, coef, intercept)

    def _set(self, classes, coef, intercept) -> "OneVsRestLogisticRegression":
        self.classes_ = classes
        self.estimators_ = [
            LogisticRegression(self.C, self.max_iter)._set(np.arange(2), w, b)
            for w, b in zip(coef, intercept)
        ]
        self._fitted = True
        return self

    def _scores(self, X) -> np.ndarray:
        self._check_fitted()
        return np.column_stack([est.predict_proba(X)[:, 1] for est in self.estimators_])

    def predict_proba(self, X) -> np.ndarray:
        """Per-class probability scores, normalised across classes."""
        scores = self._scores(X)
        totals = scores.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return scores / totals

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self._scores(X), axis=1)]


def _multiclass_input(X, y):
    X, y = check_X_y(X, y, classification=True)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    return X, y, classes


def tune_regularization(
    X,
    y,
    grid=(0.01, 0.1, 1.0, 10.0, 100.0),
    validation_size: float = 0.25,
    rng=0,
    max_iter: int = 200,
) -> "OneVsRestLogisticRegression":
    """Pick ``C`` on a held-out validation split and refit on all data.

    Mirrors the paper's "we tune the regularization strength" without
    specifying the search; a small multiplicative grid with a single
    validation split keeps it deterministic and cheap.  Every (``C``,
    label) pair is fitted on the training part as one batch; the first
    ``C`` with the best validation accuracy is refitted on all of ``X``.
    """
    models = [OneVsRestLogisticRegression(C=c, max_iter=max_iter) for c in grid]
    if not models:
        raise ValueError("regularisation grid is empty")
    X, y = check_array(X), np.asarray(y)
    X_train, X_val, y_train, y_val = train_test_split(
        X, y, test_size=validation_size, rng=rng, stratify=y
    )
    X_train, y_train, classes = _multiclass_input(X_train, y_train)
    k = classes.size
    targets = np.tile(y_train == classes[:, None], (len(models), 1))
    C = np.repeat([model.C for model in models], k)
    coef, intercept = _fit_binary(X_train, targets, C, max_iter)
    best_c, best_score = None, -np.inf
    for g, model in enumerate(models):
        batch = slice(g * k, (g + 1) * k)
        score = model._set(classes, coef[batch], intercept[batch]).score(X_val, y_val)
        if score > best_score:
            best_c, best_score = model.C, score
    return OneVsRestLogisticRegression(C=best_c, max_iter=max_iter).fit(X, y)
