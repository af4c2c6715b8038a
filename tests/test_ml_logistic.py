"""Unit tests for logistic regression and the one-vs-rest wrapper."""

import numpy as np
import pytest

from repro.ml.logistic import (
    LogisticRegression,
    OneVsRestLogisticRegression,
    tune_regularization,
    _sigmoid,
)
from repro.ml.preprocessing import StandardScaler
from repro.obs.telemetry import fresh_telemetry
from tests.oracles.logistic import (
    ReferenceLogisticRegression,
    penalised_log_loss,
    reference_tune_regularization,
)


def _two_blobs(n=100, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, 2)), rng.normal(gap, 1, (n, 2))])
    y = np.array([0] * n + [1] * n)
    return X, y


class TestSigmoid:
    def test_midpoint(self):
        assert _sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_extremes_stable(self):
        values = _sigmoid(np.array([-1000.0, 1000.0]))
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        z = np.linspace(-5, 5, 11)
        assert np.allclose(_sigmoid(z) + _sigmoid(-z), 1.0)


class TestBinary:
    def test_separates_blobs(self):
        X, y = _two_blobs()
        model = LogisticRegression(C=1.0).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_probabilities_valid(self):
        X, y = _two_blobs()
        model = LogisticRegression().fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_stronger_regularisation_shrinks_weights(self):
        X, y = _two_blobs()
        loose = LogisticRegression(C=100.0).fit(X, y)
        tight = LogisticRegression(C=0.01).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_string_classes(self):
        X, y = _two_blobs()
        labels = np.where(y == 1, "pos", "neg")
        model = LogisticRegression().fit(X, labels)
        assert set(model.predict(X)) <= {"pos", "neg"}

    def test_multiclass_input_rejected(self):
        X = np.ones((6, 2))
        with pytest.raises(ValueError, match="binary"):
            LogisticRegression().fit(X, [0, 1, 2, 0, 1, 2])

    def test_bad_c(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0.0)

    def test_decision_function_sign_matches_prediction(self):
        X, y = _two_blobs()
        model = LogisticRegression().fit(X, y)
        scores = model.decision_function(X)
        assert np.array_equal(model.predict(X) == model.classes_[1], scores >= 0)


class TestOneVsRest:
    def _three_blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.normal(loc, 1, (70, 3)) for loc in (0, 3, 6)])
        y = np.repeat(["x", "y", "z"], 70)
        return X, y

    def test_separates_three_classes(self):
        X, y = self._three_blobs()
        model = OneVsRestLogisticRegression().fit(X, y)
        assert model.score(X, y) > 0.95

    def test_one_estimator_per_class(self):
        X, y = self._three_blobs()
        model = OneVsRestLogisticRegression().fit(X, y)
        assert len(model.estimators_) == 3

    def test_proba_normalised(self):
        X, y = self._three_blobs()
        model = OneVsRestLogisticRegression().fit(X, y)
        probabilities = model.predict_proba(X)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_predicts_highest_score_label(self):
        """The Section 4.3.3 rule: pick the label with the top OvR score."""
        X, y = self._three_blobs()
        model = OneVsRestLogisticRegression().fit(X, y)
        scores = np.column_stack(
            [est.predict_proba(X)[:, 1] for est in model.estimators_]
        )
        assert np.array_equal(
            model.predict(X), model.classes_[np.argmax(scores, axis=1)]
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            OneVsRestLogisticRegression().fit(np.ones((4, 2)), ["a"] * 4)

    @pytest.mark.parametrize("C", [-1.0, 0.0, float("nan")])
    def test_bad_c(self, C):
        with pytest.raises(ValueError, match="C must be > 0"):
            OneVsRestLogisticRegression(C=C)

    def test_batch_predicts_like_single_fits(self):
        """The per-label batch equals one binary fit per label."""
        X, y = _label_task(n=40, p=30, seed=4)
        model = OneVsRestLogisticRegression(C=10.0).fit(X, y)
        singles = [
            LogisticRegression(C=10.0).fit(X, (y == cls).astype(int))
            for cls in model.classes_
        ]
        for estimator, single in zip(model.estimators_, singles):
            assert np.array_equal(estimator.predict(X), single.predict(X))
            assert np.allclose(estimator.coef_, single.coef_, atol=1e-8)
        scores = np.column_stack([single.predict_proba(X)[:, 1] for single in singles])
        assert np.array_equal(model.predict(X), model.classes_[scores.argmax(axis=1)])


class TestTuning:
    def test_returns_fitted_model(self):
        X, y = _two_blobs(n=60)
        model = tune_regularization(X, y, grid=(0.1, 1.0), rng=0)
        assert model.score(X, y) > 0.9

    def test_picks_from_grid(self):
        X, y = _two_blobs(n=60)
        model = tune_regularization(X, y, grid=(0.5,), rng=0)
        assert model.C == 0.5

    @pytest.mark.parametrize("grid", [(), [], (1.0, 0.0), (-1.0,), (0.1, float("nan"))])
    def test_bad_grid_rejected_up_front(self, grid):
        X, y = _two_blobs(n=20)
        with pytest.raises(ValueError, match="grid is empty|C must be > 0"):
            tune_regularization(X, y, grid=grid, rng=0)

    def test_work_counters(self):
        X, y = _label_task(n=48, p=16, seed=1)
        with fresh_telemetry() as telemetry:
            tune_regularization(X, y, grid=(0.1, 1.0, 10.0), rng=0)
        counters = telemetry.as_dict()["counters"]
        # (3 C values + the refit) x 4 labels binary problems.
        assert counters["logreg/problems"] == 16
        assert counters["logreg/newton_iters"] >= 16
        assert counters["logreg/unconverged"] == 0


def _label_task(n, p, seed, heavy_tailed=False, k=4):
    """A standardised problem shaped like the Figure-5 label task."""
    rng = np.random.default_rng(seed)
    if heavy_tailed:
        # Subgraph counts: sparse, overdispersed, column scales spread wide.
        X = rng.poisson(rng.gamma(0.5, 4.0, size=p), size=(n, p)).astype(float)
        X *= rng.random((n, p)) < 0.6
    else:
        X = rng.normal(size=(n, p))
    weights = rng.normal(size=(p, k))
    y = np.argmax(0.3 * StandardScaler().fit_transform(X) @ weights
                  + rng.gumbel(size=(n, k)), axis=1)
    y[:k] = np.arange(k)  # every label present
    return StandardScaler().fit_transform(X), y


class TestOracleParity:
    """The batched Newton fits agree with one scipy L-BFGS-B solve each."""

    @pytest.mark.parametrize("heavy_tailed", [False, True])
    @pytest.mark.parametrize("p", [16, 226])
    @pytest.mark.parametrize("n", [28, 68, 100])
    def test_tuner_matches_reference(self, n, p, heavy_tailed):
        seed = n * 1000 + p + heavy_tailed
        X, y = _label_task(n + 40, p, seed, heavy_tailed)
        X_train, X_test, y_train = X[:n], X[n:], y[:n]
        grid = (0.01, 0.1, 1.0, 10.0)
        with fresh_telemetry() as telemetry:
            model = tune_regularization(X_train, y_train, grid=grid, rng=seed)
        oracle = reference_tune_regularization(X_train, y_train, grid=grid, rng=seed)
        assert model.C == oracle.C
        assert np.array_equal(model.predict(X_test), oracle.predict(X_test))
        # Every problem reaches the decrement tolerance, none the step cap.
        assert telemetry.as_dict()["counters"]["logreg/unconverged"] == 0

    @pytest.mark.parametrize(
        "case", ["badly_scaled", "zero_columns", "duplicate_rows", "near_separable"]
    )
    @pytest.mark.parametrize("p", [6, 60])
    def test_objective_no_worse_than_tight_oracle(self, case, p):
        rng = np.random.default_rng(p)
        n = 40
        X = rng.normal(size=(n, p))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        C = 1.0
        if case == "badly_scaled":
            X *= np.logspace(-2, np.log10(30), p)
        elif case == "zero_columns":
            X[:, ::3] = 0.0
        elif case == "duplicate_rows":
            X, y = np.vstack([X, X[:15]]), np.concatenate([y, y[:15]])
        else:
            y = (X[:, 0] > 0).astype(int)
            C = 100.0
        model = LogisticRegression(C=C).fit(X, y)
        oracle = ReferenceLogisticRegression(
            C=C, max_iter=100_000, maxfun=100_000, ftol=1e-15, gtol=1e-10
        ).fit(X, y)
        ours = penalised_log_loss(
            np.append(model.coef_, model.intercept_), X, y.astype(float), 1.0 / C
        )[0]
        assert np.all(np.isfinite(model.coef_)) and np.isfinite(model.intercept_)
        assert ours <= oracle.objective(X, y) * (1 + 1e-9)
