"""Unit tests for scaling, count transforms, and splitting."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.ml.preprocessing import (
    StandardScaler,
    log1p_counts,
    train_test_split,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_no_nan(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))
        assert np.allclose(Z[:, 0], 0.0)

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_feature_mismatch_raises(self):
        scaler = StandardScaler().fit(np.ones((5, 3)))
        with pytest.raises(ValueError):
            scaler.transform(np.ones((5, 2)))

    def test_without_mean_or_std(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        no_mean = StandardScaler(with_mean=False).fit_transform(X)
        assert np.all(no_mean >= 0)
        no_std = StandardScaler(with_std=False).fit_transform(X)
        assert np.allclose(no_std.mean(axis=0), 0.0)


class TestLog1pCounts:
    def test_values(self):
        X = np.array([[0.0, 1.0], [3.0, 7.0]])
        assert np.allclose(log1p_counts(X), np.log1p(X))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log1p_counts(np.array([[-1.0]]))


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100).reshape(-1, 1)
        X_train, X_test = train_test_split(X, test_size=0.25, rng=0)
        assert len(X_test) == 25
        assert len(X_train) == 75

    def test_partition_is_exact(self):
        X = np.arange(40)
        X_train, X_test = train_test_split(X, test_size=0.3, rng=1)
        assert sorted(np.concatenate([X_train, X_test])) == list(range(40))

    def test_multiple_arrays_aligned(self):
        X = np.arange(50).reshape(-1, 1)
        y = np.arange(50) * 10
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, rng=2)
        assert np.array_equal(X_train.ravel() * 10, y_train)
        assert np.array_equal(X_test.ravel() * 10, y_test)

    def test_deterministic_with_seed(self):
        X = np.arange(30)
        a = train_test_split(X, test_size=0.5, rng=7)
        b = train_test_split(X, test_size=0.5, rng=7)
        assert np.array_equal(a[0], b[0])

    def test_stratified_preserves_proportions(self):
        y = np.array(["a"] * 60 + ["b"] * 20)
        X = np.arange(80)
        _, _, y_train, y_test = train_test_split(X, y, test_size=0.25, rng=3, stratify=y)
        assert np.sum(y_test == "a") == 15
        assert np.sum(y_test == "b") == 5

    def test_stratified_keeps_every_class_in_train(self):
        y = np.array(["a"] * 10 + ["b"] * 2)
        X = np.arange(12)
        for seed in range(5):
            _, _, y_train, _ = train_test_split(X, y, test_size=0.5, rng=seed, stratify=y)
            assert set(y_train) == {"a", "b"}

    def test_bad_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), test_size=0.0)
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), test_size=1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(10), np.arange(5), test_size=0.5)

    def test_no_arrays_raises(self):
        with pytest.raises(ValueError):
            train_test_split(test_size=0.5)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(1), test_size=0.5)
