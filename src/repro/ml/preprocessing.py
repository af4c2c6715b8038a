"""Feature preprocessing: scaling, count transforms, data splitting.

The subgraph census produces raw occurrence counts whose magnitudes span
orders of magnitude (hub neighbourhoods vs leaves); linear models and
logistic regression behave better on standardised or log-compressed inputs,
while trees are scale-invariant.  The experiment pipelines standardise for
linear/Bayesian/logistic models and feed raw counts to forests.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array


class StandardScaler(BaseEstimator):
    """Zero-mean, unit-variance scaling with constant-column protection.

    Constant columns (``max == min``, tested exactly: a rounded mean can
    leave a tiny nonzero ``std``) are scaled by 1 and centred on their
    value, so they transform to exactly 0 rather than to noise or NaNs.
    """

    def __init__(self, with_mean: bool = True, with_std: bool = True) -> None:
        self.with_mean = with_mean
        self.with_std = with_std
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = check_array(X)
        self.mean_ = X.mean(axis=0) if self.with_mean else np.zeros(X.shape[1])
        if self.with_std:
            scale = X.std(axis=0)
            constant = X.max(axis=0) == X.min(axis=0)
            scale[constant] = 1.0
            if self.with_mean:
                self.mean_[constant] = X[0, constant]
            self.scale_ = scale
        else:
            self.scale_ = np.ones(X.shape[1])
        self._fitted = True
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"fitted on {self.mean_.shape[0]} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


def log1p_counts(X):
    """``log(1 + x)`` compression for non-negative count features.

    Sparse count matrices keep their sparsity: ``log1p`` maps 0 to 0, so
    only the stored values are transformed and the pattern is reused.

    Raises
    ------
    ValueError
        If any entry is negative (counts cannot be).
    """
    from repro.core.sparse import CSRMatrix

    if isinstance(X, CSRMatrix):
        if np.any(X.data < 0):
            raise ValueError("log1p_counts expects non-negative counts")
        return X.with_data(np.log1p(X.data))
    X = check_array(X)
    if np.any(X < 0):
        raise ValueError("log1p_counts expects non-negative counts")
    return np.log1p(X)


def train_test_split(
    *arrays,
    test_size: float = 0.25,
    rng: np.random.Generator | int | None = None,
    stratify=None,
):
    """Random split of aligned arrays into train and test parts.

    Parameters
    ----------
    arrays:
        One or more arrays with equal first dimension.
    test_size:
        Fraction in ``(0, 1)`` assigned to the test part.
    rng:
        ``numpy`` generator or seed for reproducibility.
    stratify:
        Optional label array; when given, each class is split separately so
        train and test preserve class proportions (used by the label
        prediction experiments, which sample 250 nodes per label).

    Returns
    -------
    list
        ``[a_train, a_test, b_train, b_test, ...]`` in argument order.
    """
    if not arrays:
        raise ValueError("provide at least one array to split")
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    length = len(arrays[0])
    for array in arrays[1:]:
        if len(array) != length:
            raise ValueError("all arrays must share their first dimension")
    if length < 2:
        raise ValueError("need at least two samples to split")
    rng = np.random.default_rng(rng)

    if stratify is not None:
        stratify = np.asarray(stratify)
        if len(stratify) != length:
            raise ValueError("stratify must align with the arrays")
        test_idx_parts = []
        for cls in np.unique(stratify):
            members = np.flatnonzero(stratify == cls)
            rng.shuffle(members)
            take = int(round(test_size * members.size))
            take = min(max(take, 1), members.size - 1) if members.size > 1 else 0
            test_idx_parts.append(members[:take])
        test_idx = np.concatenate(test_idx_parts) if test_idx_parts else np.array([], int)
        test_mask = np.zeros(length, dtype=bool)
        test_mask[test_idx] = True
    else:
        permutation = rng.permutation(length)
        num_test = int(round(test_size * length))
        num_test = min(max(num_test, 1), length - 1)
        test_mask = np.zeros(length, dtype=bool)
        test_mask[permutation[:num_test]] = True

    result = []
    for array in arrays:
        # Sparse matrices pass through untouched: CSRMatrix supports the
        # boolean row masks used below, and np.asarray would wreck it.
        if not hasattr(array, "toarray"):
            array = np.asarray(array)
        result.extend([array[~test_mask], array[test_mask]])
    return result
