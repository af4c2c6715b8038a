"""Unit tests for the dependency-free CSR container."""

from collections import Counter

import numpy as np
import pytest

from repro.core.sparse import CSRMatrix
from repro.exceptions import FeatureError


def _random_dense(rows=7, cols=11, density=0.3, seed=0):
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 9, size=(rows, cols)).astype(np.float64)
    dense[rng.random((rows, cols)) > density] = 0.0
    return dense


class TestConstructors:
    def test_from_counters_matches_dense_builder(self):
        index = {"a": 0, "b": 1, "c": 2}
        censuses = [Counter(a=2, c=5), Counter(), Counter(b=1)]
        matrix = CSRMatrix.from_counters(censuses, index, 3)
        expected = np.array([[2.0, 0.0, 5.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert matrix.shape == (3, 3)
        assert np.array_equal(matrix.toarray(), expected)

    def test_from_counters_drops_unindexed_keys(self):
        matrix = CSRMatrix.from_counters([Counter(a=1, zz=9)], {"a": 0}, 1)
        assert matrix.nnz == 1
        assert np.array_equal(matrix.toarray(), [[1.0]])

    def test_from_counters_sorts_columns_within_row(self):
        index = {"x": 2, "y": 0, "z": 1}
        matrix = CSRMatrix.from_counters([Counter(x=1, y=2, z=3)], index, 3)
        assert np.array_equal(matrix.indices, [0, 1, 2])
        assert np.array_equal(matrix.data, [2.0, 3.0, 1.0])

    def test_from_dense_roundtrip_exact(self):
        dense = _random_dense()
        matrix = CSRMatrix.from_dense(dense)
        assert matrix.nnz == np.count_nonzero(dense)
        assert np.array_equal(matrix.toarray(), dense)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(FeatureError):
            CSRMatrix.from_dense(np.arange(4.0))

    def test_invalid_indptr_rejected(self):
        with pytest.raises(FeatureError):
            CSRMatrix(np.ones(2), np.array([0, 1]), np.array([0, 2]), (2, 2))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(FeatureError):
            CSRMatrix(np.ones(1), np.array([5]), np.array([0, 1]), (1, 2))


class TestBasics:
    def test_with_data_keeps_pattern(self):
        matrix = CSRMatrix.from_dense(_random_dense())
        logged = matrix.with_data(np.log1p(matrix.data))
        assert np.array_equal(logged.indices, matrix.indices)
        assert np.array_equal(logged.toarray(), np.log1p(matrix.toarray()))

    def test_with_data_rejects_wrong_nnz(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(FeatureError):
            matrix.with_data(np.ones(5))

    def test_len_and_repr(self):
        matrix = CSRMatrix.from_dense(np.eye(4))
        assert len(matrix) == 4
        assert "4x4" in repr(matrix)

    def test_copy_is_independent(self):
        matrix = CSRMatrix.from_dense(np.eye(2))
        clone = matrix.copy()
        clone.data[0] = 99.0
        assert matrix.data[0] == 1.0


class TestSlicing:
    def test_int_row_is_dense(self):
        dense = _random_dense()
        matrix = CSRMatrix.from_dense(dense)
        assert np.array_equal(matrix[3], dense[3])
        assert np.array_equal(matrix[-1], dense[-1])

    def test_slice_and_fancy_and_mask(self):
        dense = _random_dense()
        matrix = CSRMatrix.from_dense(dense)
        assert np.array_equal(matrix[1:5].toarray(), dense[1:5])
        picks = np.array([6, 0, 3])
        assert np.array_equal(matrix[picks].toarray(), dense[picks])
        mask = np.array([True, False] * 3 + [True])
        assert np.array_equal(matrix[mask].toarray(), dense[mask])

    def test_row_out_of_range(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(FeatureError):
            matrix.row(3)
        with pytest.raises(FeatureError):
            matrix[np.array([0, 5])]

    def test_mask_must_cover_rows(self):
        matrix = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(FeatureError):
            matrix[np.array([True, False])]


class TestStacking:
    def test_vstack_matches_numpy(self):
        a, b = _random_dense(seed=1), _random_dense(seed=2)
        stacked = CSRMatrix.vstack([CSRMatrix.from_dense(a), CSRMatrix.from_dense(b)])
        assert np.array_equal(stacked.toarray(), np.vstack([a, b]))

    def test_vstack_column_mismatch(self):
        with pytest.raises(FeatureError):
            CSRMatrix.vstack(
                [CSRMatrix.from_dense(np.eye(2)), CSRMatrix.from_dense(np.eye(3))]
            )

    def test_hstack_mixed_sparse_dense(self):
        a, b = _random_dense(seed=3), _random_dense(seed=4)
        stacked = CSRMatrix.hstack([CSRMatrix.from_dense(a), b])
        assert np.array_equal(stacked.toarray(), np.hstack([a, b]))

    def test_hstack_row_mismatch(self):
        with pytest.raises(FeatureError):
            CSRMatrix.hstack([np.eye(2), np.eye(3)])


class TestColumnStats:
    def test_column_support_counts_rows(self):
        dense = _random_dense()
        matrix = CSRMatrix.from_dense(dense)
        assert np.array_equal(matrix.column_support(), (dense != 0).sum(axis=0))
