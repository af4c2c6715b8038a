"""Dependency-free CSR matrices for subgraph count features.

The census produces one ``Counter`` per root over a heavy-tailed subgraph
vocabulary: a node touches a few dozen codes out of thousands, so the
aligned feature matrix of :meth:`repro.core.features.FeatureSpace.to_matrix`
is overwhelmingly zero.  Materialising it densely costs ``rows x vocab``
float64 up front — the consumer-side bottleneck once the census itself is
fast (Beaujean et al. make the same observation for pattern-count features,
see PAPERS.md).

:class:`CSRMatrix` is the minimal compressed-sparse-row container the
experiment pipelines need: built straight from counters, row-sliceable,
stackable, and convertible to dense exactly (``toarray`` places the same
float64 values at the same positions as the dense builder, so downstream
models are bit-identical).  Estimators never see it — ``repro.ml`` densifies
on demand at the model boundary via ``check_array``.

Only numpy is used; scipy.sparse is deliberately not imported so worker
processes and minimal installs stay dependency-free.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import FeatureError


class CSRMatrix:
    """A read-mostly CSR matrix: ``data``/``indices``/``indptr`` arrays.

    ``data`` is float64, ``indices`` and ``indptr`` are int64 (one
    ``indptr`` entry per row plus one).  Column indices within a row are
    kept in ascending order by every constructor here, which makes
    ``toarray`` deterministic and row-wise operations cache-friendly.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        rows, cols = shape
        self.shape = (int(rows), int(cols))
        if self.data.shape != self.indices.shape or self.data.ndim != 1:
            raise FeatureError("data and indices must be aligned 1-D arrays")
        if self.indptr.ndim != 1 or self.indptr.shape[0] != self.shape[0] + 1:
            raise FeatureError(
                f"indptr needs {self.shape[0] + 1} entries, got {self.indptr.shape[0]}"
            )
        if self.shape[0] and (self.indptr[0] != 0 or self.indptr[-1] != self.data.size):
            raise FeatureError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise FeatureError("indptr must be non-decreasing")
        if self.data.size and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise FeatureError("column index out of range")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_counters(
        cls, censuses: Sequence, index: dict, num_columns: int
    ) -> "CSRMatrix":
        """Build from per-root counters and a key -> column mapping.

        Keys absent from ``index`` are silently dropped (test-time codes
        never seen in training), mirroring the dense builder.
        """
        data: list[float] = []
        cols: list[int] = []
        indptr = np.zeros(len(censuses) + 1, dtype=np.int64)
        for row, census in enumerate(censuses):
            start = len(cols)
            for key, count in census.items():
                column = index.get(key)
                if column is not None:
                    cols.append(column)
                    data.append(float(count))
            # ascending column order inside the row
            if len(cols) - start > 1:
                order = np.argsort(cols[start:], kind="stable")
                segment_cols = np.asarray(cols[start:], dtype=np.int64)[order]
                segment_data = np.asarray(data[start:], dtype=np.float64)[order]
                cols[start:] = segment_cols.tolist()
                data[start:] = segment_data.tolist()
            indptr[row + 1] = len(cols)
        return cls(
            np.asarray(data, dtype=np.float64),
            np.asarray(cols, dtype=np.int64),
            indptr,
            (len(censuses), num_columns),
        )

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CSRMatrix":
        """Compress a dense 2-D array (zeros dropped)."""
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise FeatureError(f"need a 2-D array, got shape {array.shape}")
        rows, cols = np.nonzero(array)
        indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
        counts = np.bincount(rows, minlength=array.shape[0])
        np.cumsum(counts, out=indptr[1:])
        return cls(array[rows, cols], cols.astype(np.int64), indptr, array.shape)

    # -- basics ------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (non-zero) entries."""
        return int(self.data.size)

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"CSRMatrix({rows}x{cols}, nnz={self.nnz})"

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """Same sparsity pattern with replaced values (e.g. log1p counts)."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape != self.data.shape:
            raise FeatureError("replacement data must match nnz")
        return CSRMatrix(data, self.indices, self.indptr, self.shape)

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.data.copy(), self.indices.copy(), self.indptr.copy(), self.shape
        )

    def toarray(self) -> np.ndarray:
        """Dense float64 view; exact values at exact positions."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        out[rows, self.indices] = self.data
        return out

    # -- slicing / stacking ------------------------------------------------
    def row(self, i: int) -> np.ndarray:
        """One row as a dense 1-D array."""
        i = int(i)
        if i < 0:
            i += self.shape[0]
        if not 0 <= i < self.shape[0]:
            raise FeatureError(f"row {i} out of range for {self.shape[0]} rows")
        out = np.zeros(self.shape[1], dtype=np.float64)
        start, stop = self.indptr[i], self.indptr[i + 1]
        out[self.indices[start:stop]] = self.data[start:stop]
        return out

    def __getitem__(self, key) -> "CSRMatrix | np.ndarray":
        """``m[i]`` -> dense row; ``m[slice]``/``m[int array]`` -> CSRMatrix."""
        if isinstance(key, (int, np.integer)):
            return self.row(int(key))
        if isinstance(key, slice):
            key = np.arange(*key.indices(self.shape[0]), dtype=np.int64)
        rows = np.asarray(key)
        if rows.dtype == bool:
            if rows.shape[0] != self.shape[0]:
                raise FeatureError("boolean row mask must cover every row")
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.int64)
        if rows.size and (rows.min() < -self.shape[0] or rows.max() >= self.shape[0]):
            raise FeatureError("row index out of range")
        rows = np.where(rows < 0, rows + self.shape[0], rows)
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = np.concatenate(
            [np.arange(self.indptr[r], self.indptr[r + 1]) for r in rows]
        ) if rows.size else np.empty(0, dtype=np.int64)
        return CSRMatrix(
            self.data[take], self.indices[take], indptr, (rows.size, self.shape[1])
        )

    @classmethod
    def vstack(cls, blocks: Iterable["CSRMatrix"]) -> "CSRMatrix":
        """Stack row blocks with a shared column count."""
        blocks = list(blocks)
        if not blocks:
            raise FeatureError("vstack needs at least one block")
        cols = blocks[0].shape[1]
        for block in blocks:
            if block.shape[1] != cols:
                raise FeatureError(
                    f"column mismatch in vstack: {block.shape[1]} != {cols}"
                )
        indptr_parts = [blocks[0].indptr]
        for block in blocks[1:]:
            offset = indptr_parts[-1][-1]
            indptr_parts.append(block.indptr[1:] + offset)
        return cls(
            np.concatenate([b.data for b in blocks]),
            np.concatenate([b.indices for b in blocks]),
            np.concatenate(indptr_parts),
            (sum(b.shape[0] for b in blocks), cols),
        )

    @classmethod
    def hstack(cls, blocks: Iterable["CSRMatrix | np.ndarray"]) -> "CSRMatrix":
        """Concatenate columns; dense blocks are compressed on the fly.

        Used by the ``combined`` feature family to glue the narrow dense
        classic block onto the wide sparse subgraph block.
        """
        converted = [
            b if isinstance(b, CSRMatrix) else cls.from_dense(b) for b in blocks
        ]
        if not converted:
            raise FeatureError("hstack needs at least one block")
        rows = converted[0].shape[0]
        for block in converted:
            if block.shape[0] != rows:
                raise FeatureError(
                    f"row mismatch in hstack: {block.shape[0]} != {rows}"
                )
        offsets = np.cumsum([0] + [b.shape[1] for b in converted])
        data: list[np.ndarray] = []
        indices: list[np.ndarray] = []
        lengths = np.zeros(rows, dtype=np.int64)
        for block in converted:
            lengths += np.diff(block.indptr)
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        for row in range(rows):
            for block, offset in zip(converted, offsets):
                start, stop = block.indptr[row], block.indptr[row + 1]
                indices.append(block.indices[start:stop] + offset)
                data.append(block.data[start:stop])
        return cls(
            np.concatenate(data) if data else np.empty(0),
            np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
            indptr,
            (rows, int(offsets[-1])),
        )

    # -- column statistics -------------------------------------------------
    def column_support(self) -> np.ndarray:
        """Number of rows with a stored entry per column (one pass).

        For count matrices built from censuses this is exactly the
        "observed around how many roots" support that
        :meth:`~repro.core.features.FeatureSpace.prune` thresholds on.
        """
        return np.bincount(self.indices, minlength=self.shape[1]).astype(np.int64)
