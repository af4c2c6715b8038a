"""Reference CART trees: the per-node breadth-first builder.

The oracle for the library's level-array grower
(:mod:`repro.ml.tree_batched`).  Each node is built on its own: one
``argsort`` over the node's feature submatrix, cumulative-sum scans for
every threshold's impurity, a positional partition whose children are
re-sorted ascending, and importances accumulated node by node.  Node
statistics — target sum and sum of squares for regression, per-class
counts for classification — are handed down from the parent's split scan.

The fitted trees carry the library's node arrays
(``_feat/_thr/_left/_right/_values/_n_samples``), which must equal the
library's bit for bit, and predict by routing rows through one tree at a
time, the path the library's all-trees routing must reproduce.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_array
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.ml.tree_batched import _resolve_max_features


@dataclass
class _Node:
    """One tree node; leaves keep ``feature == -1``."""

    value: np.ndarray  # mean (regression, shape ()) or class proportions
    impurity: float
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1


@dataclass
class _Split:
    """A chosen split plus the statistics handed down to the children."""

    feature: int
    threshold: float
    score: float  # total child impurity (lower is better)
    row: int  # split position in the sorted order
    order_col: np.ndarray = field(repr=False)  # sort order of the split column
    left_stats: object = field(repr=False, default=None)
    right_stats: object = field(repr=False, default=None)


class _ReferenceTree:
    """Per-node builder; subclasses define the statistics hooks."""

    def _grow(self, X: np.ndarray, y: np.ndarray, classes=None) -> None:
        self._fit_tree(X, y)
        self._fitted = True

    def _fit_tree(self, X: np.ndarray, y: np.ndarray) -> None:
        n, p = X.shape
        self.n_features_ = p
        self._nodes = []
        importances = np.zeros(p)
        rng = np.random.default_rng(self.random_state)
        n_candidates = _resolve_max_features(self.max_features, p)

        # Breadth-first queue: (row indices, depth, stats, parent id, side).
        queue: deque = deque()
        queue.append((np.arange(n), 0, self._root_stats(y), -1, False))
        while queue:
            indices, depth, stats, parent_id, is_right = queue.popleft()
            m = int(indices.size)
            value, impurity = self._node_summary(stats, m)
            node = _Node(value=value, impurity=impurity, n_samples=m)
            node_id = len(self._nodes)
            self._nodes.append(node)
            if parent_id >= 0:
                parent = self._nodes[parent_id]
                if is_right:
                    parent.right = node_id
                else:
                    parent.left = node_id

            depth_ok = self.max_depth is None or depth < self.max_depth
            if not (depth_ok and m >= self.min_samples_split):
                continue
            if self._stats_pure(stats):
                continue
            y_node = y[indices]
            if self._targets_constant(y_node):
                continue
            split = self._best_split(X, y_node, indices, n_candidates, rng)
            if split is None:
                continue
            node.feature = split.feature
            node.threshold = split.threshold
            # Positional partition; children re-sorted to original row order.
            left_idx = np.sort(indices[split.order_col[: split.row + 1]])
            right_idx = np.sort(indices[split.order_col[split.row + 1 :]])
            queue.append((left_idx, depth + 1, split.left_stats, node_id, False))
            queue.append((right_idx, depth + 1, split.right_stats, node_id, True))
            importances[split.feature] += (impurity * m - split.score) / n

        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances
        self._compile_nodes()

    def _best_split(
        self,
        X: np.ndarray,
        y_node: np.ndarray,
        indices: np.ndarray,
        n_candidates: int,
        rng: np.random.Generator,
    ) -> _Split | None:
        p = X.shape[1]
        if n_candidates < p:
            features = rng.choice(p, size=n_candidates, replace=False)
        else:
            features = np.arange(p)
        sub = X[np.ix_(indices, features)]
        order = np.argsort(sub, axis=0, kind="stable")
        xs = np.take_along_axis(sub, order, axis=0)
        targets = self._prepare_targets(y_node)
        ys_sorted = targets[order]  # fancy indexing broadcasts any class axis

        scores, scan = self._split_scan(ys_sorted)  # (m - 1, f)

        m = indices.size
        left_sizes = np.arange(1, m)
        size_ok = (left_sizes >= self.min_samples_leaf) & (
            (m - left_sizes) >= self.min_samples_leaf
        )
        distinct = xs[1:] != xs[:-1]
        valid = distinct & size_ok[:, None]
        if not np.any(valid):
            return None
        scores = np.where(valid, scores, np.inf)
        flat_best = int(np.argmin(scores))
        row, col = np.unravel_index(flat_best, scores.shape)
        if not np.isfinite(scores[row, col]):
            return None
        left_stats, right_stats = self._child_stats(scan, int(row), int(col))
        return _Split(
            feature=int(features[col]),
            threshold=float((xs[row, col] + xs[row + 1, col]) / 2.0),
            score=float(scores[row, col]),
            row=int(row),
            order_col=order[:, col],
            left_stats=left_stats,
            right_stats=right_stats,
        )

    def _compile_nodes(self) -> None:
        """Flatten the node list into the library's node arrays."""
        nodes = self._nodes
        self._feat = np.array([nd.feature for nd in nodes], dtype=np.int64)
        self._thr = np.array([nd.threshold for nd in nodes], dtype=np.float64)
        self._left = np.array([nd.left for nd in nodes], dtype=np.int64)
        self._right = np.array([nd.right for nd in nodes], dtype=np.int64)
        self._values = np.stack(
            [np.asarray(nd.value, dtype=np.float64) for nd in nodes]
        )
        self._n_samples = np.array([nd.n_samples for nd in nodes], dtype=np.int64)

    def _decision_path_values(self, X) -> np.ndarray:
        """Route the rows of ``X`` through this tree alone."""
        self._check_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"fitted on {self.n_features_} features, got {X.shape[1]}")
        current = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self._feat[current]
            rows = np.flatnonzero(feats >= 0)
            if rows.size == 0:
                break
            at = current[rows]
            go_left = X[rows, feats[rows]] <= self._thr[at]
            current[rows] = np.where(go_left, self._left[at], self._right[at])
        return self._values[current]


class ReferenceDecisionTreeRegressor(_ReferenceTree, DecisionTreeRegressor):
    """CART regressor minimising within-node variance, node by node."""

    def _root_stats(self, y: np.ndarray):
        return (float(np.sum(y)), float(np.dot(y, y)))

    def _node_summary(self, stats, m: int) -> tuple[np.ndarray, float]:
        s, sq = stats
        mean = s / m
        impurity = sq / m - mean * mean
        if impurity < 0.0:
            impurity = 0.0
        return np.asarray(mean), float(impurity)

    def _stats_pure(self, stats) -> bool:
        return False  # fp sums can't prove purity; _targets_constant does.

    def _targets_constant(self, y_node: np.ndarray) -> bool:
        return bool(y_node.min() == y_node.max())

    def _prepare_targets(self, y_node: np.ndarray) -> np.ndarray:
        return y_node

    def _split_scan(self, ys_sorted: np.ndarray):
        m = ys_sorted.shape[0]
        csum = np.cumsum(ys_sorted, axis=0)
        csq = np.cumsum(ys_sorted**2, axis=0)
        total = csum[-1]
        total_sq = csq[-1]
        left_n = np.arange(1, m, dtype=np.float64)[:, None]
        right_n = m - left_n
        left_sse = csq[:-1] - csum[:-1] ** 2 / left_n
        right_sse = (total_sq - csq[:-1]) - (total - csum[:-1]) ** 2 / right_n
        return left_sse + right_sse, (csum, csq)

    def _child_stats(self, scan, row: int, col: int):
        csum, csq = scan
        left_s = float(csum[row, col])
        left_sq = float(csq[row, col])
        right_s = float(csum[-1, col]) - left_s
        right_sq = float(csq[-1, col]) - left_sq
        return (left_s, left_sq), (right_s, right_sq)


class ReferenceDecisionTreeClassifier(_ReferenceTree, DecisionTreeClassifier):
    """CART classifier minimising Gini impurity, node by node.

    The class axis is the tree's own (``np.unique`` of its training
    labels), so a tree fitted on a bootstrap may see fewer classes than
    its forest.
    """

    def _root_stats(self, y: np.ndarray):
        return np.bincount(
            y.astype(np.int64), minlength=self.classes_.size
        ).astype(np.float64)

    def _node_summary(self, stats, m: int) -> tuple[np.ndarray, float]:
        proportion = stats / m
        impurity = 1.0 - float(np.sum(proportion**2))
        return proportion, impurity

    def _stats_pure(self, stats) -> bool:
        return int(np.count_nonzero(stats)) <= 1

    def _targets_constant(self, y_node: np.ndarray) -> bool:
        return False  # class counts already give an exact purity check.

    def _prepare_targets(self, y_node: np.ndarray) -> np.ndarray:
        # y arrives as class indices; one-hot for the cumulative Gini scan.
        return np.eye(self.classes_.size, dtype=np.float64)[y_node.astype(np.int64)]

    def _split_scan(self, ys_sorted: np.ndarray):
        # ys_sorted: (m, f, k) one-hot.
        m = ys_sorted.shape[0]
        ccum = np.cumsum(ys_sorted, axis=0)
        total = ccum[-1]  # (f, k)
        left_counts = ccum[:-1]  # (m-1, f, k)
        right_counts = total[None, :, :] - left_counts
        left_n = np.arange(1, m, dtype=np.float64)[:, None]
        right_n = m - left_n
        left_gini = left_n - np.sum(left_counts**2, axis=2) / left_n
        right_gini = right_n - np.sum(right_counts**2, axis=2) / right_n
        return left_gini + right_gini, ccum

    def _child_stats(self, scan, row: int, col: int):
        left_counts = scan[row, col].copy()
        right_counts = scan[-1, col] - left_counts
        return left_counts, right_counts
