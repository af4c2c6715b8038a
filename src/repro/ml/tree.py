"""CART decision trees (regressor and classifier).

Used directly as the "decision tree" method of Section 4.2.3 and as the base
learner of :mod:`repro.ml.forest`.  A tree is grown breadth-first by the
level-array grower of :mod:`repro.ml.tree_batched`, as a batch of one:
split search is vectorised across the candidate features of every node of
a level, with one stable ``argsort`` over the feature submatrix and
cumulative-sum scans giving every threshold's impurity in closed form
(variance reduction for regression, Gini for classification).  Each node's
summary statistics — target sum and sum of squares for regression,
per-class counts for classification — are handed down from the parent's
split scan instead of being recomputed from the raw targets.

Partitioning is positional, as in sklearn: a split sends the first
``row + 1`` sorted samples left and the rest right, and stores the midpoint
threshold for prediction-time routing.

Impurity-decrease feature importances follow sklearn's definition: each
split contributes ``(n_node/n) * (impurity - weighted child impurity)`` to
its feature, normalised to sum to one.  These drive Figure 4.

The per-node builder the grower reformulates lives on as the parity oracle
in ``tests/oracles/tree.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_X_y,
    check_array,
)
from repro.ml.tree_batched import GrownTree, fit_tree_batch


def _leaf_values(trees, X) -> np.ndarray:
    """Every tree's leaf value for every row of ``X``.

    Shape ``(trees, rows)``, plus a class axis for classifiers.  All trees
    route at once: their node tables are concatenated and a flat
    (tree, row) position array descends until every position sits on a
    leaf, with each step making the single tree's comparison.
    """
    X = check_array(X)
    n_features = trees[0].n_features_
    if X.shape[1] != n_features:
        raise ValueError(f"fitted on {n_features} features, got {X.shape[1]}")
    sizes = np.array([tree._feat.size for tree in trees])
    offsets = np.cumsum(sizes) - sizes
    shift = np.repeat(offsets, sizes)
    feat = np.concatenate([tree._feat for tree in trees])
    thr = np.concatenate([tree._thr for tree in trees])
    left = np.concatenate([tree._left for tree in trees]) + shift
    right = np.concatenate([tree._right for tree in trees]) + shift
    n_rows = X.shape[0]
    node = np.repeat(offsets, n_rows)
    row = np.tile(np.arange(n_rows), len(trees))
    live = np.flatnonzero(feat[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[row[live], feat[at]] <= thr[at]
        node[live] = np.where(go_left, left[at], right[at])
        live = live[feat[node[live]] >= 0]
    values = np.concatenate([tree._values for tree in trees])[node]
    return values.reshape(len(trees), n_rows, *values.shape[1:])


class _BaseDecisionTree(BaseEstimator):
    """Shared fit plumbing and node-array prediction."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        random_state: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # -- fitting -------------------------------------------------------------
    def _grow(self, X: np.ndarray, y: np.ndarray, classes=None) -> None:
        params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        task = (self.random_state, np.arange(X.shape[0]))
        (grown,) = fit_tree_batch(X, y, params, [task], classes=classes)
        self._load(grown)

    def _load(self, grown: GrownTree) -> None:
        """Adopt a grown tree's node arrays (breadth-first node order)."""
        self._feat = grown.feature
        self._thr = grown.threshold
        self._left = grown.left
        self._right = grown.right
        self._values = grown.value
        self._n_samples = grown.n_samples
        self.n_features_ = grown.importances.size
        self.feature_importances_ = grown.importances
        self._fitted = True

    # -- prediction -----------------------------------------------------------
    def _decision_path_values(self, X) -> np.ndarray:
        self._check_fitted()
        return _leaf_values([self], X)[0]

    @property
    def tree_depth_(self) -> int:
        """Depth of the fitted tree (root at depth 0)."""
        self._check_fitted()
        depth, level = 0, np.zeros(1, dtype=np.int64)
        while True:
            inner = level[self._feat[level] >= 0]
            if inner.size == 0:
                return depth
            level = np.concatenate([self._left[inner], self._right[inner]])
            depth += 1

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()
        return int(np.count_nonzero(self._feat < 0))


class DecisionTreeRegressor(_BaseDecisionTree, RegressorMixin):
    """CART regressor minimising within-node variance."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self._grow(X, y)
        return self

    def predict(self, X) -> np.ndarray:
        return self._decision_path_values(X)


class DecisionTreeClassifier(_BaseDecisionTree, ClassifierMixin):
    """CART classifier minimising Gini impurity."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = check_array(X)
        y = np.asarray(y)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} samples but y has {y.shape[0]}")
        self.classes_, y_indices = np.unique(y, return_inverse=True)
        self._grow(X, y_indices.astype(np.float64), self.classes_)
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self._decision_path_values(X)

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
