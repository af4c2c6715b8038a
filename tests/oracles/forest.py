"""Reference random forests: one per-node tree fit and predict at a time.

The oracle for the library forests' batched growth
(:mod:`repro.ml.tree_batched`) and all-trees prediction: the same
pre-drawn per-tree seeds and bootstrap samples (the library's
``_draw_tree_tasks`` and ``_bootstrap_sample``), each tree fitted on its
own with the per-node builders of ``tests/oracles/tree.py``, and each
tree predicting on its own.  Predictions and ``feature_importances_``
must equal the library's bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array
from repro.ml.forest import (
    RandomForestClassifier,
    RandomForestRegressor,
    _bootstrap_sample,
    _draw_tree_tasks,
)
from tests.oracles.tree import (
    ReferenceDecisionTreeClassifier,
    ReferenceDecisionTreeRegressor,
)


def _fit_forest(forest, X: np.ndarray, y: np.ndarray) -> None:
    tree_cls = (
        ReferenceDecisionTreeClassifier
        if getattr(forest, "classes_", None) is not None
        else ReferenceDecisionTreeRegressor
    )
    trees = []
    for seed, boot_seed in _draw_tree_tasks(forest.random_state, forest.n_estimators):
        sample = _bootstrap_sample(boot_seed, X.shape[0], forest.bootstrap)
        tree = tree_cls(**forest._tree_params(), random_state=seed)
        tree.fit(X[sample], y[sample])
        trees.append(tree)
    forest.estimators_ = trees
    importances = np.zeros(X.shape[1])
    for tree in trees:
        importances += tree.feature_importances_
    total = importances.sum()
    forest.feature_importances_ = importances / total if total > 0 else importances


class ReferenceRandomForestRegressor(RandomForestRegressor):
    _fit_forest = _fit_forest

    def predict(self, X) -> np.ndarray:
        predictions = np.stack([tree.predict(X) for tree in self.estimators_])
        return predictions.mean(axis=0)


class ReferenceRandomForestClassifier(RandomForestClassifier):
    """Trees carry their bootstrap's class axis; probabilities are
    re-aligned to the forest-level ``classes_`` before averaging."""

    _fit_forest = _fit_forest

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        total = np.zeros((X.shape[0], self.classes_.size))
        class_index = {c: i for i, c in enumerate(self.classes_)}
        for tree in self.estimators_:
            probabilities = tree.predict_proba(X)
            columns = [class_index[c] for c in tree.classes_]
            total[:, columns] += probabilities
        return total / len(self.estimators_)
