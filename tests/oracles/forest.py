"""Reference random forests: one plain per-node tree fit at a time.

The oracle for the library forests' batched growth
(:mod:`repro.ml.tree_batched`): the same pre-drawn per-tree seeds and
bootstrap samples (the library's ``_draw_tree_tasks`` and
``_bootstrap_sample``), each tree fitted on its own with the
``DecisionTree*`` builders.  Predictions and ``feature_importances_``
must equal the library's bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import (
    RandomForestClassifier,
    RandomForestRegressor,
    _bootstrap_sample,
    _draw_tree_tasks,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def _fit_forest(forest, X: np.ndarray, y: np.ndarray) -> None:
    tree_cls = (
        DecisionTreeClassifier
        if getattr(forest, "classes_", None) is not None
        else DecisionTreeRegressor
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


class ReferenceRandomForestClassifier(RandomForestClassifier):
    _fit_forest = _fit_forest
