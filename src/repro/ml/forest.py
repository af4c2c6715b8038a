"""Random forests by bagging the CART trees of :mod:`repro.ml.tree`.

The paper's strongest rank-prediction method (Section 4.2.3, Figure 3,
Table 1) is a random forest with 300 trees whose impurity importances drive
the discriminative-subgraph analysis of Figure 4.

Each tree trains on a bootstrap sample and considers a random feature
subset at every split (``max_features``).  Defaults follow the era's
scikit-learn: regressors consider all features, classifiers ``sqrt``.  The
experiment pipelines pass ``max_features="sqrt"`` for regressors too when
the subgraph vocabularies are large; that choice is recorded per experiment.

Batched growth, prediction and parallelism
------------------------------------------
All trees grow level-synchronously through :mod:`repro.ml.tree_batched`,
which keeps each level of the whole forest as flat arrays.  The result is
bit-identical to fitting each tree on its own with the per-node builder
kept as the parity oracle in ``tests/oracles/tree.py`` and
``tests/oracles/forest.py``.  ``predict`` routes every tree at once
through one concatenated node table.

``n_jobs`` fans tree chunks out through
:func:`repro.runtime.executor.run_tasks`, which ships ``X, y`` once per
worker rather than once per chunk.  Per-tree RNG seeds — one for the split
sampler, one for the bootstrap — are pre-drawn from the sequential stream
of ``random_state`` *before* any fanning, so every worker count yields
exactly the trees that ``n_jobs=1`` would have grown: predictions and
``feature_importances_`` are bit-identical.  Worker telemetry merges back
into the parent registry.
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
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _leaf_values
from repro.ml.tree_batched import fit_tree_batch
from repro.obs.telemetry import get_telemetry
from repro.runtime.context import resolve_n_jobs
from repro.runtime.executor import run_tasks


def _draw_tree_tasks(
    random_state: int | None, n_estimators: int
) -> list[tuple[int, int]]:
    """Pre-draw every tree's (split seed, bootstrap seed) sequentially.

    This is the PR 2 rng-sharding pattern: the sequential stream is
    consumed up front, so any partition of the task list across workers
    reproduces the ``n_jobs=1`` forest exactly.
    """
    rng = np.random.default_rng(random_state)
    tasks = []
    for _ in range(n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        boot_seed = int(rng.integers(0, 2**31 - 1))
        tasks.append((seed, boot_seed))
    return tasks


def _bootstrap_sample(boot_seed: int, n: int, bootstrap: bool) -> np.ndarray:
    if not bootstrap:
        return np.arange(n)
    return np.random.default_rng(boot_seed).integers(0, n, size=n)


def _fit_tree_tasks(fit: tuple, tasks: list[tuple[int, int]]) -> list:
    """Fit the trees for ``tasks`` in one batched growth, in order.

    ``fit`` is ``(X, y, spec)``; this is the forest's fan-out task.
    """
    X, y, spec = fit
    n = X.shape[0]
    samples = [
        (seed, _bootstrap_sample(boot_seed, n, spec["bootstrap"]))
        for seed, boot_seed in tasks
    ]
    params = spec["params"]
    classes = spec["classes"]
    if classes is None:
        tree_cls, y_fit = DecisionTreeRegressor, y
    else:
        tree_cls = DecisionTreeClassifier
        y_fit = np.searchsorted(classes, y).astype(np.float64)
    trees = []
    for (seed, _), grown in zip(
        samples, fit_tree_batch(X, y_fit, params, samples, classes=classes)
    ):
        tree = tree_cls(**params, random_state=seed)
        if classes is not None:
            tree.classes_ = classes
        tree._load(grown)
        trees.append(tree)
    return trees


class _BaseForest(BaseEstimator):
    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        bootstrap: bool = True,
        random_state: int | None = None,
        n_jobs: int | None = 1,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        resolve_n_jobs(n_jobs)  # fail fast on a bad spec; resolved again at fit
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs
        self.estimators_: list = []
        self.feature_importances_: np.ndarray | None = None

    def _tree_params(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def _fit_spec(self) -> dict:
        return {
            "params": self._tree_params(),
            "bootstrap": self.bootstrap,
            "classes": getattr(self, "classes_", None),
        }

    def _fit_forest(self, X: np.ndarray, y: np.ndarray) -> None:
        telemetry = get_telemetry()
        n_jobs = resolve_n_jobs(self.n_jobs)
        tasks = _draw_tree_tasks(self.random_state, self.n_estimators)
        spec = self._fit_spec()
        telemetry.count("forest/trees", self.n_estimators)
        with telemetry.span("forest/fit"):
            # One chunk per worker; n_jobs == 1 keeps every tree in one
            # batched fit.
            chunksize = -(-len(tasks) // n_jobs)
            chunks = [
                tasks[start : start + chunksize]
                for start in range(0, len(tasks), chunksize)
            ]
            trees = [
                tree
                for chunk_trees in run_tasks(
                    _fit_tree_tasks, chunks, n_jobs=n_jobs, shared=(X, y, spec)
                )
                for tree in chunk_trees
            ]
        self.estimators_ = trees
        importances = np.zeros(X.shape[1])
        for tree in trees:  # tree order, so any n_jobs sums identically
            importances += tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    def _leaf_values(self, X) -> np.ndarray:
        self._check_fitted()
        return _leaf_values(self.estimators_, X)


class RandomForestRegressor(_BaseForest, RegressorMixin):
    """Bagged CART regressors; prediction is the mean over trees."""

    def fit(self, X, y) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        self._fit_forest(X, y)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        return self._leaf_values(X).mean(axis=0)


class RandomForestClassifier(_BaseForest, ClassifierMixin):
    """Bagged CART classifiers; prediction averages class probabilities.

    Every tree is fitted on the forest-level ``classes_`` axis, so a class
    missing from a tree's bootstrap simply has probability 0 there.
    """

    def __init__(self, max_features="sqrt", **kwargs) -> None:
        super().__init__(max_features=max_features, **kwargs)
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X = check_array(X)
        y = np.asarray(y)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"X has {X.shape[0]} samples but y has {y.shape[0]}")
        self.classes_ = np.unique(y)
        self._fit_forest(X, y)
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        return self._leaf_values(X).sum(axis=0) / len(self.estimators_)

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]
