"""From-scratch machine-learning substrate.

Implements the estimators, selection, and metrics the paper's evaluation
uses through scikit-learn (which is unavailable in this environment):
linear regression, Bayesian ridge, CART trees, random forests, L2 logistic
regression (one-vs-rest), univariate feature selection, NDCG and macro-F1.
"""

from repro.ml.base import BaseEstimator, check_array, check_X_y
from repro.ml.bayes import BayesianRidge
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression, Ridge
from repro.ml.logistic import (
    LogisticRegression,
    OneVsRestLogisticRegression,
    tune_regularization,
)
from repro.ml.metrics import (
    accuracy,
    micro_f1,
    confusion_matrix,
    dcg,
    macro_f1,
    mean_absolute_error,
    mean_squared_error,
    ndcg_at,
    per_node_f1,
    precision_recall_f1,
    r2_score,
)
from repro.ml.preprocessing import (
    StandardScaler,
    kfold_indices,
    log1p_counts,
    train_test_split,
)
from repro.ml.selection import SelectKBest, f_classif_scores, f_regression_scores
from repro.ml.sgd import SGDClassifier, SGDRegressor
from repro.ml.svm import LinearSVR
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "BayesianRidge",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "LinearRegression",
    "LinearSVR",
    "SGDClassifier",
    "SGDRegressor",
    "LogisticRegression",
    "OneVsRestLogisticRegression",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "Ridge",
    "SelectKBest",
    "StandardScaler",
    "accuracy",
    "check_X_y",
    "check_array",
    "confusion_matrix",
    "dcg",
    "f_classif_scores",
    "f_regression_scores",
    "kfold_indices",
    "log1p_counts",
    "macro_f1",
    "mean_absolute_error",
    "mean_squared_error",
    "micro_f1",
    "ndcg_at",
    "per_node_f1",
    "precision_recall_f1",
    "r2_score",
    "train_test_split",
    "tune_regularization",
]
