"""From-scratch machine-learning substrate.

Implements the estimators, selection, and metrics the paper's evaluation
uses through scikit-learn (which is unavailable in this environment):
linear regression, Bayesian ridge, CART trees, random forests, L2 logistic
regression (one-vs-rest), univariate feature selection, NDCG and macro-F1,
plus the two baselines the paper omitted (linear SVR and SGD regression).
"""

from repro.ml.base import BaseEstimator, check_array, check_X_y
from repro.ml.bayes import BayesianRidge
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression
from repro.ml.logistic import (
    LogisticRegression,
    OneVsRestLogisticRegression,
    tune_regularization,
)
from repro.ml.metrics import (
    accuracy,
    dcg,
    macro_f1,
    ndcg_at,
    per_node_f1,
    precision_recall_f1,
    r2_score,
)
from repro.ml.preprocessing import (
    StandardScaler,
    log1p_counts,
    train_test_split,
)
from repro.ml.selection import SelectKBest, f_classif_scores, f_regression_scores
from repro.ml.sgd import SGDRegressor
from repro.ml.svm import LinearSVR
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "BayesianRidge",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "LinearRegression",
    "LinearSVR",
    "SGDRegressor",
    "LogisticRegression",
    "OneVsRestLogisticRegression",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "SelectKBest",
    "StandardScaler",
    "accuracy",
    "check_X_y",
    "check_array",
    "dcg",
    "f_classif_scores",
    "f_regression_scores",
    "log1p_counts",
    "macro_f1",
    "ndcg_at",
    "per_node_f1",
    "precision_recall_f1",
    "r2_score",
    "train_test_split",
    "tune_regularization",
]
