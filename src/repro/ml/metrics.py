"""Evaluation metrics of the paper plus standard regression diagnostics.

Two metrics carry the evaluation:

* :func:`ndcg_at` — normalised discounted cumulative gain at top-n (Eq. 6),
  used for the institution rank-prediction task of Section 4.2 with n=20;
* :func:`macro_f1` — macro-averaged F1 (Eq. 7), used for the label
  prediction task of Section 4.3.

On macro-F1: the paper's Eq. 7 literally averages per-*node* F1 scores, but
for single-label nodes a per-node F1 is 1 when the prediction is correct and
0 otherwise, which collapses to accuracy.  The reference evaluations the
paper aligns itself with (DeepWalk, node2vec) macro-average per *class*, so
this module implements the per-class definition and exposes the literal
per-node form as :func:`per_node_f1` for completeness.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------
def dcg(relevances: np.ndarray) -> float:
    """Discounted cumulative gain of relevances in ranked order."""
    relevances = np.asarray(relevances, dtype=np.float64)
    if relevances.size == 0:
        return 0.0
    discounts = np.log2(np.arange(2, relevances.size + 2))
    return float(np.sum(relevances / discounts))


def ndcg_at(true_relevance, predicted_scores, n: int = 20) -> float:
    """NDCG at top-``n`` (Eq. 6).

    Parameters
    ----------
    true_relevance:
        Ground-truth relevance per item.
    predicted_scores:
        Model scores per item; only their induced ranking matters.
    n:
        Cut-off; the paper evaluates at 20.

    Returns
    -------
    float in [0, 1]; 1 corresponds to a perfect top-``n`` ranking.  When all
    true relevances are zero the metric is defined as 1 (nothing to rank).
    """
    true_relevance = np.asarray(true_relevance, dtype=np.float64)
    predicted_scores = np.asarray(predicted_scores, dtype=np.float64)
    if true_relevance.shape != predicted_scores.shape:
        raise ValueError(
            f"shape mismatch: {true_relevance.shape} vs {predicted_scores.shape}"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # Stable sort on negated scores: ties keep input order, deterministic.
    predicted_order = np.argsort(-predicted_scores, kind="stable")[:n]
    ideal_order = np.argsort(-true_relevance, kind="stable")[:n]
    ideal = dcg(true_relevance[ideal_order])
    if ideal == 0.0:
        return 1.0
    return dcg(true_relevance[predicted_order]) / ideal


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------
def _as_labels(y_true, y_pred) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            f"label arrays must be 1-D and equal length, got {y_true.shape} vs {y_pred.shape}"
        )
    classes = np.unique(np.concatenate([y_true, y_pred]))
    return y_true, y_pred, classes


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly correct predictions."""
    y_true, y_pred, _ = _as_labels(y_true, y_pred)
    if y_true.size == 0:
        raise ValueError("empty label arrays")
    return float(np.mean(y_true == y_pred))


def precision_recall_f1(y_true, y_pred, positive) -> tuple[float, float, float]:
    """Precision, recall and F1 of one class (zero when undefined)."""
    y_true, y_pred, _ = _as_labels(y_true, y_pred)
    true_positive = np.sum((y_pred == positive) & (y_true == positive))
    predicted_positive = np.sum(y_pred == positive)
    actual_positive = np.sum(y_true == positive)
    precision = true_positive / predicted_positive if predicted_positive else 0.0
    recall = true_positive / actual_positive if actual_positive else 0.0
    if precision + recall == 0.0:
        return float(precision), float(recall), 0.0
    f1 = 2.0 * precision * recall / (precision + recall)
    return float(precision), float(recall), float(f1)


def macro_f1(y_true, y_pred) -> float:
    """Macro-averaged F1: unweighted mean of per-class F1 scores.

    Classes are the union of true and predicted labels, so a class that the
    model invents (predicts but never occurs) drags the average down, as in
    the reference implementations.
    """
    y_true, y_pred, classes = _as_labels(y_true, y_pred)
    if classes.size == 0:
        raise ValueError("empty label arrays")
    scores = [precision_recall_f1(y_true, y_pred, c)[2] for c in classes]
    return float(np.mean(scores))


def per_node_f1(y_true, y_pred) -> float:
    """The literal per-node average of Eq. 7.

    With exactly one true and one predicted label per node this equals
    accuracy; kept to document the equivalence (see module docstring).
    """
    return accuracy(y_true, y_pred)


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------
def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination; 0 for a constant true signal predicted
    exactly, like sklearn's convention negative values are possible."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    residual = np.sum((y_true - y_pred) ** 2)
    total = np.sum((y_true - np.mean(y_true)) ** 2)
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return float(1.0 - residual / total)
