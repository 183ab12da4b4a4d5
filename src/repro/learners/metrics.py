"""Classification metrics used for model utility.

Balanced accuracy is the paper's headline utility metric; the other metrics
support tests, model selection, and the extended reports.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_consistent_length


def _as_labels(y_true, y_pred) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    check_consistent_length(y_true, y_pred, names=("y_true", "y_pred"))
    if y_true.size == 0:
        raise ValidationError("y_true must not be empty")
    return y_true, y_pred


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """Return the 2x2 confusion matrix ``[[TN, FP], [FN, TP]]`` for binary labels."""
    y_true, y_pred = _as_labels(y_true, y_pred)
    # Compare values, not truncated casts: 0.7 is not a label.
    if np.any((y_true != 0) & (y_true != 1)) or np.any((y_pred != 0) & (y_pred != 1)):
        raise ValidationError("confusion_matrix expects binary 0/1 labels")
    cells = 2 * y_true.astype(np.int64) + y_pred.astype(np.int64)
    return np.bincount(cells, minlength=4).reshape(2, 2)


def accuracy_score(y_true, y_pred) -> float:
    """Fraction of predictions equal to the true label."""
    y_true, y_pred = _as_labels(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def true_positive_rate(y_true, y_pred) -> float:
    """TPR (sensitivity): TP / (TP + FN).  Returns 0.0 if there are no positives."""
    matrix = confusion_matrix(y_true, y_pred)
    positives = matrix[1, 0] + matrix[1, 1]
    return float(matrix[1, 1] / positives) if positives else 0.0


def true_negative_rate(y_true, y_pred) -> float:
    """TNR (specificity): TN / (TN + FP).  Returns 0.0 if there are no negatives."""
    matrix = confusion_matrix(y_true, y_pred)
    negatives = matrix[0, 0] + matrix[0, 1]
    return float(matrix[0, 0] / negatives) if negatives else 0.0


def false_positive_rate(y_true, y_pred) -> float:
    """FPR: FP / (FP + TN).  Returns 0.0 if there are no negatives."""
    matrix = confusion_matrix(y_true, y_pred)
    negatives = matrix[0, 0] + matrix[0, 1]
    return float(matrix[0, 1] / negatives) if negatives else 0.0


def false_negative_rate(y_true, y_pred) -> float:
    """FNR: FN / (FN + TP).  Returns 0.0 if there are no positives."""
    matrix = confusion_matrix(y_true, y_pred)
    positives = matrix[1, 0] + matrix[1, 1]
    return float(matrix[1, 0] / positives) if positives else 0.0


def balanced_accuracy_score(y_true, y_pred) -> float:
    """Balanced accuracy ``(TPR + TNR) / 2`` — the paper's utility metric."""
    return (true_positive_rate(y_true, y_pred) + true_negative_rate(y_true, y_pred)) / 2.0


def precision_score(y_true, y_pred) -> float:
    """Precision: TP / (TP + FP).  Returns 0.0 when nothing is predicted positive."""
    matrix = confusion_matrix(y_true, y_pred)
    predicted_positive = matrix[0, 1] + matrix[1, 1]
    return float(matrix[1, 1] / predicted_positive) if predicted_positive else 0.0


def recall_score(y_true, y_pred) -> float:
    """Recall, identical to the true positive rate."""
    return true_positive_rate(y_true, y_pred)


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall (0.0 when both are zero)."""
    precision = precision_score(y_true, y_pred)
    recall = recall_score(y_true, y_pred)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def selection_rate(y_pred) -> float:
    """Fraction of predictions that are positive."""
    y_pred = np.asarray(y_pred).ravel()
    if y_pred.size == 0:
        raise ValidationError("y_pred must not be empty")
    return float(np.mean(y_pred == 1))


def log_loss(y_true, y_proba, eps: float = 1e-12) -> float:
    """Binary cross-entropy of predicted positive-class probabilities."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    proba = np.asarray(y_proba, dtype=np.float64)
    if proba.ndim == 2:
        proba = proba[:, 1]
    check_consistent_length(y_true, proba, names=("y_true", "y_proba"))
    proba = np.clip(proba, eps, 1.0 - eps)
    return float(-np.mean(y_true * np.log(proba) + (1.0 - y_true) * np.log(1.0 - proba)))


def roc_auc_score(y_true, y_score) -> float:
    """Area under the ROC curve via the rank-statistic (Mann-Whitney) formula."""
    y_true = np.asarray(y_true).ravel()
    scores = np.asarray(y_score, dtype=np.float64)
    if scores.ndim == 2:
        scores = scores[:, 1]
    check_consistent_length(y_true, scores, names=("y_true", "y_score"))
    positives = scores[y_true == 1]
    negatives = scores[y_true == 0]
    if positives.size == 0 or negatives.size == 0:
        raise ValidationError("roc_auc_score requires both classes to be present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, scores.size + 1)
    # Average ranks for ties.
    sorted_scores = scores[order]
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    positive_rank_sum = ranks[y_true == 1].sum()
    n_pos, n_neg = positives.size, negatives.size
    return float((positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
