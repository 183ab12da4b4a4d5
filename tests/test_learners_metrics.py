"""Unit tests for the classification metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.fairness import evaluate_predictions
from repro.learners.metrics import (
    accuracy_score,
    balanced_accuracy_score,
    confusion_matrix,
    f1_score,
    false_negative_rate,
    false_positive_rate,
    log_loss,
    precision_score,
    recall_score,
    roc_auc_score,
    selection_rate,
    true_negative_rate,
    true_positive_rate,
)

Y_TRUE = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
Y_PRED = [0, 0, 1, 1, 1, 1, 1, 1, 0, 0]  # TN=2 FP=2 TP=4 FN=2


class TestConfusionBasedMetrics:
    def test_confusion_matrix_layout(self):
        matrix = confusion_matrix(Y_TRUE, Y_PRED)
        assert matrix.tolist() == [[2, 2], [2, 4]]

    def test_accuracy(self):
        assert accuracy_score(Y_TRUE, Y_PRED) == pytest.approx(0.6)

    def test_rates(self):
        assert true_positive_rate(Y_TRUE, Y_PRED) == pytest.approx(4 / 6)
        assert true_negative_rate(Y_TRUE, Y_PRED) == pytest.approx(2 / 4)
        assert false_positive_rate(Y_TRUE, Y_PRED) == pytest.approx(2 / 4)
        assert false_negative_rate(Y_TRUE, Y_PRED) == pytest.approx(2 / 6)

    def test_balanced_accuracy_is_mean_of_tpr_tnr(self):
        expected = (4 / 6 + 2 / 4) / 2
        assert balanced_accuracy_score(Y_TRUE, Y_PRED) == pytest.approx(expected)

    def test_precision_recall_f1(self):
        precision = 4 / 6
        recall = 4 / 6
        assert precision_score(Y_TRUE, Y_PRED) == pytest.approx(precision)
        assert recall_score(Y_TRUE, Y_PRED) == pytest.approx(recall)
        assert f1_score(Y_TRUE, Y_PRED) == pytest.approx(2 * precision * recall / (precision + recall))

    def test_perfect_predictions(self):
        assert balanced_accuracy_score([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
        assert f1_score([0, 1], [0, 1]) == 1.0

    def test_all_negative_predictions(self):
        assert precision_score([0, 1], [0, 0]) == 0.0
        assert f1_score([0, 1], [0, 0]) == 0.0

    def test_selection_rate(self):
        assert selection_rate([1, 0, 1, 1]) == pytest.approx(0.75)

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 2], [0, 1])

    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(ValidationError):
            confusion_matrix([1, 0], [0.7, 0.2])
        with pytest.raises(ValidationError):
            balanced_accuracy_score([1, 0], [0.9, 0])
        with pytest.raises(ValidationError):
            evaluate_predictions([1, 0, 1, 0], [0.7, 0.2, 1, 0], [0, 0, 1, 1])

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60),
        dtype=st.sampled_from([np.int64, np.float64, np.bool_]),
    )
    def test_matrix_equals_masked_counts(self, labels, dtype):
        y_true = np.array([t for t, _ in labels]).astype(dtype)
        y_pred = np.array([p for _, p in labels]).astype(dtype)
        expected = [
            [np.sum((y_true == 0) & (y_pred == 0)), np.sum((y_true == 0) & (y_pred == 1))],
            [np.sum((y_true == 1) & (y_pred == 0)), np.sum((y_true == 1) & (y_pred == 1))],
        ]
        assert confusion_matrix(y_true, y_pred).tolist() == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            accuracy_score([0, 1], [0])


class TestLogLoss:
    def test_confident_correct_is_small(self):
        assert log_loss([1, 0], [0.99, 0.01]) < 0.05

    def test_confident_wrong_is_large(self):
        assert log_loss([1, 0], [0.01, 0.99]) > 2.0

    def test_accepts_two_column_probabilities(self):
        proba = np.array([[0.2, 0.8], [0.9, 0.1]])
        assert log_loss([1, 0], proba) == pytest.approx(log_loss([1, 0], [0.8, 0.1]))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reverse_ranking(self):
        assert roc_auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=2000)
        scores = rng.random(2000)
        assert abs(roc_auc_score(y, scores) - 0.5) < 0.05

    def test_ties_handled(self):
        assert roc_auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc_score([1, 1], [0.3, 0.4])
