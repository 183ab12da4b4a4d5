"""Frozen copy of the mask-based fairness metrics — DO NOT MODIFY.

This module preserves the per-group mask computation that
:mod:`repro.fairness.metrics` and :func:`repro.fairness.evaluate_predictions`
shipped before every metric became a field of the report built from one
:class:`~repro.fairness.streaming.StreamCounts`: each metric splits the rows
by boolean group masks and calls the per-block rate functions of
:mod:`repro.learners.metrics`, exactly as before.  It is the oracle of the
*bit-identical guarantee*: ``tests/test_fairness_metrics.py`` evaluates the
same binary inputs through both implementations and asserts that every
report field, every :class:`GroupRates` field and every metric are equal
bit for bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.fairness.metrics import GroupRates
from repro.fairness.report import FairnessReport
from repro.learners.metrics import (
    accuracy_score,
    balanced_accuracy_score,
    false_negative_rate,
    false_positive_rate,
    selection_rate,
    true_positive_rate,
)
from repro.utils.validation import check_consistent_length


def _split_by_group(y_true, y_pred, group) -> Tuple[np.ndarray, ...]:
    y_true = np.asarray(y_true).ravel()
    y_pred = np.asarray(y_pred).ravel()
    group = np.asarray(group).ravel()
    check_consistent_length(y_true, y_pred, group, names=("y_true", "y_pred", "group"))
    if y_true.size == 0:
        raise ValidationError("Fairness metrics need at least one sample")
    majority = group == 0
    minority = group == 1
    if not majority.any() or not minority.any():
        raise ValidationError("Both the majority (0) and the minority (1) group must be present")
    return y_true, y_pred, majority, minority


def group_rates(y_true, y_pred, group) -> Dict[str, GroupRates]:
    y_true, y_pred, majority, minority = _split_by_group(y_true, y_pred, group)
    result: Dict[str, GroupRates] = {}
    for key, mask in (("majority", majority), ("minority", minority)):
        true_block, pred_block = y_true[mask], y_pred[mask]
        result[key] = GroupRates(
            selection_rate=selection_rate(pred_block),
            tpr=true_positive_rate(true_block, pred_block),
            fpr=false_positive_rate(true_block, pred_block),
            fnr=false_negative_rate(true_block, pred_block),
            n_samples=int(mask.sum()),
            has_positives=bool(np.any(true_block == 1)),
            has_negatives=bool(np.any(true_block == 0)),
        )
    return result


def disparate_impact(y_true, y_pred, group) -> float:
    rates = group_rates(y_true, y_pred, group)
    sr_minority = rates["minority"].selection_rate
    sr_majority = rates["majority"].selection_rate
    if sr_majority == 0.0:
        return float("inf") if sr_minority > 0 else 1.0
    return sr_minority / sr_majority


def disparate_impact_star(y_true, y_pred, group) -> float:
    di = disparate_impact(y_true, y_pred, group)
    if di == 0.0 or np.isinf(di):
        return 0.0
    return float(min(di, 1.0 / di))


def favors_minority(y_true, y_pred, group) -> bool:
    return disparate_impact(y_true, y_pred, group) > 1.0


def average_odds_difference(y_true, y_pred, group) -> float:
    rates = group_rates(y_true, y_pred, group)
    minority, majority = rates["minority"], rates["majority"]
    fpr_gap = (
        minority.fpr - majority.fpr
        if minority.has_negatives and majority.has_negatives
        else 0.0
    )
    tpr_gap = (
        minority.tpr - majority.tpr
        if minority.has_positives and majority.has_positives
        else 0.0
    )
    return float((fpr_gap + tpr_gap) / 2.0)


def average_odds_star(y_true, y_pred, group) -> float:
    return float(1.0 - abs(average_odds_difference(y_true, y_pred, group)))


def equalized_odds_difference(y_true, y_pred, group, *, rate: str = "fnr") -> float:
    rates = group_rates(y_true, y_pred, group)
    if rate not in ("fnr", "fpr", "tpr"):
        raise ValidationError("rate must be 'fnr', 'fpr', or 'tpr'")
    minority, majority = rates["minority"], rates["majority"]
    needs_positives = rate in ("fnr", "tpr")
    if needs_positives and not (minority.has_positives and majority.has_positives):
        return 0.0
    if rate == "fpr" and not (minority.has_negatives and majority.has_negatives):
        return 0.0
    return float(abs(getattr(minority, rate) - getattr(majority, rate)))


def statistical_parity_difference(y_true, y_pred, group) -> float:
    rates = group_rates(y_true, y_pred, group)
    return float(rates["minority"].selection_rate - rates["majority"].selection_rate)


def evaluate_predictions(y_true, y_pred, group) -> FairnessReport:
    y_pred_arr = np.asarray(y_pred).ravel()
    rates = group_rates(y_true, y_pred, group)
    single_class = np.unique(y_pred_arr).size < 2
    return FairnessReport(
        di=disparate_impact(y_true, y_pred, group),
        di_star=disparate_impact_star(y_true, y_pred, group),
        aod=average_odds_difference(y_true, y_pred, group),
        aod_star=average_odds_star(y_true, y_pred, group),
        balanced_accuracy=balanced_accuracy_score(y_true, y_pred),
        accuracy=accuracy_score(y_true, y_pred),
        eq_odds_fnr=equalized_odds_difference(y_true, y_pred, group, rate="fnr"),
        eq_odds_fpr=equalized_odds_difference(y_true, y_pred, group, rate="fpr"),
        selection_rate_minority=rates["minority"].selection_rate,
        selection_rate_majority=rates["majority"].selection_rate,
        favors_minority=favors_minority(y_true, y_pred, group),
        degenerate=single_class,
    )
