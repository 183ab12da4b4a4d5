"""Group-fairness metrics.

All metrics operate on ``(y_true, y_pred, group)`` triples of binary 0/1
values, where ``group`` is 0 for the majority ``W`` and 1 for the minority
``U``.  Each metric is a field of the
:class:`~repro.fairness.report.FairnessReport` that
:func:`~repro.fairness.report.evaluate_predictions` builds from one
:class:`~repro.fairness.streaming.StreamCounts`, so a metric and the report
cannot disagree.  Two reporting conventions from the paper are provided:

* :func:`disparate_impact` returns the raw ratio ``SR_U / SR_W``;
  :func:`disparate_impact_star` folds it to ``min(DI, 1/DI)`` so that higher
  is always better (1 = parity).
* :func:`average_odds_difference` returns the signed mean of the FPR and TPR
  gaps; :func:`average_odds_star` reports ``1 - |AOD|`` (higher is better).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ValidationError
from repro.fairness.report import evaluate_predictions, require_both_groups
from repro.fairness.streaming import StreamCounts


@dataclass(frozen=True)
class GroupRates:
    """Per-group prediction rates for one evaluation.

    ``has_positives`` / ``has_negatives`` record whether the group contains
    any positive / negative ground-truth labels; TPR/FNR (resp. FPR) are
    undefined when it does not, and the between-group gap metrics treat an
    undefined rate as contributing no gap.
    """

    selection_rate: float
    tpr: float
    fpr: float
    fnr: float
    n_samples: int
    has_positives: bool = True
    has_negatives: bool = True


def group_rates(y_true, y_pred, group) -> Dict[str, GroupRates]:
    """Return per-group selection rate, TPR, FPR, and FNR.

    Keys are ``"majority"`` and ``"minority"``.
    """
    counts = StreamCounts.from_batch(y_pred, group, y_true)
    require_both_groups(counts)
    return {
        key: GroupRates(
            selection_rate=cells.selection_rate,
            tpr=cells.tpr,
            fpr=cells.fpr,
            fnr=cells.fnr,
            n_samples=cells.n,
            has_positives=cells.has_positives,
            has_negatives=cells.has_negatives,
        )
        for key, cells in zip(("majority", "minority"), counts.groups())
    }


def disparate_impact(y_true, y_pred, group) -> float:
    """Raw Disparate Impact ``SR_U / SR_W`` (∞ when the majority rate is 0)."""
    return evaluate_predictions(y_true, y_pred, group).di


def disparate_impact_star(y_true, y_pred, group) -> float:
    """Folded Disparate Impact ``min(DI, 1/DI)`` in ``[0, 1]`` — higher is fairer."""
    return evaluate_predictions(y_true, y_pred, group).di_star


def favors_minority(y_true, y_pred, group) -> bool:
    """True when the minority's selection rate exceeds the majority's.

    The paper marks such outcomes with striped bars: bias in favour of the
    minority, which can be acceptable in historically-disadvantaged settings.
    """
    return evaluate_predictions(y_true, y_pred, group).favors_minority


def average_odds_difference(y_true, y_pred, group) -> float:
    """Signed Average Odds Difference ``((FPR_U-FPR_W) + (TPR_U-TPR_W)) / 2``.

    A rate that is undefined for either group (no positives for TPR, no
    negatives for FPR) contributes a zero gap rather than a spurious maximal
    one.
    """
    return evaluate_predictions(y_true, y_pred, group).aod


def average_odds_star(y_true, y_pred, group) -> float:
    """Reported AOD ``1 - |AOD|`` in ``[0, 1]`` — higher is fairer."""
    return evaluate_predictions(y_true, y_pred, group).aod_star


def equalized_odds_difference(y_true, y_pred, group, *, rate: str = "fnr") -> float:
    """Absolute between-group gap in FNR or FPR (the Equalized-Odds components).

    Parameters
    ----------
    rate:
        ``"fnr"`` (paper's Equalized Odds by FNR) or ``"fpr"``.
    """
    if rate not in ("fnr", "fpr"):
        raise ValidationError("rate must be 'fnr' or 'fpr'")
    report = evaluate_predictions(y_true, y_pred, group)
    return report.eq_odds_fnr if rate == "fnr" else report.eq_odds_fpr


def statistical_parity_difference(y_true, y_pred, group) -> float:
    """Selection-rate gap ``SR_U - SR_W`` (signed)."""
    report = evaluate_predictions(y_true, y_pred, group)
    return float(report.selection_rate_minority - report.selection_rate_majority)
