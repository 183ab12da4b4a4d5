"""Bundled fairness + utility evaluation of a set of predictions.

Every number of a :class:`FairnessReport` is a ratio of the per-group counts
one :class:`~repro.fairness.streaming.StreamCounts` holds, so there is one
way to compute a report: :func:`report_from_counts`.  The offline
:func:`evaluate_predictions` is its one-batch case, and the serving monitor
calls it on the counts summed over its sliding window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from repro.exceptions import ValidationError
from repro.fairness.streaming import StreamCounts, fold_disparate_impact


@dataclass(frozen=True)
class FairnessReport:
    """All metrics the paper reports for one (dataset, model) evaluation.

    ``di_star`` and ``aod_star`` follow the paper's reporting convention
    (higher is better, 1 is parity); ``balanced_accuracy`` is the utility
    metric.  ``degenerate`` flags models that predict a single class —
    the paper marks those with crisscross bars as "useless predictions".
    """

    di: float
    di_star: float
    aod: float
    aod_star: float
    balanced_accuracy: float
    accuracy: float
    eq_odds_fnr: float
    eq_odds_fpr: float
    selection_rate_minority: float
    selection_rate_majority: float
    favors_minority: bool
    degenerate: bool

    def to_dict(self) -> Dict[str, object]:
        """Return the report as a plain dictionary (for tables and JSON)."""
        return asdict(self)


def require_both_groups(counts: StreamCounts) -> None:
    """Reject counts that lack rows, or the rows of either group.

    Every metric compares the minority (1) with the majority (0), so each
    needs both; :func:`report_from_counts` and
    :func:`~repro.fairness.metrics.group_rates` check this first.
    """
    if counts.n_samples == 0:
        raise ValidationError("Fairness metrics need at least one sample")
    if counts.group_n(0) == 0 or counts.group_n(1) == 0:
        raise ValidationError("Both the majority (0) and the minority (1) group must be present")


def report_from_counts(counts: StreamCounts) -> FairnessReport:
    """Build the :class:`FairnessReport` of the rows behind ``counts``.

    A rate whose base is empty is 0.0, and a between-group gap whose rate is
    undefined for either group (no positives for TPR/FNR, no negatives for
    FPR) contributes no gap rather than a spurious maximal one.
    """
    require_both_groups(counts)
    labelled = counts.n_labelled
    if labelled != counts.n_samples:
        raise ValidationError(
            "A full FairnessReport needs ground-truth labels for every row in the "
            f"window ({labelled} labelled of {counts.n_samples}); "
            "use FairnessMonitor.windowed_summary() for unlabelled traffic"
        )

    sr_minority = counts.selection_rate(1)
    sr_majority = counts.selection_rate(0)
    di, di_star = fold_disparate_impact(sr_minority, sr_majority)

    both_negatives = counts.has_negatives(0) and counts.has_negatives(1)
    both_positives = counts.has_positives(0) and counts.has_positives(1)
    fpr_gap = (counts.fpr(1) - counts.fpr(0)) if both_negatives else 0.0
    tpr_gap = (counts.tpr(1) - counts.tpr(0)) if both_positives else 0.0
    aod = float((fpr_gap + tpr_gap) / 2.0)

    # Balanced accuracy and accuracy pool both groups.
    tp, fp, fn, tn = counts.confusion()
    positives = tp + fn
    negatives = fp + tn
    tpr_all = float(tp / positives) if positives else 0.0
    tnr_all = float(tn / negatives) if negatives else 0.0

    n_selected = counts.n_selected
    return FairnessReport(
        di=di,
        di_star=di_star,
        aod=aod,
        aod_star=float(1.0 - abs(aod)),
        balanced_accuracy=(tpr_all + tnr_all) / 2.0,
        accuracy=float((tp + tn) / counts.n_samples),
        eq_odds_fnr=float(abs(counts.fnr(1) - counts.fnr(0))) if both_positives else 0.0,
        eq_odds_fpr=float(abs(counts.fpr(1) - counts.fpr(0))) if both_negatives else 0.0,
        selection_rate_minority=sr_minority,
        selection_rate_majority=sr_majority,
        favors_minority=bool(di > 1.0),
        degenerate=bool(n_selected == 0 or n_selected == counts.n_samples),
    )


def evaluate_predictions(y_true, y_pred, group) -> FairnessReport:
    """Compute a :class:`FairnessReport` for binary predictions.

    Parameters
    ----------
    y_true:
        Ground-truth binary labels.
    y_pred:
        Model predictions (binary).
    group:
        Group membership (0 = majority, 1 = minority).

    Raises :class:`~repro.exceptions.ValidationError` on a non-binary value
    in any of the three arrays, on arrays of different lengths, and when
    either group has no rows.
    """
    return report_from_counts(StreamCounts.from_batch(y_pred, group, y_true))
