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
from repro.fairness.streaming import GroupCounts, StreamCounts, fold_disparate_impact


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
    FPR) contributes no gap rather than a spurious maximal one.  The counts
    are read once, as Python ints (:meth:`StreamCounts.groups`).
    """
    require_both_groups(counts)
    majority, minority = counts.groups()
    n_samples = majority.n + minority.n
    pooled = GroupCounts(*(w + u for w, u in zip(majority, minority)))
    labelled = pooled.tp + pooled.fp + pooled.fn + pooled.tn
    if labelled != n_samples:
        raise ValidationError(
            "A full FairnessReport needs ground-truth labels for every row in the "
            f"window ({labelled} labelled of {n_samples}); "
            "use FairnessMonitor.windowed_summary() for unlabelled traffic"
        )

    sr_minority = minority.selection_rate
    sr_majority = majority.selection_rate
    di, di_star = fold_disparate_impact(sr_minority, sr_majority)

    both_negatives = majority.has_negatives and minority.has_negatives
    both_positives = majority.has_positives and minority.has_positives
    fpr_gap = (minority.fpr - majority.fpr) if both_negatives else 0.0
    tpr_gap = (minority.tpr - majority.tpr) if both_positives else 0.0
    aod = (fpr_gap + tpr_gap) / 2.0

    # Balanced accuracy and accuracy pool both groups.
    tnr_all = pooled.tn / (pooled.fp + pooled.tn) if pooled.has_negatives else 0.0
    return FairnessReport(
        di=di,
        di_star=di_star,
        aod=aod,
        aod_star=1.0 - abs(aod),
        balanced_accuracy=(pooled.tpr + tnr_all) / 2.0,
        accuracy=(pooled.tp + pooled.tn) / n_samples,
        eq_odds_fnr=abs(minority.fnr - majority.fnr) if both_positives else 0.0,
        eq_odds_fpr=abs(minority.fpr - majority.fpr) if both_negatives else 0.0,
        selection_rate_minority=sr_minority,
        selection_rate_majority=sr_majority,
        favors_minority=di > 1.0,
        degenerate=pooled.selected == 0 or pooled.selected == n_samples,
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
