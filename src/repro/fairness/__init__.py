"""Group-fairness metrics and reporting.

The paper evaluates fairness with Disparate Impact (reported as
``DI* = min(DI, 1/DI)``) and Average Odds Difference (reported as
``AOD* = 1 - |AOD|``), plus Balanced Accuracy for utility.  This subpackage
provides those metrics, the per-group rate primitives (selection rate, TPR,
FPR, FNR), an Equalized-Odds view, and a :class:`FairnessReport` bundling all
of them for one (dataset, model) evaluation.

There is one way to compute them: :class:`StreamCounts` counts a batch's
per-group outcomes, and :func:`report_from_counts` turns counts into a
:class:`FairnessReport`.  :func:`evaluate_predictions` is the one-batch
case, every metric function returns a field of its report, and the serving
monitor reports over the counts summed across its window.
"""

from repro.fairness.groups import GroupMapping, group_from_column, group_from_threshold
from repro.fairness.metrics import (
    average_odds_difference,
    average_odds_star,
    disparate_impact,
    disparate_impact_star,
    equalized_odds_difference,
    group_rates,
)
from repro.fairness.report import FairnessReport, evaluate_predictions, report_from_counts
from repro.fairness.streaming import StreamCounts

__all__ = [
    "FairnessReport",
    "GroupMapping",
    "StreamCounts",
    "average_odds_difference",
    "average_odds_star",
    "disparate_impact",
    "disparate_impact_star",
    "equalized_odds_difference",
    "evaluate_predictions",
    "group_from_column",
    "group_from_threshold",
    "group_rates",
    "report_from_counts",
]
