"""Automatic tuning of the ConFair intervention degree.

The paper searches for the optimal ``alpha_u`` on the validation partition
(with ``alpha_w = alpha_u / 2``), implicitly optimizing Disparate Impact.
:func:`tune_intervention_degree` reproduces that search for any weight-
producing intervention: it trains the learner under each candidate degree's
weights and picks the degree whose validation fairness is best, breaking ties
toward higher balanced accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.table import Dataset
from repro.exceptions import ValidationError
from repro.fairness.report import FairnessReport, evaluate_predictions
from repro.learners.base import BaseClassifier, clone
from repro.utils.parallel import thread_map


@dataclass(frozen=True)
class TuningTrial:
    """One candidate intervention degree and its validation outcome."""

    degree: float
    fairness: float
    balanced_accuracy: float


@dataclass(frozen=True)
class InterventionTuningResult:
    """Outcome of the intervention-degree search."""

    best_degree: float
    best_fairness: float
    best_balanced_accuracy: float
    trials: Tuple[TuningTrial, ...] = field(default_factory=tuple)


def _fairness_score(report: FairnessReport, fairness_target: str) -> float:
    """Higher-is-better fairness score for the requested target metric."""
    if fairness_target == "di":
        return report.di_star
    if fairness_target == "fnr":
        return 1.0 - report.eq_odds_fnr
    if fairness_target == "fpr":
        return 1.0 - report.eq_odds_fpr
    raise ValidationError("fairness_target must be 'di', 'fnr', or 'fpr'")


def tune_intervention_degree(
    *,
    weight_fn: Callable[[float], np.ndarray],
    train: Dataset,
    validation: Dataset,
    learner: BaseClassifier,
    candidate_degrees: Sequence[float],
    fairness_target: str = "di",
    utility_floor: float = 0.5,
    n_jobs: Optional[int] = None,
) -> InterventionTuningResult:
    """Search the intervention degree maximizing validation fairness.

    Parameters
    ----------
    weight_fn:
        Maps a candidate degree to per-tuple training weights.
    train, validation:
        The training and validation partitions.
    learner:
        Prototype classifier; cloned and refit for every candidate.
    candidate_degrees:
        The degrees to evaluate (must be non-empty).
    fairness_target:
        ``"di"``, ``"fnr"``, or ``"fpr"`` — which metric the search optimizes.
    utility_floor:
        Candidates whose validation balanced accuracy falls below this floor
        (degenerate, single-class models) are only chosen if *every*
        candidate is degenerate.
    n_jobs:
        Candidate retrains to run concurrently (``None``/1 = serial,
        ``-1`` = all cores).  Each trial clones the prototype learner and
        works on its own copies, so the parallel search returns trials — and
        a winner — bit-identical to the serial loop.

    Returns
    -------
    InterventionTuningResult
        The winning degree plus the full trial history.
    """
    degrees = [float(d) for d in candidate_degrees]
    if not degrees:
        raise ValidationError("candidate_degrees must not be empty")
    if any(d < 0 for d in degrees):
        raise ValidationError("candidate intervention degrees must be non-negative")

    def evaluate(degree: float) -> TuningTrial:
        weights = np.asarray(weight_fn(degree), dtype=np.float64)
        if weights.shape[0] != train.n_samples:
            raise ValidationError(
                "weight_fn returned weights of length "
                f"{weights.shape[0]}, expected {train.n_samples}"
            )
        model = clone(learner)
        model.fit(train.X, train.y, sample_weight=weights)
        # One report carries both the fairness score and the utility.
        report = evaluate_predictions(validation.y, model.predict(validation.X), validation.group)
        return TuningTrial(
            degree=degree,
            fairness=_fairness_score(report, fairness_target),
            balanced_accuracy=report.balanced_accuracy,
        )

    trials: List[TuningTrial] = thread_map(evaluate, degrees, n_jobs=n_jobs)

    usable = [t for t in trials if t.balanced_accuracy > utility_floor]
    pool = usable if usable else trials
    best = max(pool, key=lambda t: (t.fairness, t.balanced_accuracy))
    return InterventionTuningResult(
        best_degree=best.degree,
        best_fairness=best.fairness,
        best_balanced_accuracy=best.balanced_accuracy,
        trials=tuple(trials),
    )
