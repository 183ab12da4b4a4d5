"""OMN: OmniFair-style, model-calibrated group reweighing.

OmniFair (Zhang et al., SIGMOD 2021) is a declarative system whose group-
fairness core assigns one weight delta per (group, label) cell and calibrates
those deltas against the *output of the model* trained on the current
weights, scaled by an intervention parameter λ.  This reimplements that core
behaviour, which is the facet the paper compares against:

* weights are **uniform within each (group, label) cell** (no intra-group
  variability — contrast with ConFair);
* the deltas are derived from the model's observed fairness gap, so the
  method is calibrated to a specific learner (and loses reliability when its
  weights are transferred to a different learner — Fig. 7);
* the λ → fairness relationship is not guaranteed to be monotonic, because
  every λ re-enters the model-in-the-loop calibration (Fig. 8/9).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.exceptions import ValidationError
from repro.fairness.metrics import disparate_impact_star, statistical_parity_difference
from repro.interventions.base import (
    DeployedModel,
    Intervention,
    InterventionCapabilities,
    new_learner,
)
from repro.learners.base import BaseClassifier
from repro.learners.metrics import balanced_accuracy_score

DEFAULT_LAM_GRID: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5)
"""Candidate λ values for OMN's automatic search (paper grid)."""


class OmniFairReweighing(Intervention):
    """The OMN reweighing baseline.

    Parameters
    ----------
    lam:
        Intervention degree λ.  ``None`` triggers a grid search on the
        validation split during :meth:`fit` (like the paper's experiments).
    learner:
        Learner name or prototype used for the model-in-the-loop calibration
        (and by :meth:`fit_learner` when no learner is supplied).
    n_calibration_rounds:
        Number of calibration iterations (retrain model, measure gap, adjust
        the cell deltas).
    lam_grid:
        Candidate λ values for the automatic search (default: the paper
        grid, :data:`DEFAULT_LAM_GRID`).
    fairness_target:
        ``"di"`` (selection-rate gap, default), ``"fnr"``, or ``"fpr"`` —
        which gap the calibration tries to close.
    random_state:
        Seed passed to learners created from a registry name.

    Attributes (after :meth:`fit`)
    ------------------------------
    weights_ :
        Per-tuple training weights under the resolved λ.
    lam_ :
        The resolved intervention degree.
    cell_deltas_ :
        The per-cell weight deltas after calibration.
    """

    capabilities = InterventionCapabilities(
        produces_weights=True,
        supports_calibration_transfer=True,
        degree_param="lam",
        requires_validation_for_tuning=True,
    )
    _state_attributes = ("weights_", "lam_", "cell_deltas_", "_train")

    def __init__(
        self,
        lam: Optional[float] = None,
        learner="lr",
        n_calibration_rounds: int = 3,
        lam_grid: Sequence[float] = DEFAULT_LAM_GRID,
        fairness_target: str = "di",
        random_state: Optional[int] = 0,
    ) -> None:
        if lam is not None and lam < 0:
            raise ValidationError("lam must be non-negative")
        if n_calibration_rounds < 1:
            raise ValidationError("n_calibration_rounds must be at least 1")
        if fairness_target not in ("di", "fnr", "fpr"):
            raise ValidationError("fairness_target must be 'di', 'fnr', or 'fpr'")
        self.lam = lam
        self.learner = learner
        self.n_calibration_rounds = n_calibration_rounds
        self.lam_grid = tuple(lam_grid)
        self.fairness_target = fairness_target
        self.random_state = random_state

    # ------------------------------------------------------------------ fit
    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "OmniFairReweighing":
        """Calibrate the cell deltas (and λ, when not supplied) on the data."""
        self._train = train
        if self.lam is not None:
            self.lam_ = float(self.lam)
        else:
            if validation is None:
                raise ValidationError(
                    "OmniFairReweighing needs a validation dataset to search λ; "
                    "either pass validation= to fit() or supply lam explicitly"
                )
            self.lam_ = self._search_lambda(train, validation)
        self.weights_, self.cell_deltas_ = self.compute_weights(train, self.lam_)
        return self

    def compute_weights(
        self, train: Optional[Dataset], lam: float
    ) -> Tuple[np.ndarray, Dict[Tuple[int, int], float]]:
        """Model-in-the-loop calibration of per-cell weights for a given λ.

        ``train=None`` reuses the training data the estimator was fitted on
        (the λ-sweep path), so callers never need to reach into internals.
        """
        if train is None:
            self._check_fitted("_train")
            train = self._train
        if lam < 0:
            raise ValidationError("lam must be non-negative")
        weights = np.ones(train.n_samples, dtype=np.float64)
        deltas: Dict[Tuple[int, int], float] = {(g, y): 0.0 for g in (0, 1) for y in (0, 1)}
        if lam == 0.0:
            return weights, deltas

        for _ in range(self.n_calibration_rounds):
            model = new_learner(self.learner, self.random_state)
            model.fit(train.X, train.y, sample_weight=weights)
            predictions = model.predict(train.X)
            gap = self._gap(train.y, predictions, train.group)
            if abs(gap) < 1e-3:
                break
            # A negative gap means the minority is under-selected: boost the
            # whole minority-positive cell and the majority-negative cell by
            # λ·|gap|, uniformly (OmniFair has no intra-group variability).
            adjustment = lam * abs(gap)
            if gap < 0:
                boosted_cells = ((1, 1), (0, 0))
            else:
                boosted_cells = ((1, 0), (0, 1))
            for cell in boosted_cells:
                deltas[cell] += adjustment
            weights = np.ones(train.n_samples, dtype=np.float64)
            for (group_value, label), delta in deltas.items():
                mask = (train.group == group_value) & (train.y == label)
                weights[mask] += delta
        return weights, deltas

    def fit_learner(self, learner: Optional[BaseClassifier] = None) -> BaseClassifier:
        """Train a learner on the training data using the OMN weights."""
        self._check_fitted("weights_")
        model = new_learner(self.learner, self.random_state) if learner is None else learner
        model.fit(self._train.X, self._train.y, sample_weight=self.weights_)
        return model

    # ------------------------------------------------------------- protocol
    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """The final learner trained on ``split.train`` with :attr:`weights_`."""
        return self._weighted_model(split, learner, seed)

    def details(self) -> Dict[str, object]:
        self._check_fitted("weights_")
        return {"lambda": self.lam_}

    def weights_for_degree(self, degree: float) -> np.ndarray:
        """Weights at ``λ = degree`` (re-runs the model-in-the-loop calibration)."""
        return self.compute_weights(None, float(degree))[0]

    # ------------------------------------------------------------ internals
    def _gap(self, y_true, y_pred, group) -> float:
        """Signed fairness gap (minority minus majority) for the target metric."""
        from repro.fairness.metrics import group_rates

        if self.fairness_target == "di":
            return statistical_parity_difference(y_true, y_pred, group)
        rates = group_rates(y_true, y_pred, group)
        if self.fairness_target == "fnr":
            # A higher minority FNR means the minority is under-served.
            return -(rates["minority"].fnr - rates["majority"].fnr)
        return -(rates["minority"].fpr - rates["majority"].fpr)

    def _search_lambda(self, train: Dataset, validation: Dataset) -> float:
        """Grid-search λ by validation Disparate Impact (ties: balanced accuracy)."""
        best_lambda = 0.0
        best_key = (-np.inf, -np.inf)
        for lam in self.lam_grid:
            weights, _ = self.compute_weights(train, lam)
            model = new_learner(self.learner, self.random_state)
            model.fit(train.X, train.y, sample_weight=weights)
            predictions = model.predict(validation.X)
            fairness = disparate_impact_star(validation.y, predictions, validation.group)
            utility = balanced_accuracy_score(validation.y, predictions)
            key = (fairness, utility)
            if key > best_key:
                best_key = key
                best_lambda = float(lam)
        return best_lambda
