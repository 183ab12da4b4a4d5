"""The no-intervention baseline: train the learner on the raw training data."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.interventions.base import (
    DeployedModel,
    Intervention,
    InterventionCapabilities,
    new_learner,
)


class NoIntervention(Intervention):
    """Train a single model on unweighted data (the paper's reference point).

    Parameters
    ----------
    learner:
        Learner name or prototype instance.
    random_state:
        Seed passed to learners created from a registry name.
    """

    capabilities = InterventionCapabilities()
    _state_attributes = ("model_",)

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "NoIntervention":
        """Fit the underlying learner; ``validation`` is accepted for API symmetry."""
        model = new_learner(self.learner, self.random_state)
        model.fit(train.X, train.y)
        self.model_ = model
        return self

    def predict(self, X) -> np.ndarray:
        """Predict with the fitted learner."""
        self._check_fitted("model_")
        return self.model_.predict(X)

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities from the fitted learner."""
        self._check_fitted("model_")
        return self.model_.predict_proba(X)

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """Serve the fitted learner itself (refitted on ``split.train`` when
        ``learner``/``seed`` differ from the fit-time ones)."""
        self._check_fitted("model_")
        estimator = self._refit_unless_same(split, learner, seed)
        return DeployedModel.from_predictor(estimator.model_, name=type(self).__name__)
