"""KAM: Kamiran & Calders (2011) frequency-based reweighing.

Every tuple in (group ``g``, label ``y``) receives the weight
``P(G = g) * P(Y = y) / P(G = g, Y = y)`` — the ratio between the expected
and the observed frequency of its cell under independence of group and label.
All tuples in the same cell get the *same* weight, which is precisely the
behaviour ConFair improves on by differentiating tuples through conformance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.exceptions import ValidationError
from repro.interventions.base import (
    DeployedModel,
    Intervention,
    InterventionCapabilities,
    new_learner,
)
from repro.learners.base import BaseClassifier


class KamiranReweighing(Intervention):
    """The KAM reweighing baseline.

    Parameters
    ----------
    learner:
        Learner name or prototype used by :meth:`fit_learner`.
    random_state:
        Seed passed to learners created from a registry name.

    Attributes (after :meth:`fit`)
    ------------------------------
    weights_ :
        Per-tuple training weights.
    cell_weights_ :
        The weight assigned to each (group, label) cell.
    """

    capabilities = InterventionCapabilities(produces_weights=True)
    _state_attributes = ("weights_", "cell_weights_", "_train")

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "KamiranReweighing":
        """Compute the independence-restoring cell weights on the training data."""
        n_total = train.n_samples
        weights = np.ones(n_total, dtype=np.float64)
        cell_weights: Dict[Tuple[int, int], float] = {}
        for group_value in (0, 1):
            group_mask = train.group == group_value
            p_group = float(group_mask.sum()) / n_total
            for label in (0, 1):
                label_mask = train.y == label
                p_label = float(label_mask.sum()) / n_total
                cell_mask = group_mask & label_mask
                observed = float(cell_mask.sum()) / n_total
                if cell_mask.sum() == 0:
                    continue
                if observed == 0.0:
                    cell_weight = 1.0
                else:
                    cell_weight = (p_group * p_label) / observed
                cell_weights[(group_value, label)] = cell_weight
                weights[cell_mask] = cell_weight
        if not cell_weights:
            raise ValidationError("Training data has no populated (group, label) cells")
        self.weights_ = weights
        self.cell_weights_ = cell_weights
        self._train = train
        return self

    def fit_learner(self, learner: Optional[BaseClassifier] = None) -> BaseClassifier:
        """Train a learner on the training data using the KAM weights."""
        self._check_fitted("weights_")
        model = new_learner(self.learner, self.random_state) if learner is None else learner
        model.fit(self._train.X, self._train.y, sample_weight=self.weights_)
        return model

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """The final learner trained on ``split.train`` with :attr:`weights_`."""
        return self._weighted_model(split, learner, seed)
