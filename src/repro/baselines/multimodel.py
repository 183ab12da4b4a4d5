"""MultiModel: naive model splitting routed by group membership.

The paper's simple baseline: train one model per group and, at serving time,
pick the model matching the tuple's *declared* group membership.  Unlike
DiffFair this requires (and trusts) the sensitive attribute at deployment,
which is exactly the limitation DiffFair's conformance-based routing removes.
"""

from __future__ import annotations

from typing import Optional

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
from repro.utils.validation import check_array, check_binary_labels


class MultiModel(Intervention):
    """Group-membership-routed model splitting.

    Parameters
    ----------
    learner:
        Learner name or prototype instance; cloned per group.
    random_state:
        Seed passed to learners created from a registry name.
    """

    capabilities = InterventionCapabilities(routes=True, requires_group_at_predict=True)
    _state_attributes = ("model_majority_", "model_minority_", "n_features_")

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "MultiModel":
        """Train one model per group on that group's training rows."""
        if not np.any(train.group == 0) or not np.any(train.group == 1):
            raise ValidationError("MultiModel needs training tuples from both groups")
        majority = train.partition(group_value=0)
        minority = train.partition(group_value=1)
        self.model_majority_ = self._fit_one(majority)
        self.model_minority_ = self._fit_one(minority)
        self.n_features_ = train.n_features
        return self

    def _fit_one(self, group_data: Dataset) -> BaseClassifier:
        model = new_learner(self.learner, self.random_state)
        model.fit(group_data.X, group_data.y)
        return model

    def predict(self, X, group) -> np.ndarray:
        """Predict labels, routing each row by its declared group membership.

        Parameters
        ----------
        X:
            Feature matrix.
        group:
            Declared group membership per row (0 = majority, 1 = minority);
            required — this baseline cannot operate without it.
        """
        self._check_fitted("model_majority_")
        X = check_array(X, name="X")
        group = check_binary_labels(group, name="group")
        if group.shape[0] != X.shape[0]:
            raise ValidationError("X and group must have the same number of rows")
        predictions = np.empty(X.shape[0], dtype=np.int64)
        majority_rows = group == 0
        if majority_rows.any():
            predictions[majority_rows] = self.model_majority_.predict(X[majority_rows])
        if (~majority_rows).any():
            predictions[~majority_rows] = self.model_minority_.predict(X[~majority_rows])
        return predictions

    def predict_proba(self, X, group) -> np.ndarray:
        """Class probabilities, routed by declared group membership."""
        self._check_fitted("model_majority_")
        X = check_array(X, name="X")
        group = check_binary_labels(group, name="group")
        probabilities = np.empty((X.shape[0], 2), dtype=np.float64)
        majority_rows = group == 0
        if majority_rows.any():
            probabilities[majority_rows] = self.model_majority_.predict_proba(X[majority_rows])
        if (~majority_rows).any():
            probabilities[~majority_rows] = self.model_minority_.predict_proba(X[~majority_rows])
        return probabilities

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """Serve the fitted group models, routed by the declared group
        (refitted on ``split.train`` when ``learner``/``seed`` differ from the
        fit-time ones)."""
        self._check_fitted("model_majority_")
        return DeployedModel.from_predictor(
            self._refit_unless_same(split, learner, seed),
            requires_group=True,
            name=type(self).__name__,
        )
