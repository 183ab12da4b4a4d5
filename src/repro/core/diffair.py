"""DiffFair (Algorithm 1): group-dependent models routed by conformance.

DiffFair trains one model per group on that group's training data, derives
conformance constraints per (group, label) partition, and — crucially —
serves each deployment tuple with the model whose constraints it violates the
least, *without consulting group membership at serving time*.  This makes the
deployment robust to missing or wrong demographic attributes and lets
individuals who conform better to the other group's pattern be served by that
group's (better-fitting) model.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.partitions import profile_partitions
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
from repro.profiling.discovery import DiscoveryConfig
from repro.utils.parallel import thread_map
from repro.utils.validation import check_array


class DiffFair(Intervention):
    """The DiffFair model-splitting intervention.

    Parameters
    ----------
    learner:
        Learner name (``"lr"``, ``"xgb"``) or prototype instance; cloned for
        each group-dependent model.
    use_density_filter:
        Apply Algorithm 3 before constraint derivation.
    density_fraction:
        Fraction of densest tuples kept by the filter (paper: 0.2).
    discovery_config:
        Conformance-constraint discovery hyper-parameters.
    random_state:
        Seed passed to learners created from a registry name.
    n_jobs:
        Worker threads for partition profiling and the two group-model fits
        during :meth:`fit` (``None``/``1`` serial, ``-1`` one per CPU).  The
        parallel profile is assembled in deterministic partition order and
        each group model trains on its own data with its own seed, so the
        fitted state is bit-identical to a serial fit.

    Attributes (after :meth:`fit`)
    ------------------------------
    model_majority_, model_minority_ :
        The two fitted group-dependent models (``f_w`` and ``f_u``).
    profile_ : PartitionProfile
        Constraint sets per (group, label) partition of the training data.
    """

    capabilities = InterventionCapabilities(routes=True)
    _state_attributes = (
        "model_majority_",
        "model_minority_",
        "profile_",
        "n_features_",
        "n_numeric_features_",
        "_validation_scores",
    )

    def __init__(
        self,
        learner="lr",
        use_density_filter: bool = True,
        density_fraction: float = 0.2,
        discovery_config: Optional[DiscoveryConfig] = None,
        random_state: Optional[int] = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        self.learner = learner
        self.use_density_filter = use_density_filter
        self.density_fraction = density_fraction
        self.discovery_config = discovery_config
        self.random_state = random_state
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------ fit
    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "DiffFair":
        """Train the group-dependent models and derive routing constraints.

        ``validation`` is accepted for API symmetry with the other
        interventions (the paper validates each group model on its group's
        validation partition); it is not required for routing.
        """
        if not np.any(train.group == 0) or not np.any(train.group == 1):
            raise ValidationError("DiffFair needs training tuples from both groups")

        self.profile_ = profile_partitions(
            train,
            discovery_config=self.discovery_config,
            use_density_filter=self.use_density_filter,
            density_fraction=self.density_fraction,
            n_jobs=self.n_jobs,
        )

        majority = train.partition(group_value=0)
        minority = train.partition(group_value=1)
        self.model_majority_, self.model_minority_ = thread_map(
            self._fit_group_model, [majority, minority], n_jobs=self.n_jobs
        )
        self.n_features_ = train.n_features
        self.n_numeric_features_ = train.n_numeric_features
        self._validation_scores: Dict[str, float] = {}
        if validation is not None:
            self._validation_scores = self._validate(validation)
        return self

    def _fit_group_model(self, group_data: Dataset) -> BaseClassifier:
        model = new_learner(self.learner, self.random_state)
        model.fit(group_data.X, group_data.y)
        return model

    def _validate(self, validation: Dataset) -> Dict[str, float]:
        """Per-group validation accuracy of the two models (diagnostics only)."""
        scores: Dict[str, float] = {}
        for name, model, group_value in (
            ("majority", self.model_majority_, 0),
            ("minority", self.model_minority_, 1),
        ):
            mask = validation.group == group_value
            if mask.any():
                scores[name] = float(model.score(validation.X[mask], validation.y[mask]))
        return scores

    # -------------------------------------------------------------- routing
    def routing_scores(self, X) -> np.ndarray:
        """Return the (majority, minority) violation scores per row.

        ``scores[i, 0]`` is the row's minimum violation against the majority
        partitions, ``scores[i, 1]`` against the minority partitions
        (:meth:`~repro.core.partitions.PartitionProfile.group_violations`;
        ``+inf`` for a group with no profiled partition, so :meth:`route`
        sends every row to the other group's model).
        """
        self._check_fitted("model_majority_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, DiffFair was fitted with {self.n_features_}"
            )
        return self.profile_.group_violations(X[:, : self.n_numeric_features_])

    def route(self, X) -> np.ndarray:
        """Return 0/1 per row: which group's model serves the tuple.

        Ties (equal violation) go to the majority model, matching the strict
        ``<`` comparison in Algorithm 1's PREDICT procedure.
        """
        scores = self.routing_scores(X)
        return (scores[:, 1] < scores[:, 0]).astype(np.int64)

    # ------------------------------------------------------------- predict
    def predict(self, X) -> np.ndarray:
        """Predict labels, serving each tuple with its best-conforming model."""
        routes = self.route(X)
        # route() validated X (finite, fitted width); only convert it here.
        X = check_array(X, name="X", force_finite=False)
        predictions = np.empty(X.shape[0], dtype=np.int64)
        majority_rows = routes == 0
        if majority_rows.any():
            predictions[majority_rows] = self.model_majority_.predict(X[majority_rows])
        if (~majority_rows).any():
            predictions[~majority_rows] = self.model_minority_.predict(X[~majority_rows])
        return predictions

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities from the routed models, shape ``(n_samples, 2)``."""
        routes = self.route(X)
        X = check_array(X, name="X", force_finite=False)
        probabilities = np.empty((X.shape[0], 2), dtype=np.float64)
        majority_rows = routes == 0
        if majority_rows.any():
            probabilities[majority_rows] = self.model_majority_.predict_proba(X[majority_rows])
        if (~majority_rows).any():
            probabilities[~majority_rows] = self.model_minority_.predict_proba(X[~majority_rows])
        return probabilities

    # ------------------------------------------------------------- protocol
    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """Serve with the fitted group models (refitted on ``split.train`` when
        ``learner``/``seed`` differ from the fit-time ones)."""
        self._check_fitted("model_majority_")
        estimator = self._refit_unless_same(split, learner, seed)
        routes = estimator.route(split.deploy.X)
        return DeployedModel.from_predictor(
            estimator,
            details={"minority_model_fraction": float(np.mean(routes == 1))},
            name=type(self).__name__,
        )

    @property
    def validation_scores_(self) -> Dict[str, float]:
        """Per-group validation accuracy recorded during :meth:`fit` (may be empty)."""
        self._check_fitted("model_majority_")
        return dict(self._validation_scores)
