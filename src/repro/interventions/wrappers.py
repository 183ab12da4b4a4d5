"""Every method of the paper, adapted to the :class:`Intervention` protocol.

The wrappers own the *experiment-facing* surface: they expose uniform
``fit``/``make_model``/``details`` regardless of family, declare their
capabilities, and register themselves under the method identifiers the
paper's figures use.  The underlying estimators in :mod:`repro.core` and
:mod:`repro.baselines` stay the implementation layer and remain directly
usable.

Registration order matters: it defines the canonical order of
:func:`~repro.interventions.available_interventions` (``none``,
``multimodel``, ``diffair``, ``diffair0``, ``confair``, ``confair0``,
``kam``, ``omn``, ``cap``), matching the paper's figures.  The ``*0`` names are the Fig. 13 ablation variants that share their
class with the full method but preset ``use_density_filter=False``.

Defaults note: where a wrapper exposes a search grid (``tuning_grid``,
``lam_grid``) its default is the *experiment* grid the paper's evaluation
uses, which is coarser than the exhaustive defaults of the underlying
estimators.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines.capuchin import CapuchinRepair
from repro.baselines.kamiran import KamiranReweighing
from repro.baselines.multimodel import MultiModel
from repro.baselines.omnifair import OmniFairReweighing
from repro.core.confair import ConFair
from repro.core.diffair import DiffFair
from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.interventions.base import DeployedModel, Intervention, InterventionCapabilities
from repro.interventions.registry import register_intervention
from repro.profiling.discovery import DiscoveryConfig

DEFAULT_TUNING_GRID: Tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
"""Candidate ``alpha_u`` values for ConFair's automatic search (paper grid)."""

DEFAULT_LAM_GRID: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5)
"""Candidate λ values for OMN's automatic search (paper grid)."""


class _WeightedTrainingMixin:
    """Shared ``make_model`` for interventions that produce per-tuple weights."""

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        self._check_fitted("estimator_")
        model = self._final_learner(learner, seed)
        model.fit(split.train.X, split.train.y, sample_weight=self.weights_)
        return DeployedModel.from_predictor(model, name=type(self).__name__)

    @property
    def weights_(self) -> np.ndarray:
        """Per-tuple training weights resolved during :meth:`fit`."""
        self._check_fitted("estimator_")
        return self.estimator_.weights_


@register_intervention("none", summary="train the learner on the raw data (reference point)")
class IdentityIntervention(Intervention):
    """No intervention: the final learner is trained on the unweighted data."""

    capabilities = InterventionCapabilities()
    _state_attributes = ("fitted_",)

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "IdentityIntervention":
        # Nothing to learn before make_model; only mark the fitted state
        # (holding the dataset here would pin it for the artifact's lifetime).
        self.fitted_ = True
        return self

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        self._check_fitted("fitted_")
        model = self._final_learner(learner, seed)
        model.fit(split.train.X, split.train.y)
        return DeployedModel.from_predictor(model, name="IdentityIntervention")


@register_intervention(
    "multimodel", summary="one model per group, routed by the declared group attribute"
)
class MultiModelIntervention(Intervention):
    """Naive model splitting: serving requires (and trusts) group membership."""

    capabilities = InterventionCapabilities(routes=True, requires_group_at_predict=True)
    _state_attributes = ("estimator_",)

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "MultiModelIntervention":
        self.estimator_ = MultiModel(learner=self.learner, random_state=self.random_state).fit(
            train, validation
        )
        return self

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        self._check_fitted("estimator_")
        estimator = self.estimator_
        if not _same_final_model(self, learner, seed):
            estimator = MultiModel(
                learner=self.learner if learner is None else learner,
                random_state=self.random_state if seed is None else seed,
            ).fit(split.train)
        return DeployedModel.from_predictor(
            estimator, requires_group=True, name="MultiModelIntervention"
        )


@register_intervention(
    "diffair0",
    defaults={"use_density_filter": False},
    summary="DiffFair without the density-based CC optimization (Fig. 13 ablation)",
)
@register_intervention("diffair", summary="group-dependent models routed by conformance")
class DiffFairIntervention(Intervention):
    """DiffFair: model splitting with conformance-based, group-blind routing."""

    capabilities = InterventionCapabilities(routes=True)
    _state_attributes = ("estimator_",)

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

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "DiffFairIntervention":
        self.estimator_ = DiffFair(
            learner=self.learner,
            use_density_filter=self.use_density_filter,
            density_fraction=self.density_fraction,
            discovery_config=self.discovery_config,
            random_state=self.random_state,
            n_jobs=self.n_jobs,
        ).fit(train, validation=validation)
        return self

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        self._check_fitted("estimator_")
        estimator = self.estimator_
        if not _same_final_model(self, learner, seed):
            estimator = DiffFair(
                learner=self.learner if learner is None else learner,
                use_density_filter=self.use_density_filter,
                density_fraction=self.density_fraction,
                discovery_config=self.discovery_config,
                random_state=self.random_state if seed is None else seed,
            ).fit(split.train)
        routes = estimator.route(split.deploy.X)
        return DeployedModel.from_predictor(
            estimator,
            details={"minority_model_fraction": float(np.mean(routes == 1))},
            name="DiffFairIntervention",
        )

    # Routing inspection, delegated for serving diagnostics.
    @property
    def profile_(self):
        """The conformance-constraint profile learned per (group, label) partition."""
        self._check_fitted("estimator_")
        return self.estimator_.profile_

    def route(self, X) -> np.ndarray:
        """0/1 per row: which group's model serves the tuple."""
        self._check_fitted("estimator_")
        return self.estimator_.route(X)

    def routing_scores(self, X) -> np.ndarray:
        """(majority, minority) conformance-violation scores per row."""
        self._check_fitted("estimator_")
        return self.estimator_.routing_scores(X)


@register_intervention(
    "confair0",
    defaults={"use_density_filter": False},
    summary="ConFair without the density-based CC optimization (Fig. 13 ablation)",
)
@register_intervention("confair", summary="conformance-driven reweighing (the paper's headline)")
class ConFairIntervention(_WeightedTrainingMixin, Intervention):
    """ConFair: non-invasive reweighing of conforming tuples."""

    capabilities = InterventionCapabilities(
        produces_weights=True,
        supports_calibration_transfer=True,
        degree_param="alpha_u",
        requires_validation_for_tuning=True,
    )
    _state_attributes = ("estimator_",)

    def __init__(
        self,
        alpha_u: Optional[float] = None,
        alpha_w: Optional[float] = None,
        fairness_target: str = "di",
        use_density_filter: bool = True,
        density_fraction: float = 0.2,
        discovery_config: Optional[DiscoveryConfig] = None,
        conformance_tol: float = 1e-9,
        learner="lr",
        tuning_grid: Tuple[float, ...] = DEFAULT_TUNING_GRID,
        random_state: Optional[int] = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        self.alpha_u = alpha_u
        self.alpha_w = alpha_w
        self.fairness_target = fairness_target
        self.use_density_filter = use_density_filter
        self.density_fraction = density_fraction
        self.discovery_config = discovery_config
        self.conformance_tol = conformance_tol
        self.learner = learner
        self.tuning_grid = tuning_grid
        self.random_state = random_state
        self.n_jobs = n_jobs

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "ConFairIntervention":
        self.estimator_ = ConFair(
            alpha_u=self.alpha_u,
            alpha_w=self.alpha_w,
            fairness_target=self.fairness_target,
            use_density_filter=self.use_density_filter,
            density_fraction=self.density_fraction,
            discovery_config=self.discovery_config,
            conformance_tol=self.conformance_tol,
            learner=self.learner,
            tuning_grid=self.tuning_grid,
            random_state=self.random_state,
            n_jobs=self.n_jobs,
        ).fit(train, validation=validation)
        return self

    def details(self) -> Dict[str, object]:
        self._check_fitted("estimator_")
        return {"alpha_u": self.estimator_.alpha_u_, "alpha_w": self.estimator_.alpha_w_}

    def weights_for_degree(self, degree: float) -> np.ndarray:
        """Weights at ``alpha_u = degree`` without re-profiling (Figs. 8/9).

        ``alpha_w`` follows the constructor setting (``None`` keeps the
        paper's ``alpha_u / 2`` policy).
        """
        self._check_fitted("estimator_")
        return self.estimator_.compute_weights(alpha_u=float(degree), alpha_w=self.alpha_w).weights


@register_intervention("kam", summary="Kamiran & Calders frequency-based reweighing")
class KamiranIntervention(_WeightedTrainingMixin, Intervention):
    """KAM: uniform weights per (group, label) cell restoring independence."""

    capabilities = InterventionCapabilities(produces_weights=True)
    _state_attributes = ("estimator_",)

    def __init__(self, learner="lr", random_state: Optional[int] = 0) -> None:
        self.learner = learner
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "KamiranIntervention":
        self.estimator_ = KamiranReweighing(
            learner=self.learner, random_state=self.random_state
        ).fit(train, validation)
        return self


@register_intervention("omn", summary="OmniFair-style model-calibrated group reweighing")
class OmniFairIntervention(_WeightedTrainingMixin, Intervention):
    """OMN: per-cell weight deltas calibrated against the model in the loop."""

    capabilities = InterventionCapabilities(
        produces_weights=True,
        supports_calibration_transfer=True,
        degree_param="lam",
        requires_validation_for_tuning=True,
    )
    _state_attributes = ("estimator_",)

    def __init__(
        self,
        lam: Optional[float] = None,
        learner="lr",
        n_calibration_rounds: int = 3,
        lam_grid: Tuple[float, ...] = DEFAULT_LAM_GRID,
        fairness_target: str = "di",
        random_state: Optional[int] = 0,
    ) -> None:
        self.lam = lam
        self.learner = learner
        self.n_calibration_rounds = n_calibration_rounds
        self.lam_grid = lam_grid
        self.fairness_target = fairness_target
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "OmniFairIntervention":
        self.estimator_ = OmniFairReweighing(
            lam=self.lam,
            learner=self.learner,
            n_calibration_rounds=self.n_calibration_rounds,
            lam_grid=self.lam_grid,
            fairness_target=self.fairness_target,
            random_state=self.random_state,
        ).fit(train, validation)
        return self

    def details(self) -> Dict[str, object]:
        self._check_fitted("estimator_")
        return {"lambda": self.estimator_.lam_}

    def weights_for_degree(self, degree: float) -> np.ndarray:
        """Weights at ``λ = degree`` (re-runs the model-in-the-loop calibration)."""
        self._check_fitted("estimator_")
        return self.estimator_.compute_weights(None, float(degree))[0]


@register_intervention("cap", summary="Capuchin-style invasive data repair")
class CapuchinIntervention(Intervention):
    """CAP: resample the training data toward group/label independence."""

    capabilities = InterventionCapabilities(repairs_data=True)
    _state_attributes = ("estimator_",)

    def __init__(
        self,
        learner="xgb",
        repair_strength: float = 1.0,
        random_state: Optional[int] = 0,
    ) -> None:
        self.learner = learner
        self.repair_strength = repair_strength
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "CapuchinIntervention":
        self.estimator_ = CapuchinRepair(
            learner=self.learner,
            repair_strength=self.repair_strength,
            random_state=self.random_state,
        ).fit(train, validation)
        return self

    @property
    def repaired_(self) -> Dataset:
        """The repaired (resampled) training dataset."""
        self._check_fitted("estimator_")
        return self.estimator_.repaired_

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        self._check_fitted("estimator_")
        model = self.estimator_.fit_learner(self._final_learner(learner, seed))
        return DeployedModel.from_predictor(model, name="CapuchinIntervention")


def _same_final_model(intervention: Intervention, learner, seed) -> bool:
    """Whether ``make_model``'s requested (learner, seed) match the fit-time ones.

    Routing families train their serving models during :meth:`fit`; when the
    request matches the fit configuration the fitted models are reused,
    otherwise they are refitted with the requested final learner.
    """
    same_learner = learner is None or learner is intervention.learner or learner == intervention.learner
    same_seed = seed is None or seed == intervention.random_state
    return bool(same_learner and same_seed)
