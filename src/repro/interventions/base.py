"""The ``Intervention`` protocol: one estimator surface for every method family.

The paper's methods come in three families — reweighing (ConFair, KAM, OMN),
model splitting (DiffFair, MultiModel), and data repair (CAP) — plus the
no-intervention reference.  Each family serves differently (a learner trained
on ``weights_``, ``predict(X)``, ``predict(X, group)``, a learner trained on
the repaired data), and each estimator in :mod:`repro.core` and
:mod:`repro.baselines` subclasses :class:`Intervention` and implements the
protocol itself:

* construction with keyword hyper-parameters only, stored verbatim on
  ``self`` (the scikit-learn convention), which makes ``get_params`` /
  ``set_params`` / ``clone`` / ``__repr__`` work without per-class code;
* a declared :class:`InterventionCapabilities` descriptor saying what the
  method *does* (produces weights, routes tuples, repairs data) and what the
  serving path therefore needs (the group attribute, a validation split);
* a uniform ``fit(train, validation=None)``;
* a uniform ``make_model(split, learner=..., seed=...)`` that returns a
  ready-to-predict :class:`DeployedModel` regardless of family.

Downstream code — the experiment runner, the :class:`FairnessPipeline`
facade, user serving code — only ever talks to this protocol, so new
interventions plug in by subclassing :class:`Intervention` and registering
themselves (see :mod:`repro.interventions.registry`).

This module imports nothing from :mod:`repro.core` or
:mod:`repro.baselines`: they import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional

import numpy as np

from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.exceptions import ExperimentError, ValidationError
from repro.learners.base import BaseClassifier, BaseEstimator, clone as clone_estimator
from repro.learners.registry import make_learner


def new_learner(learner, seed: Optional[int]) -> BaseClassifier:
    """An unfitted learner from a registry name (seeded) or a prototype (cloned)."""
    if isinstance(learner, str):
        return make_learner(learner, random_state=seed)
    return clone_estimator(learner)


@dataclass(frozen=True)
class InterventionCapabilities:
    """What an intervention produces and what its serving path requires.

    Attributes
    ----------
    produces_weights:
        The intervention emits per-tuple training weights (``weights_``) and
        the final model is any learner trained on the weighted data.
    routes:
        The intervention serves tuples with one of several internal models
        (model splitting).
    repairs_data:
        The intervention rewrites the training data (invasive repair) and the
        final model is trained on the repaired dataset.
    requires_group_at_predict:
        Serving needs the tuple's declared group membership (MultiModel);
        interventions without this flag never read the sensitive attribute at
        deployment time.
    supports_calibration_transfer:
        The intervention calibrates against a learner that may differ from
        the final model's learner (the Fig. 7 cross-model experiment).
    degree_param:
        Name of the constructor parameter holding the intervention degree
        (``"alpha_u"`` for ConFair, ``"lam"`` for OMN) when the method
        supports degree sweeps without refitting (Figs. 8/9); ``None``
        otherwise.
    requires_validation_for_tuning:
        ``fit`` needs a validation split when the intervention degree is left
        unspecified (automatic search).
    """

    produces_weights: bool = False
    routes: bool = False
    repairs_data: bool = False
    requires_group_at_predict: bool = False
    supports_calibration_transfer: bool = False
    degree_param: Optional[str] = None
    requires_validation_for_tuning: bool = False

    @property
    def supports_degree_sweep(self) -> bool:
        """Whether :meth:`Intervention.weights_for_degree` is available."""
        return self.degree_param is not None


class DeployedModel:
    """A ready-to-predict artifact produced by :meth:`Intervention.make_model`.

    The artifact normalizes the serving surface: ``predict(X, group=None)``
    works for every family.  ``group`` is only consulted when the producing
    intervention declared ``requires_group_at_predict`` (and is then
    mandatory); all other artifacts ignore it, so callers can always pass the
    group column when they have one.

    ``predictor`` is the underlying estimator whose ``predict`` /
    ``predict_proba`` the artifact wraps.  It is what
    :mod:`repro.serving.artifacts` persists: a model built through
    :meth:`from_predictor` (the path every registered intervention uses) can
    be saved and reloaded with bit-identical predictions, whereas a model
    built from bare callables cannot.
    """

    def __init__(
        self,
        predict_fn: Callable[..., np.ndarray],
        *,
        predict_proba_fn: Optional[Callable[..., np.ndarray]] = None,
        requires_group: bool = False,
        details: Optional[Dict[str, object]] = None,
        name: str = "model",
        predictor: Optional[object] = None,
    ) -> None:
        self._predict_fn = predict_fn
        self._predict_proba_fn = predict_proba_fn
        self.requires_group = bool(requires_group)
        self.details: Dict[str, object] = dict(details or {})
        self.name = name
        self.predictor = predictor

    @classmethod
    def from_predictor(
        cls,
        predictor: object,
        *,
        requires_group: bool = False,
        details: Optional[Dict[str, object]] = None,
        name: str = "model",
    ) -> "DeployedModel":
        """Wrap a fitted estimator exposing ``predict`` (and maybe ``predict_proba``)."""
        return cls(
            predictor.predict,
            predict_proba_fn=getattr(predictor, "predict_proba", None),
            requires_group=requires_group,
            details=details,
            name=name,
            predictor=predictor,
        )

    def _resolve_group(self, group) -> tuple:
        if self.requires_group:
            if group is None:
                raise ValidationError(
                    f"{self.name} routes by declared group membership; "
                    "predict() needs the group array"
                )
            return (group,)
        return ()

    def predict(self, X, group=None) -> np.ndarray:
        """Predict hard labels; ``group`` is used only by group-routed models."""
        return self._predict_fn(X, *self._resolve_group(group))

    def predict_proba(self, X, group=None) -> np.ndarray:
        """Class probabilities, when the underlying model exposes them."""
        if self._predict_proba_fn is None:
            raise ExperimentError(f"{self.name} does not expose predict_proba")
        return self._predict_proba_fn(X, *self._resolve_group(group))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeployedModel({self.name!r}, requires_group={self.requires_group})"


class Intervention(BaseEstimator):
    """Abstract base for every fairness intervention.

    Subclasses declare a class-level :class:`InterventionCapabilities` and
    implement :meth:`fit` and :meth:`make_model`.  Everything else —
    ``get_params``/``set_params``/``__repr__`` (inherited from
    :class:`~repro.learners.base.BaseEstimator`), :meth:`clone`,
    :meth:`details` — comes for free.

    Serialization is part of the protocol: every intervention declares its
    fitted state through ``_state_attributes`` and inherits the
    ``state_dict`` / ``load_state_dict`` pair from
    :class:`~repro.learners.base.BaseEstimator`, which is what lets
    :mod:`repro.serving.artifacts` persist a fitted intervention and restore
    it with bit-identical behaviour.
    """

    capabilities: ClassVar[InterventionCapabilities] = InterventionCapabilities()

    # ------------------------------------------------------------- protocol
    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "Intervention":
        """Fit the intervention on the training split.

        ``validation`` is consulted only when the capabilities declare
        ``requires_validation_for_tuning`` and the degree was left to the
        automatic search; it is always accepted for API symmetry.
        """
        raise NotImplementedError

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """Return a ready-to-predict artifact for the fitted intervention.

        Parameters
        ----------
        split:
            The train/validation/deploy split the intervention was fitted on;
            weight- and repair-based families train the final ``learner``
            here, routing families package their already-fitted group models.
        learner:
            Learner name or prototype for the *final* model; defaults to the
            intervention's own ``learner`` hyper-parameter.
        seed:
            Seed for the final model; defaults to the intervention's
            ``random_state``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ optionals
    def details(self) -> Dict[str, object]:
        """Method-specific fit outcomes (chosen degrees, λ, ...)."""
        return {}

    def weights_for_degree(self, degree: float) -> np.ndarray:
        """Training weights at an explicit intervention degree (Figs. 8/9).

        Only available when ``capabilities.supports_degree_sweep``; the
        default implementation explains what is missing.
        """
        raise ExperimentError(
            f"{type(self).__name__} does not support degree sweeps "
            "(capabilities.degree_param is None)"
        )

    def clone(self) -> "Intervention":
        """Return an unfitted copy with identical hyper-parameters."""
        return clone_estimator(self)

    # ------------------------------------------------------------- helpers
    def _final_learner(self, learner, seed) -> BaseClassifier:
        """Build the final (deploy) model from a name, prototype, or default."""
        learner = self.get_params().get("learner", "lr") if learner is None else learner
        seed = self.get_params().get("random_state", 0) if seed is None else seed
        return new_learner(learner, seed)

    def _weighted_model(self, split: DatasetSplit, learner, seed) -> DeployedModel:
        """The reweighing families' model: the final learner fitted on
        ``split.train`` with the fitted ``weights_``."""
        self._check_fitted("weights_")
        model = self._final_learner(learner, seed)
        model.fit(split.train.X, split.train.y, sample_weight=self.weights_)
        return DeployedModel.from_predictor(model, name=type(self).__name__)

    def _refit_unless_same(self, split: DatasetSplit, learner, seed) -> "Intervention":
        """This fitted intervention when ``(learner, seed)`` match the fit-time
        ones, otherwise a clone refitted on ``split.train`` with them.

        The families that fit their serving models during :meth:`fit`
        (no intervention, model splitting) reuse those models this way.
        """
        if _same_final_model(self, learner, seed):
            return self
        refit = self.clone()
        if learner is not None:
            refit.learner = learner
        if seed is not None:
            refit.random_state = seed
        return refit.fit(split.train)


def _same_final_model(intervention: Intervention, learner, seed) -> bool:
    """Whether ``make_model``'s requested (learner, seed) match the fit-time ones."""
    fitted_learner = intervention.learner
    same_learner = learner is None or learner is fitted_learner or learner == fitted_learner
    same_seed = seed is None or seed == intervention.random_state
    return bool(same_learner and same_seed)
