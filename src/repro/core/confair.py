"""ConFair (Algorithm 2): conformance-driven reweighing of training data.

ConFair is the paper's single-model, non-invasive intervention.  It

1. partitions the training data by (group, label),
2. derives conformance constraints per partition (optionally over the densest
   tuples only — Algorithm 3),
3. assigns every tuple a base weight that balances group/label skew
   (line 5 of Algorithm 2), and
4. adds the intervention degree ``alpha_u`` to minority tuples that *conform*
   to their partition's constraints on the label the minority is skewed away
   from, and ``alpha_w`` to the corresponding majority-conforming tuples.

The resulting per-tuple weights are consumed by any learner that accepts
``sample_weight`` — the intervention never alters the data or the learner.
:meth:`ConFair.make_model` trains the final learner on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.partitions import profile_partitions
from repro.core.tuning import tune_intervention_degree
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

DEFAULT_TUNING_GRID: Tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
"""Candidate ``alpha_u`` values for ConFair's automatic search (paper grid)."""


@dataclass(frozen=True)
class ConFairWeights:
    """The outcome of a ConFair weight computation.

    Attributes
    ----------
    weights:
        Per-tuple training weights (aligned with the training dataset rows).
    alpha_u, alpha_w:
        The intervention degrees that produced the weights.
    conforming_minority, conforming_majority:
        Row indices (into the training dataset) whose weights were increased
        by ``alpha_u`` / ``alpha_w`` respectively.
    """

    weights: np.ndarray
    alpha_u: float
    alpha_w: float
    conforming_minority: np.ndarray
    conforming_majority: np.ndarray


class ConFair(Intervention):
    """The ConFair reweighing intervention.

    Parameters
    ----------
    alpha_u:
        Intervention degree for the minority group.  ``None`` (default)
        triggers an automatic search on the validation split during
        :meth:`fit`, as in the paper.
    alpha_w:
        Intervention degree for the majority group.  ``None`` defaults to
        ``alpha_u / 2`` (the paper's policy).
    fairness_target:
        ``"di"`` (default) boosts minority-positive and majority-negative
        conforming tuples, optimizing Disparate Impact.  ``"fnr"`` boosts only
        minority-positive tuples (Equalized Odds by FNR); ``"fpr"`` boosts
        only minority-negative tuples (Equalized Odds by FPR).
    use_density_filter:
        Apply Algorithm 3 before constraint derivation (strongly recommended;
        Section IV-C shows it is essential).
    density_fraction:
        Fraction of densest tuples kept by the filter (paper: 0.2).
    discovery_config:
        Conformance-constraint discovery hyper-parameters.
    conformance_tol:
        Violation threshold below which a tuple counts as "conforming"
        (0.0 reproduces the paper's ``violation == 0`` test; small positive
        values make conformance slightly more permissive).
    learner:
        Learner name or prototype used when auto-tuning ``alpha_u``.
    tuning_grid:
        Candidate ``alpha_u`` values for the automatic search (default: the
        paper grid, :data:`DEFAULT_TUNING_GRID`).
    random_state:
        Seed for the learners trained during tuning.
    n_jobs:
        Worker threads for partition profiling *and* for the per-degree
        learner retrains of the ``alpha_u`` auto-tune during :meth:`fit`
        (``None``/``1`` serial, ``-1`` one per CPU).  Profiling dominates
        fit time and its per-partition work releases the GIL; the parallel
        profile is assembled in deterministic partition order and every
        tuning trial works on cloned learners and private weight arrays, so
        the fitted state is bit-identical to a serial fit.

    Attributes (after :meth:`fit`)
    ------------------------------
    profile_ : PartitionProfile
        The constraint sets learned per (group, label) partition.
    weights_ : numpy.ndarray
        Weights for the training dataset under the chosen intervention.
    alpha_u_, alpha_w_ : float
        The resolved intervention degrees.
    tuning_result_ : InterventionTuningResult or None
        Details of the automatic search (``None`` when alphas were supplied).
    """

    capabilities = InterventionCapabilities(
        produces_weights=True,
        supports_calibration_transfer=True,
        degree_param="alpha_u",
        requires_validation_for_tuning=True,
    )
    # Everything predictions and degree sweeps depend on; the tuning search
    # trace (``tuning_result_``) is diagnostics-only and is not persisted.
    _state_attributes = (
        "profile_",
        "_base_weights",
        "_conforming",
        "_train",
        "alpha_u_",
        "alpha_w_",
        "weights_",
        "conforming_minority_",
        "conforming_majority_",
    )

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
        if fairness_target not in ("di", "fnr", "fpr"):
            raise ValidationError("fairness_target must be 'di', 'fnr', or 'fpr'")
        if alpha_u is not None and alpha_u < 0:
            raise ValidationError("alpha_u must be non-negative")
        if alpha_w is not None and alpha_w < 0:
            raise ValidationError("alpha_w must be non-negative")
        if conformance_tol < 0:
            raise ValidationError("conformance_tol must be non-negative")
        self.alpha_u = alpha_u
        self.alpha_w = alpha_w
        self.fairness_target = fairness_target
        self.use_density_filter = use_density_filter
        self.density_fraction = density_fraction
        self.discovery_config = discovery_config
        self.conformance_tol = conformance_tol
        self.learner = learner
        self.tuning_grid = tuple(tuning_grid)
        self.random_state = random_state
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------ fit
    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "ConFair":
        """Profile the training data and resolve the intervention degrees.

        ``validation`` is required when ``alpha_u`` was not supplied (the
        automatic search evaluates candidate degrees on it).
        """
        self.profile_ = profile_partitions(
            train,
            discovery_config=self.discovery_config,
            use_density_filter=self.use_density_filter,
            density_fraction=self.density_fraction,
            n_jobs=self.n_jobs,
        )
        self._train = train
        self._base_weights = self._compute_base_weights(train)
        self._conforming = self._find_conforming(train)

        if self.alpha_u is not None:
            self.alpha_u_ = float(self.alpha_u)
            self.alpha_w_ = float(self.alpha_w) if self.alpha_w is not None else self.alpha_u_ / 2.0
            self.tuning_result_ = None
        else:
            if validation is None:
                raise ValidationError(
                    "ConFair needs a validation dataset to auto-tune alpha_u; "
                    "either pass validation= to fit() or supply alpha_u explicitly"
                )
            self.tuning_result_ = tune_intervention_degree(
                weight_fn=lambda alpha_u: self.compute_weights(alpha_u=alpha_u).weights,
                train=train,
                validation=validation,
                learner=new_learner(self.learner, self.random_state),
                candidate_degrees=self.tuning_grid,
                fairness_target=self.fairness_target,
                n_jobs=self.n_jobs,
            )
            self.alpha_u_ = self.tuning_result_.best_degree
            self.alpha_w_ = self.alpha_u_ / 2.0 if self.alpha_w is None else float(self.alpha_w)

        result = self.compute_weights(alpha_u=self.alpha_u_, alpha_w=self.alpha_w_)
        self.weights_ = result.weights
        self.conforming_minority_ = result.conforming_minority
        self.conforming_majority_ = result.conforming_majority
        return self

    # ------------------------------------------------------------ weighting
    def compute_weights(
        self,
        alpha_u: float,
        alpha_w: Optional[float] = None,
    ) -> ConFairWeights:
        """Compute per-tuple weights for the fitted training data.

        Exposes the weight computation separately from :meth:`fit` so users
        can sweep the intervention degree (Fig. 8/9) without re-profiling.
        """
        self._check_fitted("profile_")
        if alpha_u < 0:
            raise ValidationError("alpha_u must be non-negative")
        alpha_w = alpha_u / 2.0 if alpha_w is None else float(alpha_w)
        if alpha_w < 0:
            raise ValidationError("alpha_w must be non-negative")

        weights = self._base_weights.copy()
        minority_rows, majority_rows = self._target_rows()
        weights[minority_rows] += alpha_u
        weights[majority_rows] += alpha_w
        return ConFairWeights(
            weights=weights,
            alpha_u=float(alpha_u),
            alpha_w=float(alpha_w),
            conforming_minority=minority_rows,
            conforming_majority=majority_rows,
        )

    def fit_learner(self, learner: Optional[BaseClassifier] = None) -> BaseClassifier:
        """Train a learner on the fitted training data using the ConFair weights."""
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
        return {"alpha_u": self.alpha_u_, "alpha_w": self.alpha_w_}

    def weights_for_degree(self, degree: float) -> np.ndarray:
        """Weights at ``alpha_u = degree`` without re-profiling (Figs. 8/9).

        ``alpha_w`` follows the constructor setting (``None`` keeps the
        paper's ``alpha_u / 2`` policy).
        """
        return self.compute_weights(alpha_u=float(degree), alpha_w=self.alpha_w).weights

    # ------------------------------------------------------------ internals
    def _compute_base_weights(self, train: Dataset) -> np.ndarray:
        """Line 5 of Algorithm 2: balance weights for population and label skew.

        Each tuple's base weight is ``P(Y = y) * |G| / |G_y|`` — i.e.
        ``P(Y = y) / P(Y = y | G)``, the Kamiran-style balancing ratio — so
        under-represented (group, label) partitions receive proportionally
        higher weight.  Tuples in a partition absent from the training data
        keep a unit weight.
        """
        n_total = train.n_samples
        weights = np.ones(n_total, dtype=np.float64)
        group_sizes = {g: int(np.sum(train.group == g)) for g in (0, 1)}
        for label in (0, 1):
            label_mask = train.y == label
            label_fraction = float(label_mask.sum()) / n_total
            for group_value in (0, 1):
                mask = label_mask & (train.group == group_value)
                count = int(mask.sum())
                if count == 0:
                    continue
                weights[mask] = label_fraction * group_sizes[group_value] / count
        return weights

    def _find_conforming(self, train: Dataset) -> Dict[Tuple[int, int], np.ndarray]:
        """Rows (per partition) whose constraint violation is ~zero (lines 6-7)."""
        conforming: Dict[Tuple[int, int], np.ndarray] = {}
        for key in self.profile_.keys():
            group_value, label = key
            mask = (train.group == group_value) & (train.y == label)
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                conforming[key] = rows
                continue
            violations = self.profile_.violation(key, train.numeric_X[rows])
            conforming[key] = rows[violations <= self.conformance_tol]
        return conforming

    def _skewed_labels(self) -> Tuple[int, int]:
        """Return (minority_boost_label, majority_boost_label).

        The paper's exposition assumes the minority is skewed toward negative
        labels and the majority toward positive ones; here the skew is
        estimated from the data so the intervention generalizes: the minority
        gets boosted on its *under-represented* label and the majority on the
        opposite one.
        """
        minority_positive = self._train.group_positive_rate(1)
        majority_positive = self._train.group_positive_rate(0)
        if minority_positive <= majority_positive:
            return 1, 0  # boost minority positives, majority negatives
        return 0, 1

    def _target_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Conforming rows receiving the alpha_u / alpha_w boosts for the target metric."""
        minority_label, majority_label = self._skewed_labels()
        if self.fairness_target == "fnr":
            minority_key, majority_key = (1, 1), None
        elif self.fairness_target == "fpr":
            minority_key, majority_key = (1, 0), None
        else:  # "di"
            minority_key = (1, minority_label)
            majority_key = (0, majority_label)
        minority_rows = self._conforming.get(minority_key, np.array([], dtype=np.int64))
        if majority_key is None:
            majority_rows = np.array([], dtype=np.int64)
        else:
            majority_rows = self._conforming.get(majority_key, np.array([], dtype=np.int64))
        return minority_rows, majority_rows
