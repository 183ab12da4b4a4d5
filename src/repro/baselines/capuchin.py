"""CAP: Capuchin-style invasive data repair.

Capuchin (Salimi et al., SIGMOD 2019) repairs the training database so that
the sensitive attribute and the outcome satisfy a causal independence
constraint, by inserting and deleting tuples in the categorical projection of
the data.  The paper evaluates it as the representative *invasive*
pre-processing intervention.

This reimplementation reproduces the interface and the behaviour the paper's
comparison exercises: it resamples the training data so that the empirical
joint distribution of (group, label) factorizes into its marginals —
duplicating tuples of under-represented cells and dropping tuples of
over-represented ones.  Because tuples are added and removed, the method is
*invasive*: it returns a new, modified :class:`Dataset` rather than weights.
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
from repro.utils.random import check_random_state


class CapuchinRepair(Intervention):
    """The CAP data-repair baseline.

    Parameters
    ----------
    learner:
        Learner name or prototype used by :meth:`fit_learner` (the paper
        pairs CAP with the tree-based learner, which handles the categorical
        one-hot features well).
    repair_strength:
        Interpolation between the observed cell counts (0.0) and the fully
        independent target counts (1.0).
    random_state:
        Seed controlling which tuples are duplicated or dropped.

    Attributes (after :meth:`fit`)
    ------------------------------
    repaired_ : Dataset
        The repaired (resampled) training dataset.
    cell_targets_ :
        Target row counts per (group, label) cell after the repair.
    """

    capabilities = InterventionCapabilities(repairs_data=True)
    _state_attributes = ("repaired_", "cell_targets_")

    def __init__(
        self,
        learner="xgb",
        repair_strength: float = 1.0,
        random_state: Optional[int] = 0,
    ) -> None:
        if not 0.0 <= repair_strength <= 1.0:
            raise ValidationError("repair_strength must be in [0, 1]")
        self.learner = learner
        self.repair_strength = repair_strength
        self.random_state = random_state

    def fit(self, train: Dataset, validation: Optional[Dataset] = None) -> "CapuchinRepair":
        """Resample the training data toward independence of group and label."""
        rng = check_random_state(self.random_state)
        n_total = train.n_samples
        cell_targets: Dict[Tuple[int, int], int] = {}
        repaired_indices = []
        for group_value in (0, 1):
            group_mask = train.group == group_value
            p_group = float(group_mask.sum()) / n_total
            for label in (0, 1):
                label_mask = train.y == label
                p_label = float(label_mask.sum()) / n_total
                cell_rows = np.flatnonzero(group_mask & label_mask)
                observed = cell_rows.size
                independent = p_group * p_label * n_total
                target = int(round(observed + self.repair_strength * (independent - observed)))
                target = max(target, 1) if observed > 0 else 0
                cell_targets[(group_value, label)] = target
                if observed == 0 or target == 0:
                    continue
                if target <= observed:
                    chosen = rng.choice(cell_rows, size=target, replace=False)
                else:
                    extra = rng.choice(cell_rows, size=target - observed, replace=True)
                    chosen = np.concatenate([cell_rows, extra])
                repaired_indices.append(chosen)
        if not repaired_indices:
            raise ValidationError("Training data has no populated (group, label) cells")
        indices = np.concatenate(repaired_indices)
        rng.shuffle(indices)
        self.repaired_ = train.subset(indices).with_name(f"{train.name}-capuchin")
        self.cell_targets_ = cell_targets
        return self

    def fit_learner(self, learner: Optional[BaseClassifier] = None) -> BaseClassifier:
        """Train a learner on the repaired dataset."""
        self._check_fitted("repaired_")
        model = new_learner(self.learner, self.random_state) if learner is None else learner
        model.fit(self.repaired_.X, self.repaired_.y)
        return model

    def make_model(
        self,
        split: DatasetSplit,
        *,
        learner: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> DeployedModel:
        """The final learner trained on the repaired data."""
        model = self.fit_learner(self._final_learner(learner, seed))
        return DeployedModel.from_predictor(model, name=type(self).__name__)
