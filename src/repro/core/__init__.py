"""The paper's primary contribution: ConFair, DiffFair, and the CC optimization.

* :class:`ConFair` — Algorithm 2: CC-driven reweighing of the training data
  with intervention degrees ``alpha_u`` / ``alpha_w`` (auto-tuned on the
  validation split over :data:`~repro.core.confair.DEFAULT_TUNING_GRID`
  when not supplied).
* :class:`DiffFair` — Algorithm 1: group-dependent models deployed by
  minimum conformance-constraint violation.
* :func:`density_filter` — Algorithm 3: keep only the densest tuples of each
  (group, label) partition before deriving constraints.
* :func:`profile_partitions` — shared profiling step: one
  :class:`~repro.profiling.ConstraintSet` per (group, label) partition.

ConFair and DiffFair implement the :class:`~repro.interventions.Intervention`
protocol themselves and are registered as ``confair``/``confair0`` and
``diffair``/``diffair0``.
"""

from repro.core.confair import ConFair, ConFairWeights
from repro.core.density_filter import density_filter, density_filter_indices
from repro.core.diffair import DiffFair
from repro.core.partitions import PartitionProfile, profile_partitions
from repro.core.tuning import InterventionTuningResult, tune_intervention_degree

__all__ = [
    "ConFair",
    "ConFairWeights",
    "DiffFair",
    "InterventionTuningResult",
    "PartitionProfile",
    "density_filter",
    "density_filter_indices",
    "profile_partitions",
    "tune_intervention_degree",
]
