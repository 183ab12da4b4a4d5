"""Conformance Constraints (CC) profiling substrate.

Re-implements the data-profiling primitive of Fariha et al.
("Conformance Constraint Discovery: Measuring Trust in Data-Driven Systems",
SIGMOD 2021) that both ConFair and DiffFair build on:

* :class:`Projection` — a linear combination ``F(X)`` of numerical attributes.
* :class:`ConformanceConstraint` — ``lb <= F(X) <= ub`` with a quantitative
  violation semantics (Eq. 1 of the fairness paper).
* :class:`ConstraintSet` — an importance-weighted conjunction of constraints,
  whose violation for a tuple is the weighted sum of per-constraint violations.
* :class:`CompiledConstraints` — Eq. 1 compiled for a sequence of constraint
  sets: one stacked projection matrix plus per-column bounds, scales and
  weights, scored by one blocked kernel.  All scoring goes through it
  (:meth:`ConstraintSet.violation` is the one-set case, and
  :class:`~repro.core.partitions.PartitionProfile` stacks its partitions).
  It is derived state: built on the first score, never persisted.  The
  per-constraint methods (``ConformanceConstraint.violations``,
  ``Projection.evaluate``) and every ``describe()`` remain the readable
  semantics.
* :func:`discover_constraints` — learn a :class:`ConstraintSet` from a data
  partition (simple per-attribute projections plus low-variance PCA
  projections of the attribute covariance).
"""

from repro.profiling.constraints import ConformanceConstraint, ConstraintSet
from repro.profiling.discovery import DiscoveryConfig, discover_constraints
from repro.profiling.kernel import CompiledConstraints
from repro.profiling.projections import Projection, discover_projections

__all__ = [
    "CompiledConstraints",
    "ConformanceConstraint",
    "ConstraintSet",
    "DiscoveryConfig",
    "Projection",
    "discover_constraints",
    "discover_projections",
]
