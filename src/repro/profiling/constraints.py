"""Conformance constraints and their quantitative violation semantics.

A single constraint is ``lb <= F(X) <= ub`` for a projection ``F``.  A
:class:`ConstraintSet` is an importance-weighted conjunction; its quantitative
violation for a tuple ``t`` follows Eq. (1) of the fairness paper::

    [[Phi]](t)  = sum_i q_i * [[phi_i]](t)
    [[phi_i]](t) = 1 - exp( - dist(F_i, t) / sigma(F_i) )
    dist(F_i, t) = max(0, F_i(t) - ub_i, lb_i - F_i(t))

where ``sigma(F_i)`` is the standard deviation of the projection on the
profiled partition, and the importance weights ``q_i`` sum to one and are
larger for projections with *smaller* standard deviation (tight projections
characterize the partition best).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConstraintError
from repro.profiling.kernel import CompiledConstraints
from repro.profiling.projections import Projection


@dataclass(frozen=True)
class ConformanceConstraint:
    """A bounded projection ``lb <= F(X) <= ub``.

    Parameters
    ----------
    projection:
        The linear projection being bounded.
    lower, upper:
        Inclusive bounds learned from the profiled partition.
    std:
        Standard deviation of the projection on the profiled partition; used
        to normalize the out-of-bounds distance in the quantitative
        semantics.  Clamped to a small positive value to avoid division by
        zero on constant projections.
    """

    projection: Projection
    lower: float
    upper: float
    std: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ConstraintError("Constraint bounds must be finite")
        if self.lower > self.upper:
            raise ConstraintError(
                f"Lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.std < 0:
            raise ConstraintError("Projection standard deviation must be non-negative")

    # ------------------------------------------------------------ semantics
    def distances(self, X) -> np.ndarray:
        """Out-of-bounds distance ``max(0, F(t)-ub, lb-F(t))`` per row."""
        values = self.projection.evaluate(X)
        above = values - self.upper
        below = self.lower - values
        return np.maximum(0.0, np.maximum(above, below))

    def violations(self, X) -> np.ndarray:
        """Quantitative violation ``1 - exp(-dist/std)`` per row, in ``[0, 1)``."""
        scale = max(self.std, 1e-12)
        return 1.0 - np.exp(-self.distances(X) / scale)

    def satisfied(self, X) -> np.ndarray:
        """Boolean semantics: rows whose projection value falls within the bounds."""
        values = self.projection.evaluate(X)
        return (values >= self.lower) & (values <= self.upper)

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        """Render as ``lb <= expr <= ub``."""
        return f"{self.lower:.4f} <= {self.projection.describe(feature_names)} <= {self.upper:.4f}"


@dataclass
class ConstraintSet:
    """An importance-weighted conjunction of conformance constraints.

    The importance weight of constraint ``i`` follows the paper:
    ``q_i = 1 - sigma_i / (max(sigma) - min(sigma))`` normalized to sum to
    one (uniform when all standard deviations are equal).  Lower-variance
    projections therefore dominate the violation score.

    The constraints are the readable description; :meth:`violation` scores
    through their compiled form
    (:class:`~repro.profiling.kernel.CompiledConstraints`), derived state
    built on the first score and never persisted.
    """

    constraints: List[ConformanceConstraint] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        self._weights = self._compute_weights()
        self._compiled: Optional[CompiledConstraints] = None

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    # ------------------------------------------------------------- weights
    def _compute_weights(self) -> np.ndarray:
        if not self.constraints:
            return np.empty(0, dtype=np.float64)
        stds = np.array([c.std for c in self.constraints], dtype=np.float64)
        spread = stds.max() - stds.min()
        if spread <= 0:
            raw = np.ones_like(stds)
        else:
            raw = 1.0 - stds / spread
            # The paper's formula can produce negative weights for the
            # highest-variance projections; clip at zero so they simply do
            # not contribute, then renormalize.
            raw = np.clip(raw, 0.0, None)
            if raw.sum() <= 0:
                raw = np.ones_like(stds)
        return raw / raw.sum()

    @property
    def weights(self) -> np.ndarray:
        """Importance weights ``q_i`` (non-negative, summing to one)."""
        return self._weights.copy()

    # ----------------------------------------------------------- semantics
    def violation(self, X) -> np.ndarray:
        """Weighted quantitative violation per row of ``X`` (0 = full conformance).

        The one-set case of :class:`~repro.profiling.kernel.CompiledConstraints`,
        compiled on the first call.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = CompiledConstraints([self])
        return compiled.violations(X)[:, 0]

    def conforming_mask(self, X, tol: float = 0.0) -> np.ndarray:
        """Boolean mask of rows whose total violation is ``<= tol``."""
        return self.violation(X) <= tol

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        """Multi-line, human-readable rendering of the constraint set."""
        header = f"ConstraintSet({self.label!r}, {len(self)} constraints)"
        lines = [header]
        for weight, constraint in zip(self._weights, self.constraints):
            lines.append(f"  [q={weight:.3f}] {constraint.describe(feature_names)}")
        return "\n".join(lines)
