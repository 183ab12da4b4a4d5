"""Eq. (1) compiled: one blocked kernel scoring a sequence of constraint sets.

:class:`~repro.profiling.constraints.ConformanceConstraint` spells out the
quantitative semantics one projection at a time.  Scoring a profile that way
costs, per constraint, one Python call, one input validation and one
matrix-vector product — for a 1-row request that overhead is the whole
cost.  :class:`CompiledConstraints` stacks every weighted constraint of
``P`` constraint sets into one projection matrix and scores all ``P`` sets
with one matrix product per block of rows.

Layout.  With ``S`` the largest number of weighted constraints in one set,
column ``s * P + p`` holds set ``p``'s ``s``-th weighted constraint, so
slot ``s`` of all ``P`` sets is the contiguous slice ``[s*P, (s+1)*P)``.
Constraints with importance weight zero are dropped (the per-constraint
loop skipped them); a set with fewer than ``S`` weighted constraints is
padded with all-zero columns of weight zero, which add exactly ``0.0``.

Equivalence.  Every elementwise step is the IEEE operation the readable
semantics perform: ``|F - clip(F, lb, ub)|`` is ``max(0, F - ub, lb - F)``
exactly, ``d / -sigma`` is ``-d / sigma`` exactly, and the slots are
accumulated in each set's constraint order.  The only difference from the
per-constraint loop is the matrix product itself (gemm instead of one gemv
per constraint), whose summation order may differ in the last bits of a
projected value.  Rows inside every bound score exactly ``0.0`` either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.exceptions import ConstraintError
from repro.utils.validation import check_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.constraints import ConstraintSet

#: Rows scored per matrix product.  Bounds the temporaries to
#: ``BLOCK_ROWS x (S * P)`` doubles: unblocked, a 10k-row call allocates
#: multi-megabyte intermediates and runs slower than the per-constraint loop.
BLOCK_ROWS = 1024


class CompiledConstraints:
    """Stacked arrays of ``P`` constraint sets, scored by one blocked kernel.

    Derived state: built from the constraint sets' readable form, never
    persisted, and not updated if those sets change afterwards.

    Attributes
    ----------
    n_features:
        Width of the rows the projections consume (``None`` when no set
        has a weighted constraint: any width is accepted then).
    n_sets, n_slots:
        ``P`` and ``S`` of the module docstring.
    projection:
        ``W``, the ``(n_features, S * P)`` stacked projection coefficients.
    lower, upper, neg_scale, weight:
        Per column of ``W`` (as ``(S * P, 1)`` column vectors): the bounds,
        ``-max(sigma, 1e-12)`` and the importance weight ``q``.
    """

    __slots__ = ("n_features", "n_sets", "n_slots", "projection", "lower", "upper",
                 "neg_scale", "weight")

    def __init__(self, constraint_sets: Sequence["ConstraintSet"]) -> None:
        weighted = [
            [(weight, constraint)
             for weight, constraint in zip(constraint_set.weights, constraint_set.constraints)
             if weight != 0.0]
            for constraint_set in constraint_sets
        ]
        widths = {c.projection.n_features for items in weighted for _, c in items}
        if len(widths) > 1:
            raise ConstraintError(
                f"Cannot compile constraints over different widths {sorted(widths)}"
            )
        self.n_features: Optional[int] = widths.pop() if widths else None
        self.n_sets = len(weighted)
        self.n_slots = max((len(items) for items in weighted), default=0)
        columns = self.n_slots * self.n_sets
        # Stored transposed (one row per column of W, parameters as column
        # vectors) so a block is scored as a (columns x rows) array: every
        # slot is then a contiguous run of rows and the accumulation adds
        # contiguous memory.
        rows = np.zeros((columns, self.n_features or 0))
        self.projection = rows.T
        self.lower = np.zeros((columns, 1))
        self.upper = np.zeros((columns, 1))
        self.neg_scale = np.full((columns, 1), -1.0)
        self.weight = np.zeros((columns, 1))
        for p, items in enumerate(weighted):
            for s, (weight, constraint) in enumerate(items):
                column = s * self.n_sets + p
                rows[column] = constraint.projection.as_array()
                self.lower[column] = constraint.lower
                self.upper[column] = constraint.upper
                self.neg_scale[column] = -max(constraint.std, 1e-12)
                self.weight[column] = weight

    def violations(self, X) -> np.ndarray:
        """Eq. (1) per row and set: an ``(n_rows, P)`` array, 0 = conformance.

        ``X`` is validated once (finite numeric matrix of ``n_features``
        columns; a wrong width raises
        :class:`~repro.exceptions.ConstraintError`), then scored in blocks
        of :data:`BLOCK_ROWS` rows.  The result is the transpose of a
        C-ordered ``(P, n_rows)`` array, so each set's scores are contiguous.
        """
        X = check_array(X, name="X")
        if self.n_features is not None and X.shape[1] != self.n_features:
            raise ConstraintError(
                f"Constraints expect {self.n_features} attributes, X has {X.shape[1]}"
            )
        n_rows, n_sets = X.shape[0], self.n_sets
        out = np.zeros((n_sets, n_rows))
        if self.n_slots == 0:
            return out.T
        rows = self.projection.T
        buffer = np.empty((rows.shape[0], min(n_rows, BLOCK_ROWS)))
        for start in range(0, n_rows, BLOCK_ROWS):
            values = rows @ X[start:start + BLOCK_ROWS].T
            bounded = buffer[:, : values.shape[1]]
            np.maximum(values, self.lower, out=bounded)
            np.minimum(bounded, self.upper, out=bounded)  # clip to [lb, ub]
            np.subtract(values, bounded, out=values)
            np.abs(values, out=values)  # out-of-bounds distance
            np.divide(values, self.neg_scale, out=values)
            np.exp(values, out=values)
            np.subtract(1.0, values, out=values)
            np.multiply(values, self.weight, out=values)
            total = out[:, start:start + BLOCK_ROWS]
            for slot in range(0, values.shape[0], n_sets):
                total += values[slot:slot + n_sets]
        return out.T
