"""Shared profiling step: constraint sets per (group, label) partition.

Both ConFair (Algorithm 2) and DiffFair (Algorithm 1) begin by partitioning
the training data by group membership and target label, and deriving one
conformance-constraint set per partition.  When the density optimization
(Algorithm 3) is enabled, each partition is first filtered down to its
densest tuples so the derived constraints are tight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.density_filter import (
    PartitionKey,
    density_filter_indices,
    iter_group_label_partitions,
)
from repro.datasets.table import Dataset
from repro.exceptions import ConstraintError
from repro.profiling.constraints import ConstraintSet
from repro.profiling.discovery import DiscoveryConfig, discover_constraints
from repro.profiling.kernel import CompiledConstraints
from repro.telemetry import span
from repro.utils.parallel import thread_map

__all__ = ["PartitionKey", "PartitionProfile", "profile_partitions"]


@dataclass
class PartitionProfile:
    """Constraint sets learned per (group, label) partition of a training set.

    Attributes
    ----------
    constraint_sets:
        Mapping from ``(group, label)`` to the :class:`ConstraintSet` learned
        on that partition (on its densest tuples when filtering is enabled).
    partition_sizes:
        Number of training tuples per partition (before filtering).
    profiled_sizes:
        Number of tuples actually profiled per partition (after filtering).

    Scoring all partitions goes through one stacked
    :class:`~repro.profiling.kernel.CompiledConstraints` (partitions in
    sorted key order, so each group's label partitions are adjacent).  It is
    derived state, not a field: built on the first score (and rebuilt if
    ``constraint_sets`` is reassigned or its entries change), never
    persisted — :func:`profile_partitions` fills the mapping after
    construction, and artifacts store only the fields.
    """

    constraint_sets: Dict[PartitionKey, ConstraintSet] = field(default_factory=dict)
    partition_sizes: Dict[PartitionKey, int] = field(default_factory=dict)
    profiled_sizes: Dict[PartitionKey, int] = field(default_factory=dict)

    def _stacked(self) -> Tuple[CompiledConstraints, Tuple[Tuple[int, int, int], ...]]:
        """The compiled form plus each group's ``(group, first, stop)`` columns."""
        source = tuple(self.constraint_sets.items())
        cached = self.__dict__.get("_compiled")
        if cached is not None and cached[0] == source:
            return cached[1]
        if not source:
            raise ConstraintError("The partition profile holds no constraint sets")
        keys = sorted(self.constraint_sets)
        compiled = CompiledConstraints([self.constraint_sets[key] for key in keys])
        groups = []
        for g in (0, 1):
            columns = [i for i, key in enumerate(keys) if key[0] == g]
            if columns:
                groups.append((g, columns[0], columns[-1] + 1))
        self._compiled = (source, (compiled, tuple(groups)))
        return self._compiled[1]

    @property
    def n_features(self) -> Optional[int]:
        """Width of the numeric rows the constraints score (``None``: any)."""
        return self._stacked()[0].n_features

    def violation(self, key: PartitionKey, X_numeric: np.ndarray) -> np.ndarray:
        """Quantitative violation of the partition's constraints for each row."""
        if key not in self.constraint_sets:
            raise ConstraintError(f"No constraint set for partition {key!r}")
        return self.constraint_sets[key].violation(X_numeric)

    def group_violations(self, X_numeric) -> np.ndarray:
        """Per row, the minimum violation over each group's label partitions.

        Returns an ``(n_rows, 2)`` array whose column ``g`` is the
        ``min_{Phi in C}`` step of Algorithm 1's PREDICT procedure for group
        ``g``: a tuple's affinity to a group is its violation against the
        *closest* label partition of that group.  A group without any
        profiled partition scores ``+inf`` (no tuple conforms to it).
        """
        compiled, groups = self._stacked()
        per_set = compiled.violations(X_numeric).T  # (P, n_rows), C-ordered
        out = np.full((2, per_set.shape[1]), np.inf)
        for g, first, stop in groups:
            np.minimum.reduce(per_set[first:stop], axis=0, out=out[g])
        return out.T

    def keys(self):
        return self.constraint_sets.keys()


def profile_partitions(
    dataset: Dataset,
    *,
    discovery_config: Optional[DiscoveryConfig] = None,
    use_density_filter: bool = True,
    density_fraction: float = 0.2,
    min_partition_size: int = 2,
    n_jobs: Optional[int] = None,
) -> PartitionProfile:
    """Derive conformance constraints for every (group, label) partition.

    Parameters
    ----------
    dataset:
        The training dataset (constraints are always learned on training
        data only).
    discovery_config:
        Hyper-parameters of constraint discovery.
    use_density_filter:
        Apply Algorithm 3 within each partition before deriving constraints.
    density_fraction:
        Fraction of densest tuples kept by the filter (paper: 0.2).
    min_partition_size:
        Partitions smaller than this are skipped (no constraints derived);
        callers treat missing partitions as "no information".
    n_jobs:
        Profile the partitions on that many worker threads (``None``/``1``
        serial, ``-1`` one per CPU).  The per-partition work — Algorithm 3's
        KDE and constraint discovery — is numpy-bound and releases the GIL,
        so a thread pool scales it without pickling.  Partitions are
        independent and the profile is assembled in deterministic partition
        order (never completion order), so the parallel result is
        bit-identical to the serial one.
    """
    profile = PartitionProfile()
    partitions = list(
        iter_group_label_partitions(dataset.group, dataset.y, include_empty=True)
    )
    for key, rows in partitions:
        profile.partition_sizes[key] = int(rows.size)
    eligible = [(key, rows) for key, rows in partitions if rows.size >= min_partition_size]

    def _profile_one(item: Tuple[PartitionKey, np.ndarray]) -> Tuple[int, ConstraintSet]:
        key, rows = item
        group_value, label = key
        X_partition = dataset.numeric_X[rows]
        if use_density_filter and rows.size > 4:
            kept = density_filter_indices(
                X_partition, density_fraction=density_fraction
            )
            X_profiled = X_partition[kept]
        else:
            X_profiled = X_partition
        group_name = "U" if group_value == 1 else "W"
        constraints = discover_constraints(
            X_profiled,
            config=discovery_config,
            label=f"{dataset.name}:{group_name}:y={label}",
        )
        return int(X_profiled.shape[0]), constraints

    with span(
        "fit.profile_partitions",
        dataset=dataset.name,
        n_partitions=len(eligible),
        n_jobs=n_jobs,
    ):
        profiled = thread_map(_profile_one, eligible, n_jobs=n_jobs)
    for (key, _), (profiled_size, constraints) in zip(eligible, profiled):
        profile.profiled_sizes[key] = profiled_size
        profile.constraint_sets[key] = constraints
    if not profile.constraint_sets:
        raise ConstraintError(
            "No (group, label) partition was large enough to derive constraints"
        )
    return profile
