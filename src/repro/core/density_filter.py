"""Algorithm 3: density-based filtering for stronger conformance constraints.

Constraints learned from high-variance data are permissive and have little
discriminative power.  The optimization estimates the density of every tuple
within its (group, label) partition and keeps only the densest ``k`` tuples
per partition; constraints derived from the filtered partitions are much
tighter, which Section IV-C of the paper shows is essential for both
DiffFair and ConFair.

Density estimation runs through the batch engine in :mod:`repro.density`: a
Gaussian KDE with Scott's bandwidth, whose ``score_samples`` evaluates each
partition in one vectorized pass, and whose backend cache means repeated fits
over the same partition (degree sweeps, profile rebuilds) share one backend.

This module also owns the canonical **partition iterator**
(:func:`iter_group_label_partitions`): both places that walk the four
(group, label) partitions — this module and
:func:`repro.core.profile_partitions` — share one implementation instead of
re-rolling the double loop.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.datasets.table import Dataset
from repro.density.kde import KernelDensity
from repro.exceptions import ValidationError
from repro.utils.parallel import thread_map

PartitionKey = Tuple[int, int]
"""(group, label) pair: group 0 = majority W, 1 = minority U."""


def iter_group_label_partitions(
    group,
    y,
    *,
    include_empty: bool = False,
) -> Iterator[Tuple[PartitionKey, np.ndarray]]:
    """Yield ``((group, label), row_indices)`` over the four partitions.

    Empty partitions are skipped unless ``include_empty`` is set (callers
    that record per-partition sizes want the empty keys too).
    """
    group = np.asarray(group).ravel()
    y = np.asarray(y).ravel()
    for group_value in (0, 1):
        group_mask = group == group_value
        for label in (0, 1):
            rows = np.flatnonzero(group_mask & (y == label))
            if include_empty or rows.size:
                yield (group_value, label), rows


def _resolve_keep_count(partition_size: int, density_fraction: float, min_keep: int) -> int:
    """Number of tuples to keep for a partition of ``partition_size`` rows."""
    keep = int(round(density_fraction * partition_size))
    keep = max(keep, min(min_keep, partition_size))
    return min(keep, partition_size)


def density_filter_indices(
    X: np.ndarray,
    *,
    density_fraction: float = 0.2,
    min_keep: int = 10,
) -> np.ndarray:
    """Return the indices of the densest rows of ``X`` (Algorithm 3, one partition).

    Parameters
    ----------
    X:
        Numeric attribute matrix of one (group, label) partition.
    density_fraction:
        Fraction of rows to keep (the paper uses ``k = 0.2 * n``).
    min_keep:
        Keep at least this many rows (bounded by the partition size), so tiny
        partitions still yield enough tuples to derive constraints from.

    Rows are ranked by a Gaussian :class:`repro.density.KernelDensity` with
    Scott's bandwidth, fitted on ``X`` itself.
    """
    if not 0.0 < density_fraction <= 1.0:
        raise ValidationError("density_fraction must be in (0, 1]")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError("X must be a non-empty 2-D matrix")
    n_rows = X.shape[0]
    keep = _resolve_keep_count(n_rows, density_fraction, min_keep)
    if keep >= n_rows:
        return np.arange(n_rows)

    estimator = KernelDensity().fit(X)
    log_density = estimator.score_samples(X)
    order = np.argsort(-log_density, kind="mergesort")
    return np.sort(order[:keep])


def density_filter(
    dataset: Dataset,
    *,
    density_fraction: float = 0.2,
    min_keep: int = 10,
    n_jobs: Optional[int] = None,
) -> Dataset:
    """Apply Algorithm 3 to a dataset: keep the densest tuples of each partition.

    Each of the four (group, label) partitions is filtered independently and
    the kept rows are concatenated into a new :class:`Dataset` (the input is
    never modified).  ``n_jobs`` filters the partitions on that many worker
    threads (``None``/``1`` serial, ``-1`` one per CPU); the kept rows are
    assembled in deterministic partition order either way, so the result is
    bit-identical to the serial run.
    """
    partitions = list(iter_group_label_partitions(dataset.group, dataset.y))
    if not partitions:
        raise ValidationError("Dataset has no non-empty (group, label) partitions")

    def _filter_one(partition_rows: np.ndarray) -> np.ndarray:
        local = density_filter_indices(
            dataset.numeric_X[partition_rows],
            density_fraction=density_fraction,
            min_keep=min_keep,
        )
        return partition_rows[local]

    keep_indices = thread_map(_filter_one, [rows for _, rows in partitions], n_jobs=n_jobs)
    all_indices = np.sort(np.concatenate(keep_indices))
    return dataset.subset(all_indices)
