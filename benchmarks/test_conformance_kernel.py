"""Benchmark: conformance scoring (Eq. 1) through the monitor's conformance channel.

``FairnessMonitor.violation_scores`` on the meps profile (size_factor 0.05,
seed 7: four (group, label) partitions over six numeric columns) at a
1-row and a 10k-row request — the two ends of what a served request costs
in the compiled kernel: fixed per-call overhead and blocked throughput.
Shape assertion: the scores equal the per-constraint reference
(``sum_{q_i > 0} q_i * ConformanceConstraint.violations``, min over each
group's label partitions, then over groups) within 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import profile_partitions
from repro.datasets import load_dataset, split_dataset
from repro.serving import FairnessMonitor


def _reference_scores(profile, numeric: np.ndarray) -> np.ndarray:
    best = np.full(numeric.shape[0], np.inf)
    for constraint_set in profile.constraint_sets.values():
        total = np.zeros(numeric.shape[0])
        for weight, constraint in zip(constraint_set.weights, constraint_set.constraints):
            if weight != 0.0:
                total += weight * constraint.violations(numeric)
        best = np.minimum(best, total)
    return best


@pytest.fixture(scope="module")
def meps_monitor():
    split = split_dataset(load_dataset("meps", size_factor=0.05, random_state=7), random_state=7)
    monitor = FairnessMonitor(window_size=5000, profile=profile_partitions(split.train))
    rng = np.random.default_rng(0)
    rows = split.deploy.X[rng.integers(0, split.deploy.n_samples, size=10_000)]
    return monitor, rows, split.train.n_numeric_features


@pytest.mark.parametrize("n_rows", [1, 10_000], ids=["1_row", "10k_rows"])
def test_conformance_kernel_violation_scores(benchmark, meps_monitor, n_rows):
    monitor, rows, n_numeric = meps_monitor
    X = rows[:n_rows]

    scores = benchmark(monitor.violation_scores, X)

    reference = _reference_scores(monitor.profile, X[:, :n_numeric])
    assert scores.shape == (n_rows,)
    assert np.max(np.abs(scores - reference)) <= 1e-12
    benchmark.extra_info["n_rows"] = n_rows
    benchmark.extra_info["rows_per_second"] = round(n_rows / benchmark.stats.stats.mean, 1)
