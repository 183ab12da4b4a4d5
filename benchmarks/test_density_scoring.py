"""Benchmark: the density layer on the path every caller takes.

Two timings of the one scoring path (one gemm per block of query rows, the
Gaussian summed in log space on its output), on the meps surrogate:

* Gaussian ``score_samples`` of a 1,000-row query against the training
  numeric sample: the monitor's density channel on a 1000-row request;
* ``density_filter_indices`` on the largest (group, label) partition with an
  empty backend cache: one cold step of Algorithm 3.

Correctness is asserted outside the timed region.  Both benchmarks feed the
CI benchmark-regression gate (``compare_benchmarks.py --select density``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.density_filter import density_filter_indices, iter_group_label_partitions
from repro.datasets import load_dataset, split_dataset
from repro.density import KernelDensity, clear_backend_cache

N_QUERY_ROWS = 1_000


@pytest.fixture(scope="module")
def meps_split(paper_scale):
    data = load_dataset("meps", size_factor=1.0 if paper_scale else 0.3, random_state=7)
    return split_dataset(data, random_state=7)


def test_density_score_samples_1k_rows(benchmark, meps_split):
    train = meps_split.train.numeric_X
    deploy = meps_split.deploy.numeric_X
    index = np.tile(np.arange(len(deploy)), N_QUERY_ROWS // len(deploy) + 1)[:N_QUERY_ROWS]
    queries = deploy[index]
    kde = KernelDensity(bandwidth="scott", kernel="gaussian").fit(train)

    scores = benchmark(kde.score_samples, queries)

    assert scores.shape == (N_QUERY_ROWS,)
    assert np.all(np.isfinite(scores))
    benchmark.extra_info["n_train"] = len(train)
    benchmark.extra_info["n_query"] = N_QUERY_ROWS


def test_density_filter_cold_partition(benchmark, meps_split):
    train = meps_split.train
    partitions = [rows for _, rows in iter_group_label_partitions(train.group, train.y)]
    X = train.numeric_X[max(partitions, key=len)]

    def run():
        clear_backend_cache()  # a fresh fit's cost: backend build + scoring
        return density_filter_indices(X, density_fraction=0.2)

    kept = benchmark(run)

    scores = KernelDensity().fit(X).score_samples(X)
    densest = np.argsort(-scores, kind="mergesort")[: kept.size]
    np.testing.assert_array_equal(kept, np.sort(densest))
    assert kept.size == round(0.2 * len(X))
    benchmark.extra_info["n_rows"] = len(X)
