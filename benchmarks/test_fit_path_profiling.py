"""Benchmark FIT: the fit-side hot path (figure08-style degree sweep).

This benchmark guards the fit-time hot path — parallel partition profiling
over the shared ``iter_group_label_partitions`` iterator and the shared
thread-safe density-backend cache.  The ``fit_path`` benchmarks are wired
into the CI benchmark-regression gate (``compare_benchmarks.py --select
fit_path``) so fit-time performance can't silently rot.

Correctness is asserted outside the timed region: the parallel sweep and the
parallel profile must be bit-identical to the serial ones.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitions import profile_partitions
from repro.datasets import load_dataset, split_dataset
from repro.density import clear_backend_cache
from repro.interventions.pipeline import FairnessPipeline

DEGREES = (0.0, 0.5, 1.0, 2.0, 3.0)
PARALLEL_JOBS = 4


def _sweep_split(paper_scale: bool):
    size_factor = 0.3 if paper_scale else 0.08
    dataset = load_dataset("meps", size_factor=size_factor, random_state=11)
    return split_dataset(dataset, random_state=11)


def _run_sweep(split, n_jobs):
    pipeline = FairnessPipeline(
        "confair", dataset=split, seed=11, fit_n_jobs=n_jobs
    )
    return pipeline.sweep_degrees(DEGREES)


def test_fit_path_sweep_serial(benchmark, paper_scale):
    """Baseline: the serial seed path of a Fig. 8 style ConFair degree sweep."""
    split = _sweep_split(paper_scale)
    points = benchmark.pedantic(
        _run_sweep,
        args=(split, None),
        setup=clear_backend_cache,
        rounds=3,
        iterations=1,
    )
    assert len(points) == len(DEGREES)


def test_fit_path_sweep_parallel(benchmark, paper_scale):
    """The same sweep with parallel partition profiling — bit-identical output."""
    split = _sweep_split(paper_scale)
    clear_backend_cache()
    serial = _run_sweep(split, None)
    points = benchmark.pedantic(
        _run_sweep,
        args=(split, PARALLEL_JOBS),
        setup=clear_backend_cache,
        rounds=3,
        iterations=1,
    )
    assert len(points) == len(DEGREES)
    for point_serial, point_parallel in zip(serial, points):
        assert point_serial.degree == point_parallel.degree
        np.testing.assert_array_equal(
            point_serial.predictions, point_parallel.predictions
        )


def test_fit_path_profile_partitions_parallel(benchmark, paper_scale):
    """Profiling alone (the fit-time kernel): parallel partitions, cold cache."""
    split = _sweep_split(paper_scale)
    serial = profile_partitions(split.train, n_jobs=1)
    profile = benchmark.pedantic(
        profile_partitions,
        args=(split.train,),
        kwargs={"n_jobs": PARALLEL_JOBS},
        setup=clear_backend_cache,
        rounds=3,
        iterations=1,
    )
    assert serial.profiled_sizes == profile.profiled_sizes
    X = split.train.numeric_X
    for key in serial.constraint_sets:
        np.testing.assert_array_equal(
            serial.violation(key, X), profile.violation(key, X)
        )

