"""Parallel-vs-serial equivalence of the fit-side hot path.

The contract of ``n_jobs`` everywhere it appears (``profile_partitions``,
``density_filter``, ConFair/DiffFair fits, the
pipeline's ``fit_n_jobs``) is **bit-identical** output: partitions are
independent and results are assembled in deterministic partition order,
never completion order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.confair import ConFair
from repro.core.density_filter import density_filter
from repro.core.diffair import DiffFair
from repro.core.partitions import profile_partitions
from repro.datasets import make_drifted_groups
from repro.density import clear_backend_cache
from repro.exceptions import ValidationError
from repro.interventions.pipeline import FairnessPipeline
from repro.utils.parallel import resolve_n_jobs, thread_map


def _assert_profiles_identical(serial, parallel, X):
    assert serial.partition_sizes == parallel.partition_sizes
    assert serial.profiled_sizes == parallel.profiled_sizes
    assert list(serial.constraint_sets) == list(parallel.constraint_sets)
    for key in serial.constraint_sets:
        np.testing.assert_array_equal(
            serial.violation(key, X), parallel.violation(key, X)
        )


class TestProfilePartitionsParallel:
    def test_bit_identical_to_serial(self, drifted_dataset):
        serial = profile_partitions(drifted_dataset, n_jobs=1)
        parallel = profile_partitions(drifted_dataset, n_jobs=4)
        _assert_profiles_identical(serial, parallel, drifted_dataset.numeric_X)

    def test_bit_identical_through_shared_cache(self, drifted_dataset):
        """Parallel profiling over a warm shared cache changes nothing."""
        clear_backend_cache()
        serial = profile_partitions(drifted_dataset, n_jobs=1)  # warms the cache
        warm = profile_partitions(drifted_dataset, n_jobs=4)
        clear_backend_cache()
        cold = profile_partitions(drifted_dataset, n_jobs=4)
        X = drifted_dataset.numeric_X
        _assert_profiles_identical(serial, warm, X)
        _assert_profiles_identical(serial, cold, X)

    def test_all_cpus_spelling(self, drifted_dataset):
        parallel = profile_partitions(drifted_dataset, n_jobs=-1)
        _assert_profiles_identical(
            profile_partitions(drifted_dataset), parallel, drifted_dataset.numeric_X
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_majority=st.integers(min_value=40, max_value=120),
        n_minority=st.integers(min_value=20, max_value=60),
        n_jobs=st.sampled_from([2, 3, 4]),
    )
    def test_property_parallel_equals_serial(self, seed, n_majority, n_minority, n_jobs):
        dataset = make_drifted_groups(
            n_majority=n_majority,
            n_minority=n_minority,
            n_features=4,
            drift_angle=45.0,
            class_sep=1.0,
            group_shift=2.0,
            name="prop-syn",
            random_state=seed,
        )
        serial = profile_partitions(dataset, n_jobs=1)
        parallel = profile_partitions(dataset, n_jobs=n_jobs)
        _assert_profiles_identical(serial, parallel, dataset.numeric_X)


class TestDensityFilterParallel:
    def test_density_filter_bit_identical(self, drifted_dataset):
        serial = density_filter(drifted_dataset)
        parallel = density_filter(drifted_dataset, n_jobs=4)
        np.testing.assert_array_equal(serial.numeric_X, parallel.numeric_X)
        np.testing.assert_array_equal(serial.y, parallel.y)
        np.testing.assert_array_equal(serial.group, parallel.group)


class TestInterventionFitParallel:
    def test_confair_fit_bit_identical(self, drifted_split):
        serial = ConFair(alpha_u=1.0).fit(drifted_split.train)
        parallel = ConFair(alpha_u=1.0, n_jobs=4).fit(drifted_split.train)
        np.testing.assert_array_equal(serial.weights_, parallel.weights_)
        np.testing.assert_array_equal(
            serial.conforming_minority_, parallel.conforming_minority_
        )
        np.testing.assert_array_equal(
            serial.conforming_majority_, parallel.conforming_majority_
        )

    def test_confair_autotuned_fit_bit_identical(self, drifted_split):
        kwargs = {"tuning_grid": (0.0, 1.0, 2.0), "random_state": 3}
        serial = ConFair(**kwargs).fit(drifted_split.train, drifted_split.validation)
        parallel = ConFair(n_jobs=4, **kwargs).fit(
            drifted_split.train, drifted_split.validation
        )
        assert serial.alpha_u_ == parallel.alpha_u_
        np.testing.assert_array_equal(serial.weights_, parallel.weights_)

    def test_diffair_fit_bit_identical(self, drifted_split):
        serial = DiffFair(random_state=5).fit(drifted_split.train)
        parallel = DiffFair(random_state=5, n_jobs=4).fit(drifted_split.train)
        X = drifted_split.deploy.X
        np.testing.assert_array_equal(serial.route(X), parallel.route(X))
        np.testing.assert_array_equal(serial.predict(X), parallel.predict(X))

    def test_pipeline_fit_n_jobs_bit_identical(self, drifted_split):
        kwargs = {
            "dataset": drifted_split,
            "intervention_params": {"alpha_u": 1.0},
            "seed": 11,
        }
        serial = FairnessPipeline("confair", **kwargs).run()
        parallel = FairnessPipeline("confair", fit_n_jobs=4, **kwargs).run()
        np.testing.assert_array_equal(serial.predictions, parallel.predictions)
        assert serial.report == parallel.report

    def test_pipeline_sweep_fit_n_jobs_bit_identical(self, drifted_split):
        degrees = (0.0, 1.0, 2.0)
        serial = FairnessPipeline(
            "confair", dataset=drifted_split, seed=11
        ).sweep_degrees(degrees)
        parallel = FairnessPipeline(
            "confair", dataset=drifted_split, seed=11, fit_n_jobs=4
        ).sweep_degrees(degrees)
        for point_serial, point_parallel in zip(serial, parallel):
            assert point_serial.degree == point_parallel.degree
            np.testing.assert_array_equal(
                point_serial.predictions, point_parallel.predictions
            )

    def test_pipeline_fit_n_jobs_skips_interventions_without_knob(self, drifted_split):
        # "kam" accepts no n_jobs; fit_n_jobs must be dropped, not crash.
        result = FairnessPipeline("kam", dataset=drifted_split, fit_n_jobs=4).run()
        assert result.predictions.shape[0] == drifted_split.deploy.n_samples


class TestThreadMapContract:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4) == 4
        assert resolve_n_jobs(4, n_items=2) == 2
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValidationError):
            resolve_n_jobs(0)
        with pytest.raises(ValidationError):
            resolve_n_jobs(-2)

    def test_thread_map_preserves_input_order(self):
        import time

        def slow_inverse(value: int) -> int:
            time.sleep(0.01 * (5 - value))  # later items finish first
            return value * value

        items = list(range(5))
        assert thread_map(slow_inverse, items, n_jobs=5) == [v * v for v in items]

    def test_thread_map_propagates_exceptions(self):
        def boom(value: int) -> int:
            if value == 3:
                raise RuntimeError("boom")
            return value

        with pytest.raises(RuntimeError):
            thread_map(boom, range(5), n_jobs=2)
        with pytest.raises(RuntimeError):
            thread_map(boom, range(5), n_jobs=1)


class TestTuningParallel:
    def test_tune_intervention_degree_n_jobs_bit_identical(self, drifted_split):
        from repro.core.tuning import tune_intervention_degree
        from repro.learners.registry import make_learner

        estimator = ConFair(alpha_u=1.0).fit(drifted_split.train)
        kwargs = {
            "weight_fn": lambda degree: estimator.compute_weights(alpha_u=degree).weights,
            "train": drifted_split.train,
            "validation": drifted_split.validation,
            "learner": make_learner("lr", random_state=0),
            "candidate_degrees": (0.0, 0.5, 1.0, 2.0, 4.0),
        }
        serial = tune_intervention_degree(**kwargs)
        parallel = tune_intervention_degree(n_jobs=4, **kwargs)
        assert serial == parallel
        assert serial.trials == parallel.trials

    def test_sweep_degrees_explicit_n_jobs_bit_identical(self, drifted_split):
        pipeline = FairnessPipeline("confair", dataset=drifted_split, seed=11)
        serial = pipeline.sweep_degrees((0.0, 1.0, 2.0))
        parallel = pipeline.sweep_degrees((0.0, 1.0, 2.0), n_jobs=4)
        for point_serial, point_parallel in zip(serial, parallel):
            assert point_serial.degree == point_parallel.degree
            assert point_serial.report == point_parallel.report
            np.testing.assert_array_equal(
                point_serial.predictions, point_parallel.predictions
            )
