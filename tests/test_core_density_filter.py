"""Unit tests for Algorithm 3 (density filtering) and partition profiling."""

import numpy as np
import pytest
from density_reference import ReferenceKernelDensity

from repro.core import density_filter, density_filter_indices, profile_partitions
from repro.core.density_filter import iter_group_label_partitions
from repro.datasets import load_dataset, split_dataset
from repro.exceptions import ConstraintError, ValidationError


class TestDensityFilterIndices:
    def test_keeps_requested_fraction(self, rng):
        X = rng.normal(size=(200, 3))
        kept = density_filter_indices(X, density_fraction=0.2)
        assert len(kept) == 40

    def test_keeps_dense_core_not_outliers(self, rng):
        core = rng.normal(0, 0.3, size=(180, 2))
        outliers = rng.normal(0, 8.0, size=(20, 2))
        X = np.vstack([core, outliers])
        kept = density_filter_indices(X, density_fraction=0.5)
        # Outlier rows (indices >= 180) should almost never survive.
        assert np.mean(kept >= 180) < 0.1

    def test_min_keep_floor(self, rng):
        X = rng.normal(size=(20, 2))
        kept = density_filter_indices(X, density_fraction=0.1, min_keep=10)
        assert len(kept) == 10

    def test_fraction_one_keeps_everything(self, rng):
        X = rng.normal(size=(30, 2))
        assert len(density_filter_indices(X, density_fraction=1.0)) == 30

    def test_invalid_fraction(self, rng):
        with pytest.raises(ValidationError):
            density_filter_indices(rng.normal(size=(10, 2)), density_fraction=0.0)

    def test_indices_are_sorted_and_unique(self, rng):
        kept = density_filter_indices(rng.normal(size=(100, 2)), density_fraction=0.3)
        assert np.array_equal(kept, np.unique(kept))


class TestSeedOracle:
    """Algorithm 3 keeps exactly the rows the seed's KDE ranks densest.

    The decision-equivalence oracle of the log-space Gaussian: on the
    real-world surrogates, every (group, label) partition of the training
    split keeps the same rows as the frozen seed implementation's ranking.
    """

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("size_factor", [0.02, 0.05])
    @pytest.mark.parametrize("name", ["meps", "lsac", "credit", "acsp", "acsh", "acse"])
    def test_kept_rows_match_seed_kde(self, name, size_factor, seed):
        data = load_dataset(name, size_factor=size_factor, random_state=seed)
        train = split_dataset(data, random_state=seed).train
        partitions = list(iter_group_label_partitions(train.group, train.y))
        assert len(partitions) == 4
        for _, rows in partitions:
            X = train.numeric_X[rows]
            keep = min(max(int(round(0.2 * len(X))), min(10, len(X))), len(X))
            seed_scores = ReferenceKernelDensity().fit(X).score_samples(X)
            expected = np.sort(np.argsort(-seed_scores, kind="mergesort")[:keep])
            np.testing.assert_array_equal(density_filter_indices(X), expected)


class TestDensityFilterDataset:
    def test_filters_each_partition(self, drifted_dataset):
        filtered = density_filter(drifted_dataset, density_fraction=0.2)
        assert filtered.n_samples < drifted_dataset.n_samples
        # Every (group, label) partition must still be present.
        assert set(filtered.partition_sizes().values()) != {0}
        for key, size in filtered.partition_sizes().items():
            assert size > 0, key

    def test_original_not_modified(self, drifted_dataset):
        before = drifted_dataset.n_samples
        density_filter(drifted_dataset, density_fraction=0.2)
        assert drifted_dataset.n_samples == before


class TestProfilePartitions:
    def test_four_constraint_sets(self, drifted_dataset):
        profile = profile_partitions(drifted_dataset)
        assert set(profile.keys()) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_profiled_sizes_smaller_with_filter(self, drifted_dataset):
        with_filter = profile_partitions(drifted_dataset, use_density_filter=True)
        without = profile_partitions(drifted_dataset, use_density_filter=False)
        for key in with_filter.keys():
            assert with_filter.profiled_sizes[key] <= without.profiled_sizes[key]

    def test_own_partition_violation_lower_than_other_group(self, drifted_dataset):
        profile = profile_partitions(drifted_dataset)
        minority_positive = drifted_dataset.partition(group_value=1, label=1)
        scores = profile.group_violations(minority_positive.numeric_X)
        own = scores[:, 1].mean()
        other = scores[:, 0].mean()
        assert own < other

    def test_unknown_partition_violation_raises(self, drifted_dataset):
        profile = profile_partitions(drifted_dataset)
        with pytest.raises(ConstraintError):
            profile.violation((2, 0), drifted_dataset.numeric_X)

    def test_small_partitions_are_skipped(self):
        from repro.datasets import Dataset

        X = np.random.default_rng(0).normal(size=(40, 3))
        y = np.array([1] * 39 + [0])  # a single (·, 0) tuple
        group = np.array([0] * 20 + [1] * 20)
        data = Dataset(X=X, y=y, group=group)
        profile = profile_partitions(data, min_partition_size=2)
        assert (1, 0) not in profile.constraint_sets or (0, 0) not in profile.constraint_sets
