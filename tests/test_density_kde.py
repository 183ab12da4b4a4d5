"""Unit tests for kernel density estimation."""

import numpy as np
import pytest
from scipy import stats

from repro.density import KernelDensity, scott_bandwidth
from repro.exceptions import NotFittedError, ValidationError


class TestKernels:
    def test_lookup_known_kernels(self, rng):
        # The Gaussian is the one kernel, named in any case.
        X = rng.normal(size=(60, 2))
        expected = KernelDensity(kernel="gaussian").fit(X).score_samples(X)
        for name in ("Gaussian", " GAUSSIAN "):
            scores = KernelDensity(kernel=name).fit(X).score_samples(X)
            assert scores.tobytes() == expected.tobytes()

    def test_unknown_kernel(self, rng):
        for name in ("triangular", "tophat", "epanechnikov", None):
            with pytest.raises(ValidationError):
                KernelDensity(kernel=name).fit(rng.normal(size=(10, 2)))

    def test_gaussian_normalization_1d(self):
        # One training point at 0: the density there is 1/sqrt(2*pi*h^2).
        h = 0.7
        expected = 1.0 / np.sqrt(2 * np.pi * h**2)
        kde = KernelDensity(bandwidth=h).fit(np.zeros((1, 1)))
        assert np.exp(kde.score_samples(np.zeros((1, 1)))[0]) == pytest.approx(expected)

    def test_invalid_bandwidth(self, rng):
        # Silverman's rule is gone; a zero bandwidth leaves no normalization,
        # whether it is passed to fit or arrives in a loaded state.
        X = rng.normal(size=(10, 2))
        for bandwidth in ("silverman", 0.0):
            with pytest.raises(ValidationError):
                KernelDensity(bandwidth=bandwidth).fit(X)
        kde = KernelDensity(bandwidth=0.5).fit(X)
        kde.load_state_dict({**kde.state_dict(), "bandwidth_": 0.0})
        with pytest.raises(ValidationError, match="positive"):
            kde.score_samples(X)


class TestBandwidthRules:
    def test_positive_for_random_data(self, rng):
        X = rng.normal(size=(100, 3))
        assert scott_bandwidth(X) > 0

    def test_shrinks_with_sample_size(self, rng):
        small = scott_bandwidth(rng.normal(size=(50, 2)))
        large = scott_bandwidth(rng.normal(size=(5000, 2)))
        assert large < small

    def test_constant_data_falls_back_to_unit_sigma(self):
        X = np.ones((30, 2))
        assert scott_bandwidth(X) > 0


class TestKernelDensity:
    def test_matches_scipy_gaussian_kde_ranking(self, rng):
        X = rng.normal(size=(400, 2))
        ours = KernelDensity(kernel="gaussian", bandwidth="scott").fit(X)
        reference = stats.gaussian_kde(X.T)
        query = rng.normal(size=(50, 2))
        our_scores = ours.score_samples(query)
        ref_scores = np.log(reference(query.T))
        # Same density *ordering* (bandwidth conventions differ slightly).
        assert stats.spearmanr(our_scores, ref_scores).correlation > 0.95

    def test_1d_gaussian_density_close_to_truth(self, rng):
        X = rng.normal(size=(3000, 1))
        kde = KernelDensity(kernel="gaussian", bandwidth="scott").fit(X)
        query = np.array([[0.0], [1.0], [2.0]])
        estimated = np.exp(kde.score_samples(query))
        truth = stats.norm.pdf(query.ravel())
        assert np.allclose(estimated, truth, atol=0.05)

    def test_dense_region_scores_higher(self, rng):
        X = np.vstack([rng.normal(0, 0.3, size=(300, 2)), rng.normal(5, 3.0, size=(60, 2))])
        kde = KernelDensity().fit(X)
        dense_score = kde.score_samples(np.array([[0.0, 0.0]]))[0]
        sparse_score = kde.score_samples(np.array([[5.0, 5.0]]))[0]
        assert dense_score > sparse_score

    def test_density_rank(self, rng):
        X = np.vstack([rng.normal(0, 0.2, size=(100, 2)), np.array([[10.0, 10.0]])])
        kde = KernelDensity().fit(X)
        ranks = kde.density_rank(X)
        # The far outlier must be ranked last (least dense).
        assert ranks[-1] == len(X) - 1

    def test_fixed_bandwidth_accepted(self, rng):
        kde = KernelDensity(bandwidth=0.5).fit(rng.normal(size=(50, 2)))
        assert kde.bandwidth_ == 0.5

    @pytest.mark.parametrize("bandwidth", [0.0, -0.5, float("nan"), 1e-160, 1e-200])
    def test_too_small_bandwidth_rejected(self, rng, bandwidth):
        # Below MIN_BANDWIDTH the Gaussian's 1 / (2 h**2) overflows.
        with pytest.raises(ValidationError):
            KernelDensity(bandwidth=bandwidth).fit(rng.normal(size=(10, 2)))

    def test_invalid_bandwidth_rule(self, rng):
        with pytest.raises(ValidationError):
            KernelDensity(bandwidth="magic").fit(rng.normal(size=(10, 2)))

    def test_score_before_fit(self):
        with pytest.raises(NotFittedError):
            KernelDensity().score_samples(np.zeros((2, 2)))

    def test_dimension_mismatch(self, rng):
        kde = KernelDensity().fit(rng.normal(size=(20, 3)))
        with pytest.raises(ValidationError):
            kde.score_samples(rng.normal(size=(5, 2)))
