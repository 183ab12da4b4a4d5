"""Equivalence, cache, and property tests for the batch density engine.

The central contract: ``KernelDensity`` returns log-densities and density
ranks **bit-identical** to the frozen seed implementation kept in
``tests/density_reference.py``, for every kernel.
"""

import numpy as np
import pytest
from density_reference import ReferenceKernelDensity
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density import KernelDensity, backend_cache_size, clear_backend_cache
from repro.density.kernels import log_normalization


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# frozen equivalence: the engine reproduces the seed bit-for-bit
# ---------------------------------------------------------------------------


class TestFrozenEquivalence:
    @pytest.mark.parametrize("kernel", ["gaussian", "tophat", "epanechnikov"])
    def test_brute_bit_identical_to_seed(self, rng, kernel):
        X = rng.normal(size=(300, 3))
        queries = rng.normal(size=(60, 3))
        seed = ReferenceKernelDensity(kernel=kernel, bandwidth=0.8).fit(X)
        new = KernelDensity(kernel=kernel, bandwidth=0.8).fit(X)
        for target in (X, queries):
            np.testing.assert_array_equal(
                new.score_samples(target), seed.score_samples(target)
            )
            np.testing.assert_array_equal(new.density_rank(target), seed.density_rank(target))

    def test_zero_density_rows_score_negative_infinity(self, rng):
        X = rng.normal(size=(200, 2))
        far = np.full((3, 2), 50.0)
        kde = KernelDensity(kernel="tophat", bandwidth=0.5).fit(X)
        assert np.all(np.isneginf(kde.score_samples(far)))


# ---------------------------------------------------------------------------
# the backend cache
# ---------------------------------------------------------------------------


class TestBackendCache:
    def test_refits_share_the_structure(self, rng):
        clear_backend_cache()
        X = rng.normal(size=(300, 2))
        first = KernelDensity(kernel="tophat", bandwidth=0.5).fit(X)
        second = KernelDensity(kernel="tophat", bandwidth=0.5).fit(X.copy())
        assert first._backend is second._backend
        assert backend_cache_size() == 1

    def test_kernel_and_bandwidth_share_the_structure(self, rng):
        # The cache key is the training sample's content alone.
        clear_backend_cache()
        X = rng.normal(size=(300, 2))
        first = KernelDensity(kernel="tophat", bandwidth=0.5).fit(X)
        second = KernelDensity(kernel="gaussian", bandwidth="scott").fit(X)
        assert first._backend is second._backend
        assert backend_cache_size() == 1

    def test_different_data_builds_different_structures(self, rng):
        clear_backend_cache()
        kde = KernelDensity(kernel="tophat", bandwidth=0.5)
        first = kde.fit(rng.normal(size=(200, 2)))._backend
        second = kde.fit(rng.normal(size=(200, 2)))._backend
        assert first is not second


# ---------------------------------------------------------------------------
# analytic regression pin and rank properties
# ---------------------------------------------------------------------------


class TestAnalyticRegression:
    def test_score_samples_pinned_on_analytic_1d_gaussian_grid(self):
        """Pin score_samples against the closed-form 1-D Gaussian KDE."""
        train = np.array([[-1.5], [-0.5], [0.0], [0.25], [2.0]])
        bandwidth = 0.5
        grid = np.linspace(-3.0, 3.0, 41).reshape(-1, 1)
        kde = KernelDensity(kernel="gaussian", bandwidth=bandwidth).fit(train)

        diffs = (grid - train.T) / bandwidth  # (41, 5)
        expected = np.log(
            np.mean(np.exp(-0.5 * diffs**2), axis=1)
            / (np.sqrt(2.0 * np.pi) * bandwidth)
        )
        np.testing.assert_allclose(kde.score_samples(grid), expected, rtol=1e-12, atol=0)


# Discrete coordinates force duplicate rows (exact ties) while the 0.7
# bandwidth sits far (>= 0.007) from every attainable inter-point distance,
# so a compact kernel's neighbourhood membership is never decided by an ulp.
_TIED_COORDS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


class TestBackendInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n_rows=st.integers(min_value=8, max_value=40),
        n_dims=st.integers(min_value=1, max_value=3),
    )
    def test_density_rank_matches_seed_on_tie_heavy_data(self, data, n_rows, n_dims):
        rows = data.draw(
            st.lists(
                st.lists(_TIED_COORDS, min_size=n_dims, max_size=n_dims),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        X = np.asarray(rows, dtype=np.float64)
        for kernel in ("gaussian", "tophat", "epanechnikov"):
            new = KernelDensity(kernel=kernel, bandwidth=0.7).fit(X)
            seed = ReferenceKernelDensity(kernel=kernel, bandwidth=0.7).fit(X)
            np.testing.assert_array_equal(new.density_rank(X), seed.density_rank(X))

    def test_density_rank_consistent_on_continuous_data(self, rng):
        # The blockwise expansion ||a||^2 + ||b||^2 - 2 a.b and direct
        # differences agree to ulp precision, so ranks agree wherever the
        # density is not tied with another row.
        X = rng.normal(size=(250, 2))
        kde = KernelDensity(kernel="epanechnikov", bandwidth=0.6).fit(X)
        scaled = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2) / 0.6
        direct = np.log(np.maximum(0.0, 1.0 - scaled**2).sum(axis=1) / len(X)) + (
            log_normalization("epanechnikov", 0.6, 2)
        )
        np.testing.assert_allclose(kde.score_samples(X), direct, rtol=1e-12)
        unique_scores, counts = np.unique(direct, return_counts=True)
        untied = np.isin(direct, unique_scores[counts == 1])
        direct_ranks = np.empty(len(X), dtype=np.int64)
        direct_ranks[np.argsort(-direct, kind="mergesort")] = np.arange(len(X))
        np.testing.assert_array_equal(kde.density_rank(X)[untied], direct_ranks[untied])
