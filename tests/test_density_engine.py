"""Equivalence, cache, and property tests for the batch density engine.

The central contract, against the frozen seed implementation kept in
``tests/density_reference.py``: the Gaussian KDE, which the engine sums in
log space (a declared change of 8.0.0), returns log-densities within
``GAUSSIAN_RTOL * max(1, |seed|)`` of the seed's wherever the seed's are
finite, and is finite where the seed's underflowed to ``-inf``.  Its ranks
keep the seed's order between every two rows whose seed scores differ by
more than that bound.  Rows whose norms overflow the expansion
``||x||^2 + ||y||^2 - 2 x.y`` score as direct differences do.
"""

import warnings

import numpy as np
import pytest
from density_reference import ReferenceKernelDensity, log_normalization
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density import KernelDensity, backend_cache_size, clear_backend_cache
from repro.serving.monitor import LOG_DENSITY_FLOOR, FairnessMonitor

GAUSSIAN_RTOL = 1e-12
"""Declared bound on the Gaussian's change: |new - seed| <= GAUSSIAN_RTOL * max(1, |seed|)."""


def assert_within_declared_bound(new, seed):
    finite = np.isfinite(seed)
    bound = GAUSSIAN_RTOL * np.maximum(1.0, np.abs(seed[finite]))
    assert np.all(np.abs(new[finite] - seed[finite]) <= bound)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# frozen equivalence: the Gaussian within the declared bound
# ---------------------------------------------------------------------------


class TestFrozenEquivalence:
    @pytest.mark.parametrize("kernel", ["gaussian"])
    def test_brute_bit_identical_to_seed(self, rng, kernel):
        X = rng.normal(size=(300, 3))
        queries = rng.normal(size=(60, 3))
        seed = ReferenceKernelDensity(kernel=kernel, bandwidth=0.8).fit(X)
        new = KernelDensity(kernel=kernel, bandwidth=0.8).fit(X)
        for target in (X, queries):
            assert_within_declared_bound(new.score_samples(target), seed.score_samples(target))
            np.testing.assert_array_equal(new.density_rank(target), seed.density_rank(target))

    def test_zero_density_rows_score_negative_infinity(self, rng):
        # Every squared distance from these rows to the data overflows, so
        # their density is zero in double precision, in the seed as here.
        X = rng.normal(size=(200, 2))
        far = np.full((3, 2), 1e200)
        seed = ReferenceKernelDensity(bandwidth=0.5).fit(X)
        kde = KernelDensity(bandwidth=0.5).fit(X)
        assert np.all(np.isneginf(seed.score_samples(far)))
        assert np.all(np.isneginf(kde.score_samples(far)))


# ---------------------------------------------------------------------------
# the Gaussian in log space: finite far from the data, -inf only on overflow
# ---------------------------------------------------------------------------


def _direct_gaussian_log_density(X, queries, bandwidth):
    """Log-sum-exp of the Gaussian kernel from pairwise differences, row by row."""
    n_rows, n_dims = X.shape
    scores = []
    for query in queries:
        exponents = -0.5 * np.sum(((query - X) / bandwidth) ** 2, axis=1)
        peak = exponents.max()
        log_sum = peak + np.log(np.sum(np.exp(exponents - peak)))
        scores.append(log_sum - np.log(n_rows) + log_normalization("gaussian", bandwidth, n_dims))
    return np.array(scores)


class TestLogSpaceGaussian:
    @pytest.fixture
    def fitted(self):
        X = np.random.default_rng(0).normal(size=(373, 6))
        return X, KernelDensity(kernel="gaussian", bandwidth="scott").fit(X)

    def test_far_rows_score_finite_and_rank_by_distance(self, fitted):
        X, kde = fitted
        near, far = np.full(6, 10.0), np.full(6, 12.0)
        queries = np.vstack([near, far])
        scores = kde.score_samples(queries)
        assert np.all(np.isfinite(scores))
        np.testing.assert_allclose(
            scores, _direct_gaussian_log_density(X, queries, kde.bandwidth_), rtol=1e-12, atol=0
        )
        # The seed underflowed both rows to -inf, a tie broken by input order.
        np.testing.assert_array_equal(kde.density_rank(queries), [0, 1])
        np.testing.assert_array_equal(kde.density_rank(queries[::-1]), [1, 0])

    def test_overflowing_row_scores_negative_infinity_and_clamps(self, fitted):
        X, kde = fitted
        huge = np.vstack([np.full(6, 1e160), X[:1]])
        scores = kde.score_samples(huge)
        assert np.isneginf(scores[0])
        assert np.isfinite(scores[1])
        monitor = FairnessMonitor(density_estimator=kde)
        clamped = monitor.log_density_scores(huge)
        assert clamped[0] == LOG_DENSITY_FLOOR
        assert clamped[1] == scores[1]
        # The row within the norm limit keeps the bits it has in a block
        # where no row passes the limit.
        assert scores[1] == kde.score_samples(np.vstack([np.zeros(6), X[:1]]))[1]

    def test_training_row_past_the_norm_limit_scores_like_direct_differences(self):
        # ||y||^2 overflows, so the expansion met inf - inf and scored NaN.
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[0] = 1e160
        queries = np.array([[1e160, 1e160], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = KernelDensity(bandwidth=0.5).fit(X).score_samples(queries)
        with np.errstate(over="ignore"):
            direct = _direct_gaussian_log_density(X, queries, 0.5)
        np.testing.assert_allclose(scores, direct, rtol=1e-12, atol=0)
        assert scores[0] == pytest.approx(-4.3636, abs=1e-4)

    def test_saturated_cross_term_no_longer_puts_a_far_row_on_the_data(self):
        # -2 x.y overflowed to -inf and clamped the squared distance to 0, so
        # (1.3e154, 0) scored as if it lay on a training row.
        X = np.array([[1e154, 0.0], [0.0, 0.0]])
        queries = np.array([[1.3e154, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = KernelDensity(bandwidth=1.0).fit(X).score_samples(queries)
        np.testing.assert_allclose(
            scores, _direct_gaussian_log_density(X, queries, 1.0), rtol=1e-12, atol=0
        )
        assert scores[0] < -1e306


# ---------------------------------------------------------------------------
# the backend cache
# ---------------------------------------------------------------------------


class TestBackendCache:
    def test_refits_share_the_structure(self, rng):
        clear_backend_cache()
        X = rng.normal(size=(300, 2))
        first = KernelDensity(bandwidth=0.5).fit(X)
        second = KernelDensity(bandwidth=0.5).fit(X.copy())
        assert first._backend is second._backend
        assert backend_cache_size() == 1

    def test_kernel_and_bandwidth_share_the_structure(self, rng):
        # The cache key is the training sample's content alone.
        clear_backend_cache()
        X = rng.normal(size=(300, 2))
        first = KernelDensity(kernel="gaussian", bandwidth=0.5).fit(X)
        second = KernelDensity(kernel="Gaussian", bandwidth="scott").fit(X)
        assert first._backend is second._backend
        assert backend_cache_size() == 1

    def test_different_data_builds_different_structures(self, rng):
        clear_backend_cache()
        kde = KernelDensity(bandwidth=0.5)
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


# Discrete coordinates force duplicate rows (exact ties).
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
        # The Gaussian sums in another order than the seed, so rows the seed
        # separates by no more than the declared bound (tied rows, in
        # summation-order ulps) may swap; every other pair keeps its order.
        new = KernelDensity(kernel="gaussian", bandwidth=0.7).fit(X)
        seed = ReferenceKernelDensity(kernel="gaussian", bandwidth=0.7).fit(X)
        seed_scores = seed.score_samples(X)
        assert_within_declared_bound(new.score_samples(X), seed_scores)
        magnitude = np.maximum(1.0, np.abs(seed_scores))
        separated = seed_scores[:, None] - seed_scores[None, :] > GAUSSIAN_RTOL * np.maximum(
            magnitude[:, None], magnitude[None, :]
        )
        ranks = new.density_rank(X)
        assert np.all((ranks[:, None] < ranks[None, :])[separated])

    def test_density_rank_consistent_on_continuous_data(self, rng):
        # The blockwise expansion ||a||^2 + ||b||^2 - 2 a.b and direct
        # differences agree to ulp precision, so ranks agree wherever the
        # density is not tied with another row.
        X = rng.normal(size=(250, 2))
        kde = KernelDensity(bandwidth=0.6).fit(X)
        direct = _direct_gaussian_log_density(X, X, 0.6)
        np.testing.assert_allclose(kde.score_samples(X), direct, rtol=1e-12)
        unique_scores, counts = np.unique(direct, return_counts=True)
        untied = np.isin(direct, unique_scores[counts == 1])
        direct_ranks = np.empty(len(X), dtype=np.int64)
        direct_ranks[np.argsort(-direct, kind="mergesort")] = np.arange(len(X))
        np.testing.assert_array_equal(kde.density_rank(X)[untied], direct_ranks[untied])
