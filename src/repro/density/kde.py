"""Gaussian kernel density estimation over the blockwise brute-force backend.

This mirrors the scikit-learn ``KernelDensity`` API used by Algorithm 3 of
the paper: ``fit(X)`` then ``score_samples(X)`` returning log-densities.
Only the *relative ranking* of densities matters to the density-filtering
optimization, but the estimator is a proper normalized KDE so it is usable as
a general substrate (and testable against analytic ground truth).  The
kernel is Gaussian and the bandwidth a fixed value or Scott's rule: the two
that Algorithm 3, the monitor's density channel and every CLI use.

``score_samples`` is batch-first: the whole query matrix is evaluated by
:class:`~repro.density.backends.BruteBackend`, which returns the Gaussian's
log kernel sums (blockwise pairwise distances, summed in log space) with no
Python loop over rows, and the backend is memoized across fits of the same
partition by the cache in :mod:`repro.density.backends`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.density.backends import get_backend
from repro.exceptions import ValidationError
from repro.learners.base import BaseEstimator
from repro.utils.validation import check_array


MIN_BANDWIDTH = 1e-150
"""Smallest bandwidth ``fit`` accepts: the Gaussian scales squared distances
by ``1 / (2 h**2)``, which overflows a double once ``h`` is below about 5e-155
(an exact zero distance would then score NaN)."""


def scott_bandwidth(X: np.ndarray) -> float:
    """Scott's rule of thumb: ``n**(-1/(d+4))`` times the mean feature std."""
    X = check_array(X, name="X")
    n_samples, n_dims = X.shape
    sigma = float(np.mean(X.std(axis=0)))
    if sigma <= 0:
        sigma = 1.0
    return sigma * n_samples ** (-1.0 / (n_dims + 4.0))


def _check_kernel(kernel) -> None:
    """Refuse every kernel name but ``"gaussian"`` (in any case)."""
    if not isinstance(kernel, str) or kernel.strip().lower() != "gaussian":
        raise ValidationError(f"Unknown kernel {kernel!r}; KernelDensity is Gaussian")


class KernelDensity(BaseEstimator):
    """Gaussian kernel density estimator scored by blockwise pairwise distances.

    Parameters
    ----------
    bandwidth:
        Positive kernel bandwidth, or ``"scott"`` to derive it from the
        training data by Scott's rule.
    kernel:
        ``"gaussian"``, in any case: the one kernel, named so that
        scikit-learn-style callers can pass it.  ``fit`` and
        ``load_state_dict`` refuse any other name.
    """

    # Fitted attributes that fully determine predictions; the backend is
    # derived state — it is rebuilt lazily from the training sample (via the
    # backend cache) after a load, which keeps artifacts small and the round
    # trip bit-identical.
    _state_attributes = ("bandwidth_", "training_data_", "n_features_")

    def __init__(self, bandwidth="scott", kernel: str = "gaussian") -> None:
        self.bandwidth = bandwidth
        self.kernel = kernel

    # -------------------------------------------------------------------- fit
    def fit(self, X) -> "KernelDensity":
        """Store the training sample and resolve the bandwidth."""
        X = check_array(X, name="X")
        _check_kernel(self.kernel)

        if isinstance(self.bandwidth, str):
            if self.bandwidth.strip().lower() != "scott":
                raise ValidationError(
                    f"Unknown bandwidth rule {self.bandwidth!r}; use 'scott' or a number"
                )
            resolved = scott_bandwidth(X)
        else:
            resolved = float(self.bandwidth)
        if not resolved >= MIN_BANDWIDTH:
            raise ValidationError(
                f"bandwidth must resolve to a positive value of at least {MIN_BANDWIDTH:g}, "
                f"got {resolved!r}"
            )

        self.bandwidth_ = resolved
        self.training_data_ = X.copy()
        self.n_features_ = X.shape[1]
        self._backend = get_backend(self.training_data_)
        return self

    def _get_backend(self):
        """The fitted backend, rebuilt (cache-assisted) after deserialization."""
        backend = getattr(self, "_backend", None)
        if backend is None:
            backend = get_backend(self.training_data_)
            self._backend = backend
        return backend

    def load_state_dict(self, state):
        """Restore fitted state; the backend is rebuilt on the next score."""
        _check_kernel(self.kernel)
        super().load_state_dict(state)
        self._backend = None
        return self

    # ------------------------------------------------------------------ score
    def score_samples(self, X) -> np.ndarray:
        """Return the log-density of each row of ``X`` under the fitted KDE.

        The whole batch is evaluated by the fitted backend in one vectorized
        pass, as ``log S(x) - log n + log-normalization`` with ``log S`` the
        backend's log kernel sum and ``-(d/2) log(2 pi) - d log h`` the
        Gaussian's normalization.  A log-density is finite however far a row
        lies from the data; only a row whose squared distances all overflow
        scores ``-inf``.
        """
        self._check_fitted("training_data_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, estimator was fitted with {self.n_features_}"
            )
        if self.bandwidth_ <= 0:
            raise ValidationError("bandwidth must be positive")
        n_dims = self.n_features_
        log_norm = -0.5 * n_dims * math.log(2.0 * math.pi) - n_dims * math.log(self.bandwidth_)
        n_train = self.training_data_.shape[0]
        log_sums = self._get_backend().log_kernel_sums(X, self.bandwidth_)
        return log_sums - np.log(n_train) + log_norm

    def score(self, X) -> float:
        """Total log-likelihood of ``X`` under the fitted KDE."""
        return float(np.sum(self.score_samples(X)))

    def density_rank(self, X) -> np.ndarray:
        """Return ranks of rows by descending density (0 = densest row)."""
        log_density = self.score_samples(X)
        order = np.argsort(-log_density, kind="mergesort")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(order.size)
        return ranks
