"""Frozen copy of the seed density implementation — DO NOT MODIFY.

This module preserves the blockwise brute-force path of the seed's KDE
(:class:`ReferenceKernelDensity`), its arithmetic exactly as it shipped
before the batch density engine replaced it.  It is the oracle of the engine's
*frozen-equivalence guarantee*: ``tests/test_density_engine.py`` scores the
same inputs through both implementations and asserts that log-densities and
density ranks are **bit-identical**, so any numerical drift in the engine is
caught immediately.  (Edited in 9.0.0 only to copy in, verbatim, the
kernel, normalization and bandwidth helpers it imported from
``repro.density``, where 9.0.0 deleted all but Scott's rule, so the oracle
no longer moves with the code it checks.)
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from repro.exceptions import ValidationError
from repro.learners.base import BaseEstimator
from repro.utils.validation import check_array

# --------------------------------------------------------------------------
# the seed's kernels, normalization and bandwidth rules (copied verbatim)
# --------------------------------------------------------------------------


def gaussian_kernel(scaled_distances: np.ndarray) -> np.ndarray:
    """Gaussian kernel ``exp(-u^2 / 2)``."""
    return np.exp(-0.5 * scaled_distances**2)


def tophat_kernel(scaled_distances: np.ndarray) -> np.ndarray:
    """Tophat (uniform) kernel: 1 inside the unit ball, 0 outside."""
    return (scaled_distances <= 1.0).astype(np.float64)


def epanechnikov_kernel(scaled_distances: np.ndarray) -> np.ndarray:
    """Epanechnikov kernel ``max(0, 1 - u^2)``."""
    return np.maximum(0.0, 1.0 - scaled_distances**2)


_KERNELS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": gaussian_kernel,
    "tophat": tophat_kernel,
    "epanechnikov": epanechnikov_kernel,
}


def kernel_by_name(name: str) -> Callable[[np.ndarray], np.ndarray]:
    """Look up a kernel function by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in _KERNELS:
        raise ValidationError(f"Unknown kernel {name!r}; available: {sorted(_KERNELS)}")
    return _KERNELS[key]


def unit_ball_volume(n_dims: int) -> float:
    """Volume of the d-dimensional unit ball (used for tophat normalization)."""
    return math.pi ** (n_dims / 2.0) / math.gamma(n_dims / 2.0 + 1.0)


def log_normalization(kernel: str, bandwidth: float, n_dims: int) -> float:
    """Log of the normalization constant making the kernel integrate to one."""
    if bandwidth <= 0:
        raise ValidationError("bandwidth must be positive")
    if kernel == "gaussian":
        return -0.5 * n_dims * math.log(2.0 * math.pi) - n_dims * math.log(bandwidth)
    if kernel == "tophat":
        return -math.log(unit_ball_volume(n_dims)) - n_dims * math.log(bandwidth)
    if kernel == "epanechnikov":
        # Integral of (1 - |u|^2) over the unit ball is V_d * 2 / (d + 2).
        volume = unit_ball_volume(n_dims) * 2.0 / (n_dims + 2.0)
        return -math.log(volume) - n_dims * math.log(bandwidth)
    raise ValidationError(f"Unknown kernel {kernel!r}")


def scott_bandwidth(X: np.ndarray) -> float:
    """Scott's rule of thumb: ``n**(-1/(d+4))`` times the mean feature std."""
    X = check_array(X, name="X")
    n_samples, n_dims = X.shape
    sigma = float(np.mean(X.std(axis=0)))
    if sigma <= 0:
        sigma = 1.0
    return sigma * n_samples ** (-1.0 / (n_dims + 4.0))


def silverman_bandwidth(X: np.ndarray) -> float:
    """Silverman's rule of thumb: ``(n*(d+2)/4)**(-1/(d+4))`` times the mean std."""
    X = check_array(X, name="X")
    n_samples, n_dims = X.shape
    sigma = float(np.mean(X.std(axis=0)))
    if sigma <= 0:
        sigma = 1.0
    return sigma * (n_samples * (n_dims + 2.0) / 4.0) ** (-1.0 / (n_dims + 4.0))


class ReferenceKernelDensity(BaseEstimator):
    """The seed KDE's blockwise brute-force path."""

    def __init__(self, bandwidth="scott", kernel: str = "gaussian") -> None:
        self.bandwidth = bandwidth
        self.kernel = kernel

    # -------------------------------------------------------------------- fit
    def fit(self, X) -> "ReferenceKernelDensity":
        X = check_array(X, name="X")
        kernel_by_name(self.kernel)  # validate the kernel name early

        if isinstance(self.bandwidth, str):
            rule = self.bandwidth.strip().lower()
            if rule == "scott":
                resolved = scott_bandwidth(X)
            elif rule == "silverman":
                resolved = silverman_bandwidth(X)
            else:
                raise ValidationError(
                    f"Unknown bandwidth rule {self.bandwidth!r}; use 'scott' or 'silverman'"
                )
        else:
            resolved = float(self.bandwidth)
        if resolved <= 0:
            raise ValidationError("bandwidth must resolve to a positive value")

        self.bandwidth_ = resolved
        self.training_data_ = X.copy()
        self.n_features_ = X.shape[1]
        return self

    # ------------------------------------------------------------------ score
    def score_samples(self, X) -> np.ndarray:
        self._check_fitted("training_data_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_:
            raise ValidationError(
                f"X has {X.shape[1]} features, estimator was fitted with {self.n_features_}"
            )
        kernel_fn = kernel_by_name(self.kernel)
        log_norm = log_normalization(self.kernel, self.bandwidth_, self.n_features_)
        n_train = self.training_data_.shape[0]

        densities = np.empty(X.shape[0], dtype=np.float64)
        # Brute force in manageable blocks to bound memory.
        train_sq = np.einsum("ij,ij->i", self.training_data_, self.training_data_)
        block = max(1, int(4e6 // max(n_train, 1)))
        for start in range(0, X.shape[0], block):
            chunk = X[start : start + block]
            chunk_sq = np.einsum("ij,ij->i", chunk, chunk)
            squared = (
                chunk_sq[:, None] + train_sq[None, :] - 2.0 * (chunk @ self.training_data_.T)
            )
            np.maximum(squared, 0.0, out=squared)
            scaled = np.sqrt(squared) / self.bandwidth_
            densities[start : start + block] = kernel_fn(scaled).sum(axis=1)

        with np.errstate(divide="ignore"):
            log_density = np.log(densities) - np.log(n_train) + log_norm
        return log_density

    def score(self, X) -> float:
        return float(np.sum(self.score_samples(X)))

    def density_rank(self, X) -> np.ndarray:
        log_density = self.score_samples(X)
        order = np.argsort(-log_density, kind="mergesort")
        ranks = np.empty_like(order)
        ranks[order] = np.arange(order.size)
        return ranks
