"""Frozen copy of the seed density implementation — DO NOT MODIFY.

This module preserves the blockwise brute-force path of the seed's KDE
(:class:`ReferenceKernelDensity`), its arithmetic exactly as it shipped
before the batch density engine replaced it.  It is the oracle of the engine's
*frozen-equivalence guarantee*: ``tests/test_density_engine.py`` scores the
same inputs through both implementations and asserts that log-densities and
density ranks are **bit-identical**, so any numerical drift in the engine is
caught immediately.
"""

from __future__ import annotations

import numpy as np

from repro.density.kde import scott_bandwidth, silverman_bandwidth
from repro.density.kernels import kernel_by_name, log_normalization
from repro.exceptions import ValidationError
from repro.learners.base import BaseEstimator
from repro.utils.validation import check_array


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
