"""Kernel functions for density estimation.

Each kernel maps a matrix of Euclidean distances (already divided by the
bandwidth) to unnormalized kernel values; :class:`repro.density.kde.KernelDensity`
handles the normalization constant so that the estimated density integrates
to one in ``d`` dimensions.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from repro.exceptions import ValidationError


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

COMPACT_KERNELS = ("tophat", "epanechnikov")
"""Kernels with support bounded by one bandwidth."""


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
