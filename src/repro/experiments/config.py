"""Experiment configuration shared by the per-figure runners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.baselines.omnifair import DEFAULT_LAM_GRID
from repro.core.confair import DEFAULT_TUNING_GRID
from repro.exceptions import ExperimentError

DEFAULT_REAL_WORLD_DATASETS: Tuple[str, ...] = (
    "meps",
    "lsac",
    "credit",
    "acsp",
    "acsh",
    "acse",
    "acsi",
)
"""The 7 real-world benchmarks in the order the paper's figures list them."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment.

    Parameters
    ----------
    datasets:
        Dataset names to evaluate (see :func:`repro.datasets.available_datasets`).
    learners:
        Learner names (``"lr"``, ``"xgb"``).
    n_repeats:
        Number of repeated random splits averaged per cell (the paper uses
        20; benchmarks default to a smaller value to stay laptop-fast).
    size_factor:
        Fraction of each benchmark's published size to generate (``None``
        uses the per-dataset laptop-scale default).
    base_seed:
        Seed from which all per-repeat seeds are derived.
    tuning_grid:
        Candidate ``alpha_u`` values for ConFair's automatic search.
    lam_grid:
        Candidate λ values for OMN's automatic search.
    """

    datasets: Tuple[str, ...] = DEFAULT_REAL_WORLD_DATASETS
    learners: Tuple[str, ...] = ("lr", "xgb")
    n_repeats: int = 3
    size_factor: Optional[float] = 0.05
    base_seed: int = 7
    tuning_grid: Tuple[float, ...] = DEFAULT_TUNING_GRID
    lam_grid: Tuple[float, ...] = DEFAULT_LAM_GRID

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ExperimentError("ExperimentConfig needs at least one dataset")
        if not self.learners:
            raise ExperimentError("ExperimentConfig needs at least one learner")
        if self.n_repeats < 1:
            raise ExperimentError("n_repeats must be at least 1")
        if self.size_factor is not None and not 0.0 < self.size_factor <= 1.0:
            raise ExperimentError("size_factor must be in (0, 1]")

    def quick(self) -> "ExperimentConfig":
        """A single-repeat, small-size copy (used by smoke tests)."""
        return ExperimentConfig(
            datasets=self.datasets,
            learners=self.learners,
            n_repeats=1,
            size_factor=min(self.size_factor or 0.05, 0.03),
            base_seed=self.base_seed,
            tuning_grid=(0.0, 1.0, 2.0),
            lam_grid=(0.0, 0.5, 1.0),
        )
