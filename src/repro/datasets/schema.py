"""Schema descriptions for benchmark datasets.

A :class:`DatasetSpec` records the published summary statistics of a paper
benchmark (size, attribute counts, minority definition, label skew) and the
generation parameters used by its surrogate generator.  The Fig. 4 table of
the paper is reproduced directly from these specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class ColumnSpec:
    """Description of a single attribute column.

    Parameters
    ----------
    name:
        Column name.
    kind:
        ``"numeric"`` or ``"categorical"``.
    n_categories:
        Number of distinct values for categorical columns (ignored otherwise).
    missing_rate:
        Fraction of values replaced by nulls in the raw surrogate table.
    """

    name: str
    kind: str = "numeric"
    n_categories: int = 0
    missing_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("numeric", "categorical"):
            raise DatasetError(f"Column kind must be 'numeric' or 'categorical', got {self.kind!r}")
        if self.kind == "categorical" and self.n_categories < 2:
            raise DatasetError(f"Categorical column {self.name!r} needs at least 2 categories")
        if not 0.0 <= self.missing_rate < 1.0:
            raise DatasetError("missing_rate must be in [0, 1)")


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics and generation parameters of one benchmark dataset.

    The first block of fields mirrors the paper's Fig. 4; the second block
    parameterizes the drift injected by the surrogate generator.
    """

    name: str
    full_size: int
    n_numeric: int
    n_categorical: int
    minority_label: str
    minority_fraction: float
    minority_positive_rate: float
    predictive_task: str
    majority_positive_rate: float = 0.35
    drift_strength: float = 1.0
    class_separation: float = 1.6
    label_noise: float = 0.05
    categorical_cardinalities: Tuple[int, ...] = ()
    missing_rate: float = 0.01
    default_size_factor: float = 0.05

    def __post_init__(self) -> None:
        if self.full_size <= 0:
            raise DatasetError("full_size must be positive")
        if self.n_numeric < 0 or self.n_categorical < 0:
            raise DatasetError("attribute counts must be non-negative")
        if self.n_numeric + self.n_categorical == 0:
            raise DatasetError("dataset must have at least one attribute")
        for value, label in (
            (self.minority_fraction, "minority_fraction"),
            (self.minority_positive_rate, "minority_positive_rate"),
            (self.majority_positive_rate, "majority_positive_rate"),
            (self.label_noise, "label_noise"),
            (self.missing_rate, "missing_rate"),
        ):
            if not 0.0 <= value <= 1.0:
                raise DatasetError(f"{label} must be in [0, 1], got {value}")
        if not 0.0 < self.default_size_factor <= 1.0:
            raise DatasetError("default_size_factor must be in (0, 1]")
        if self.categorical_cardinalities and len(self.categorical_cardinalities) != self.n_categorical:
            raise DatasetError(
                "categorical_cardinalities length must match n_categorical when provided"
            )

    def scaled_size(self, size_factor: float) -> int:
        """Number of rows generated for a given ``size_factor``.

        A floor of 800 rows keeps the minority partitions of every benchmark
        large enough for the 70/15/15 split to contain all four (group, label)
        sub-populations.
        """
        if not 0.0 < size_factor <= 1.0:
            raise DatasetError("size_factor must be in (0, 1]")
        return max(800, int(round(self.full_size * size_factor)))

    def summary_row(self) -> Dict[str, object]:
        """One row of the Fig. 4 summary table."""
        return {
            "dataset": self.name,
            "size": self.full_size,
            "numerical": self.n_numeric,
            "categorical": self.n_categorical,
            "minority_group": self.minority_label,
            "minority_population": f"{self.minority_fraction * 100:.1f}%",
            "minority_positive_labels": f"{self.minority_positive_rate * 100:.1f}%",
            "predictive_task": self.predictive_task,
        }


def _paper_specs() -> Dict[str, DatasetSpec]:
    """Specs for the 7 paper benchmarks, calibrated to Fig. 4."""
    specs = [
        DatasetSpec(
            name="meps",
            full_size=15_675,
            n_numeric=6,
            n_categorical=34,
            minority_label="non-White",
            minority_fraction=0.616,
            minority_positive_rate=0.114,
            majority_positive_rate=0.28,
            predictive_task="high hospital utilization",
            drift_strength=1.2,
            class_separation=2.2,
            label_noise=0.05,
            default_size_factor=0.2,
        ),
        DatasetSpec(
            name="lsac",
            full_size=24_479,
            n_numeric=6,
            n_categorical=4,
            minority_label="African-American",
            minority_fraction=0.077,
            minority_positive_rate=0.566,
            majority_positive_rate=0.82,
            predictive_task="passing bar exam",
            drift_strength=1.0,
            label_noise=0.05,
            default_size_factor=0.15,
        ),
        DatasetSpec(
            name="credit",
            full_size=120_269,
            n_numeric=6,
            n_categorical=0,
            minority_label="age<35",
            minority_fraction=0.137,
            minority_positive_rate=0.107,
            majority_positive_rate=0.06,
            predictive_task="serious delay in 2 years",
            drift_strength=0.7,
            class_separation=2.6,
            label_noise=0.03,
            default_size_factor=0.03,
        ),
        DatasetSpec(
            name="acsp",
            full_size=86_600,
            n_numeric=4,
            n_categorical=14,
            minority_label="African-American",
            minority_fraction=0.092,
            minority_positive_rate=0.483,
            majority_positive_rate=0.68,
            predictive_task="covered by private insurance",
            drift_strength=1.0,
            label_noise=0.05,
            default_size_factor=0.04,
        ),
        DatasetSpec(
            name="acsh",
            full_size=250_847,
            n_numeric=4,
            n_categorical=21,
            minority_label="African-American",
            minority_fraction=0.073,
            minority_positive_rate=0.093,
            majority_positive_rate=0.22,
            predictive_task="having health insurance",
            drift_strength=1.1,
            class_separation=2.2,
            label_noise=0.04,
            default_size_factor=0.015,
        ),
        DatasetSpec(
            name="acse",
            full_size=250_847,
            n_numeric=4,
            n_categorical=11,
            minority_label="African-American",
            minority_fraction=0.073,
            minority_positive_rate=0.393,
            majority_positive_rate=0.57,
            predictive_task="employment",
            drift_strength=1.0,
            label_noise=0.05,
            default_size_factor=0.015,
        ),
        DatasetSpec(
            name="acsi",
            full_size=250_847,
            n_numeric=6,
            n_categorical=13,
            minority_label="African-American",
            minority_fraction=0.073,
            minority_positive_rate=0.402,
            majority_positive_rate=0.60,
            predictive_task="income poverty rate < 250",
            drift_strength=1.0,
            label_noise=0.05,
            default_size_factor=0.015,
        ),
    ]
    return {spec.name: spec for spec in specs}


PAPER_DATASET_SPECS: Dict[str, DatasetSpec] = _paper_specs()
"""Mapping of dataset name to its :class:`DatasetSpec` (the Fig. 4 table)."""
