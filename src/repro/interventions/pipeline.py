"""``FairnessPipeline``: dataset → intervention → learner → fairness report.

The facade composes the whole evaluation path behind one object::

    from repro import FairnessPipeline

    result = FairnessPipeline(intervention="confair", learner="lr", dataset="meps").run()
    print(result.report.di_star, result.details["alpha_u"])

It supports the three workflows the paper's evaluation is built on:

* **calibration-learner transfer** (Fig. 7): ``calibration_learner="xgb"``
  calibrates the intervention against one learner while the final model is
  trained with another — only allowed for interventions whose capabilities
  declare ``supports_calibration_transfer``;
* **degree sweeps without re-profiling** (Figs. 8/9): :meth:`sweep_degrees`
  fits the intervention once (profiling, constraint discovery) and then
  re-derives weights per intervention degree;
* **repeated random splits** (every aggregated figure):
  :meth:`run_repeated` re-splits and re-fits per derived seed, optionally in
  parallel (``n_jobs``), and stays deterministic either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets import load_dataset, split_dataset
from repro.datasets.splits import DatasetSplit
from repro.datasets.table import Dataset
from repro.exceptions import ExperimentError
from repro.fairness import FairnessReport, evaluate_predictions
from repro.interventions.base import (
    DeployedModel,
    Intervention,
    InterventionCapabilities,
    new_learner,
)
from repro.interventions.registry import (
    get_intervention_spec,
    intervention_accepts,
    make_intervention,
)
from repro.learners.base import BaseEstimator
from repro.telemetry import span
from repro.utils.parallel import thread_map
from repro.utils.random import spawn_seeds

DatasetSource = Union[str, Dataset, DatasetSplit]


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one end-to-end pipeline run.

    Besides the metrics the experiment harness aggregates (``report``,
    ``runtime_seconds``, ``details``) the result keeps the deploy-set
    ``predictions``, the fitted ``intervention``, and the serving ``model``
    so callers can inspect routing, weights, or chosen degrees after the
    fact.
    """

    dataset: str
    method: str
    learner: str
    seed: int
    report: FairnessReport
    runtime_seconds: float
    details: Dict[str, object]
    predictions: np.ndarray
    intervention: Intervention
    model: DeployedModel


@dataclass(frozen=True)
class DegreeSweepPoint:
    """One point of an intervention-degree sweep (Figs. 8/9)."""

    degree: float
    report: FairnessReport
    predictions: np.ndarray


class FairnessPipeline(BaseEstimator):
    """High-level facade running one intervention end to end.

    Parameters
    ----------
    intervention:
        Registered intervention name (see
        :func:`~repro.interventions.available_interventions`) or an
        :class:`~repro.interventions.Intervention` prototype instance
        (cloned per run).
    learner:
        Learner name or prototype for the *final* model.
    dataset:
        Dataset name (loaded and split per seed), a :class:`Dataset`
        (split per seed), or a ready :class:`DatasetSplit` (used as-is, so
        repeated runs vary only the learner seed).
    calibration_learner:
        Learner the intervention calibrates against when it differs from the
        final ``learner`` (the Fig. 7 transfer experiment); rejected for
        interventions that do not declare ``supports_calibration_transfer``.
    size_factor:
        Scale of the generated benchmark surrogate when ``dataset`` is a
        name.
    seed:
        Default seed for :meth:`run` (dataset generation, splitting, and all
        learners).
    intervention_params:
        Extra constructor parameters for the intervention; unknown ones
        raise :class:`~repro.exceptions.ExperimentError`.
    train_size, validation_size:
        Split fractions (paper: 70% / 15% / 15%).
    fit_n_jobs:
        Worker threads for the intervention's *fit-side* hot path — parallel
        partition profiling in ConFair/DiffFair (``None``/``1`` serial,
        ``-1`` one per CPU).  Forwarded as ``n_jobs`` to interventions whose
        constructor accepts it and silently ignored for the rest; results
        are bit-identical to serial fits either way.  Orthogonal to the
        ``n_jobs`` of :meth:`run_repeated`, which parallelizes across whole
        repeats.
    """

    def __init__(
        self,
        intervention: Union[str, Intervention] = "confair",
        learner="lr",
        *,
        dataset: DatasetSource = "lsac",
        calibration_learner=None,
        size_factor: Optional[float] = 0.05,
        seed: int = 0,
        intervention_params: Optional[Dict[str, object]] = None,
        train_size: float = 0.70,
        validation_size: float = 0.15,
        fit_n_jobs: Optional[int] = None,
    ) -> None:
        self.intervention = intervention
        self.learner = learner
        self.dataset = dataset
        self.calibration_learner = calibration_learner
        self.size_factor = size_factor
        self.seed = seed
        self.intervention_params = intervention_params
        self.train_size = train_size
        self.validation_size = validation_size
        self.fit_n_jobs = fit_n_jobs

    # ------------------------------------------------------------- running
    def run(self, seed: Optional[int] = None) -> PipelineResult:
        """Fit the intervention, build the final model, evaluate the deploy set."""
        seed = self.seed if seed is None else int(seed)
        with span(
            "pipeline.run",
            method=self._method_name(),
            learner=self._learner_name(),
            seed=seed,
        ):
            dataset_name, split = self._resolve_split(seed)
            intervention = self._build_intervention(seed)
            start = time.perf_counter()
            with span("pipeline.fit_intervention"):
                intervention.fit(split.train, validation=split.validation)
            with span("pipeline.make_model"):
                model = intervention.make_model(split, learner=self.learner, seed=seed)
            predictions = model.predict(split.deploy.X, group=split.deploy.group)
            elapsed = time.perf_counter() - start
            with span("pipeline.evaluate"):
                report = evaluate_predictions(split.deploy.y, predictions, split.deploy.group)
        details = {**intervention.details(), **model.details}
        return PipelineResult(
            dataset=dataset_name,
            method=self._method_name(),
            learner=self._learner_name(),
            seed=seed,
            report=report,
            runtime_seconds=elapsed,
            details=details,
            predictions=predictions,
            intervention=intervention,
            model=model,
        )

    def run_repeated(
        self,
        n_repeats: int = 3,
        *,
        base_seed: int = 7,
        n_jobs: Optional[int] = None,
    ) -> List[PipelineResult]:
        """Run over ``n_repeats`` derived seeds, optionally in parallel.

        Per-repeat seeds are derived deterministically from ``base_seed``
        (matching the serial experiment harness), and each repeat builds its
        own split and intervention, so results are identical whether they are
        computed serially or with ``n_jobs`` worker threads (``None``/``1``
        serial, ``-1`` one per CPU).
        """
        if n_repeats < 1:
            raise ExperimentError("n_repeats must be at least 1")
        return thread_map(self.run, spawn_seeds(base_seed, n_repeats), n_jobs=n_jobs)

    def sweep_degrees(
        self,
        degrees: Sequence[float],
        *,
        seed: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> List[DegreeSweepPoint]:
        """Evaluate a grid of intervention degrees without re-profiling.

        The intervention is fitted once (with its degree pinned, so no
        automatic search runs) and its ``weights_for_degree`` re-derives the
        training weights per degree; only the final model is retrained for
        each point.  Requires ``capabilities.supports_degree_sweep``.

        ``n_jobs`` retrains the per-degree final models in worker threads
        (falling back to the pipeline's ``fit_n_jobs`` when ``None``).  Each
        point builds its own seeded learner on private weights, so the sweep
        is bit-identical to the serial loop, in degree order.
        """
        capabilities = self._capabilities()
        if not capabilities.supports_degree_sweep:
            raise ExperimentError(
                f"Intervention {self._method_name()!r} does not support degree sweeps; "
                "only interventions with a declared degree_param do"
            )
        seed = self.seed if seed is None else int(seed)
        degrees = list(degrees)
        n_jobs = self.fit_n_jobs if n_jobs is None else n_jobs
        with span(
            "pipeline.sweep_degrees",
            method=self._method_name(),
            n_degrees=len(degrees),
            n_jobs=n_jobs,
        ):
            _, split = self._resolve_split(seed)
            intervention = self._build_intervention(
                seed, extra_params={capabilities.degree_param: 0.0}
            )
            with span("pipeline.fit_intervention"):
                intervention.fit(split.train, validation=split.validation)

            def evaluate(degree) -> DegreeSweepPoint:
                with span("pipeline.sweep_point", degree=float(degree)):
                    weights = intervention.weights_for_degree(float(degree))
                    model = new_learner(self.learner, seed)
                    model.fit(split.train.X, split.train.y, sample_weight=weights)
                    predictions = model.predict(split.deploy.X)
                    report = evaluate_predictions(
                        split.deploy.y, predictions, split.deploy.group
                    )
                return DegreeSweepPoint(
                    degree=float(degree), report=report, predictions=predictions
                )

            return thread_map(evaluate, degrees, n_jobs=n_jobs)

    # ------------------------------------------------------------ plumbing
    def _capabilities(self) -> InterventionCapabilities:
        if isinstance(self.intervention, str):
            return get_intervention_spec(self.intervention).capabilities
        return type(self.intervention).capabilities

    def _method_name(self) -> str:
        if isinstance(self.intervention, str):
            return self.intervention.strip().lower()
        return type(self.intervention).__name__

    def _learner_name(self) -> str:
        return self.learner if isinstance(self.learner, str) else type(self.learner).__name__

    def _resolve_split(self, seed: int) -> Tuple[str, DatasetSplit]:
        source = self.dataset
        if isinstance(source, DatasetSplit):
            return source.train.name, source
        if isinstance(source, Dataset):
            data = source
            name = source.name
        else:
            name = str(source)
            data = load_dataset(name, size_factor=self.size_factor, random_state=seed)
        split = split_dataset(
            data,
            train_size=self.train_size,
            validation_size=self.validation_size,
            random_state=seed,
        )
        return name, split

    def _constructor_learner(self):
        """The learner the intervention itself calibrates against."""
        if self.calibration_learner is None:
            return self.learner
        if not self._capabilities().supports_calibration_transfer:
            raise ExperimentError(
                f"Intervention {self._method_name()!r} does not support a separate "
                "calibration learner (capabilities.supports_calibration_transfer is False)"
            )
        return self.calibration_learner

    def _build_intervention(
        self, seed: int, extra_params: Optional[Dict[str, object]] = None
    ) -> Intervention:
        params = dict(self.intervention_params or {})
        for name, value in (extra_params or {}).items():
            params.setdefault(name, value)
        constructor_learner = self._constructor_learner()
        if isinstance(self.intervention, str):
            params.setdefault("learner", constructor_learner)
            params.setdefault("random_state", seed)
            if self.fit_n_jobs is not None and intervention_accepts(self.intervention, "n_jobs"):
                params.setdefault("n_jobs", self.fit_n_jobs)
            return make_intervention(self.intervention, **params)
        intervention = self.intervention.clone()
        if self.calibration_learner is not None:
            params.setdefault("learner", constructor_learner)
        accepted = intervention.get_params()
        if "random_state" in accepted:
            params.setdefault("random_state", seed)
        if self.fit_n_jobs is not None and "n_jobs" in accepted:
            params.setdefault("n_jobs", self.fit_n_jobs)
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            raise ExperimentError(
                f"Intervention {self._method_name()!r} does not accept parameter(s) "
                f"{', '.join(repr(p) for p in unknown)}; accepted parameters: "
                f"{tuple(sorted(accepted))}"
            )
        if params:
            intervention.set_params(**params)
        return intervention
