"""Experiment harness regenerating every table and figure of the paper.

The harness has three layers:

* :class:`repro.interventions.FairnessPipeline` — fit-and-evaluate one
  (dataset, method, learner, seed) cell and return a
  :class:`~repro.fairness.FairnessReport` plus the wall-clock cost.
* :mod:`repro.experiments.aggregate` — repeat cells over seeds and average.
* one module per paper artifact (``figure02`` … ``figure14``) — compose the
  cells each figure needs and render the same rows/series the paper reports.

Drift-detection reports over a deployed intervention are not figures of the
paper: :meth:`repro.simulate.SuiteRunner.run` and ``repro-simulate suite``
produce them.

Every figure function returns a :class:`~repro.experiments.reporting.FigureResult`
whose ``rows`` are plain dictionaries (easy to assert on in benchmarks) and
whose ``render()`` produces an aligned text table.
"""

from repro.experiments.aggregate import AggregatedCell, aggregate_cells
from repro.experiments.comparison import run_comparison
from repro.experiments.config import DEFAULT_REAL_WORLD_DATASETS, ExperimentConfig
from repro.experiments.figure02 import run_figure02
from repro.experiments.figure04 import run_figure04
from repro.experiments.figure05 import run_figure05
from repro.experiments.figure06 import run_figure06
from repro.experiments.figure07 import run_figure07
from repro.experiments.figure08 import run_figure08, run_intervention_sweep
from repro.experiments.figure09 import run_figure09
from repro.experiments.figure11 import run_figure11
from repro.experiments.figure12 import run_figure12
from repro.experiments.figure13 import run_figure13
from repro.experiments.figure14 import run_figure14
from repro.experiments.reporting import FigureResult, render_table

__all__ = [
    "AggregatedCell",
    "DEFAULT_REAL_WORLD_DATASETS",
    "ExperimentConfig",
    "FigureResult",
    "aggregate_cells",
    "render_table",
    "run_comparison",
    "run_figure02",
    "run_figure04",
    "run_figure05",
    "run_figure06",
    "run_figure07",
    "run_figure08",
    "run_figure09",
    "run_figure11",
    "run_figure12",
    "run_figure13",
    "run_figure14",
    "run_intervention_sweep",
]
