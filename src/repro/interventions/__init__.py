"""Unified intervention protocol, registry, and the ``FairnessPipeline`` facade.

This package defines the public estimator surface for every fairness
intervention in the library:

* :class:`Intervention` — the abstract protocol (``fit`` /
  ``make_model`` / ``details`` / ``get_params`` / ``set_params`` /
  ``clone``) with a declared :class:`InterventionCapabilities` descriptor.
  ConFair, DiffFair and the five baselines implement it themselves;
* the registry — :func:`register_intervention`, :func:`make_intervention`,
  :func:`available_interventions` — through which methods are resolved by
  the names the paper's figures use (``confair``, ``diffair``, ``kam``, …).
  The table below registers the built-in methods;
* :class:`FairnessPipeline` — the dataset → intervention → learner →
  :class:`~repro.fairness.FairnessReport` facade used by the experiment
  harness and the examples.

New interventions plug in without touching the experiment runner::

    from repro.interventions import Intervention, register_intervention

    @register_intervention("my-method", summary="...")
    class MyMethod(Intervention):
        ...
"""

from repro.interventions.base import (
    DeployedModel,
    Intervention,
    InterventionCapabilities,
)
from repro.interventions.registry import (
    InterventionSpec,
    available_interventions,
    describe_interventions,
    get_intervention_spec,
    intervention_accepts,
    make_intervention,
    register_intervention,
)

# The estimators import repro.interventions.base, which is loaded above.
from repro.baselines import (
    CapuchinRepair,
    KamiranReweighing,
    MultiModel,
    NoIntervention,
    OmniFairReweighing,
)
from repro.core import ConFair, DiffFair
from repro.interventions.pipeline import (
    DegreeSweepPoint,
    FairnessPipeline,
    PipelineResult,
)

# Registration order is the canonical order of available_interventions(),
# matching the paper's figures.  The ``*0`` names are the Fig. 13 ablation
# variants: the full method's class with ``use_density_filter=False``.
_ABLATION = {"use_density_filter": False}
for _name, _cls, _defaults, _summary in (
    ("none", NoIntervention, None, "train the learner on the raw data (reference point)"),
    (
        "multimodel",
        MultiModel,
        None,
        "one model per group, routed by the declared group attribute",
    ),
    ("diffair", DiffFair, None, "group-dependent models routed by conformance"),
    (
        "diffair0",
        DiffFair,
        _ABLATION,
        "DiffFair without the density-based CC optimization (Fig. 13 ablation)",
    ),
    ("confair", ConFair, None, "conformance-driven reweighing (the paper's headline)"),
    (
        "confair0",
        ConFair,
        _ABLATION,
        "ConFair without the density-based CC optimization (Fig. 13 ablation)",
    ),
    ("kam", KamiranReweighing, None, "Kamiran & Calders frequency-based reweighing"),
    ("omn", OmniFairReweighing, None, "OmniFair-style model-calibrated group reweighing"),
    ("cap", CapuchinRepair, None, "Capuchin-style invasive data repair"),
):
    register_intervention(_name, defaults=_defaults, summary=_summary)(_cls)
del _name, _cls, _defaults, _summary

__all__ = [
    "DegreeSweepPoint",
    "DeployedModel",
    "FairnessPipeline",
    "Intervention",
    "InterventionCapabilities",
    "InterventionSpec",
    "PipelineResult",
    "available_interventions",
    "describe_interventions",
    "get_intervention_spec",
    "intervention_accepts",
    "make_intervention",
    "register_intervention",
]
