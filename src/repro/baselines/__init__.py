"""Baselines the paper compares against.

* :class:`NoIntervention` — train the learner on the raw data (the reference
  every figure compares against).
* :class:`MultiModel` — naive model splitting routed by true group membership.
* :class:`KamiranReweighing` (KAM) — frequency-based group/label reweighing
  (Kamiran & Calders 2011).
* :class:`OmniFairReweighing` (OMN) — model-output-calibrated group-level
  reweighing with a λ intervention degree (OmniFair, SIGMOD 2021 — the group
  reweighing core the paper evaluates).
* :class:`CapuchinRepair` (CAP) — the invasive comparator: repairs the
  categorical view of the data toward independence of group and label by
  resampling (Capuchin, SIGMOD 2019 — interface-level reimplementation).

Each implements the :class:`~repro.interventions.Intervention` protocol
itself and is registered as ``none``, ``multimodel``, ``kam``, ``omn`` and
``cap`` respectively.
"""

from repro.baselines.capuchin import CapuchinRepair
from repro.baselines.kamiran import KamiranReweighing
from repro.baselines.multimodel import MultiModel
from repro.baselines.no_intervention import NoIntervention
from repro.baselines.omnifair import OmniFairReweighing

__all__ = [
    "CapuchinRepair",
    "KamiranReweighing",
    "MultiModel",
    "NoIntervention",
    "OmniFairReweighing",
]
