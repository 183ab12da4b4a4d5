"""Exception hierarchy for the ``repro`` package.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class when they only care about "something in the library
failed" as opposed to a programming error such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied input fails validation.

    Inherits from :class:`ValueError` so that generic callers that expect
    ``ValueError`` for bad input keep working.
    """


class DatasetError(ReproError):
    """Raised for problems constructing, loading, or registering datasets."""


class ConstraintError(ReproError):
    """Raised for invalid conformance-constraint construction or use."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration cannot be executed."""


class ArtifactError(ReproError):
    """Raised when a serving artifact cannot be saved or loaded.

    Covers schema-version mismatches, manifests referencing estimator
    classes this build does not provide, corrupted or missing payloads, and
    attempts to serialize objects that carry no persistable state.
    """


class SimulationError(ReproError):
    """Raised for invalid traffic-simulation setups.

    Covers unknown scenario names, scenario parameters the scenario does not
    accept, malformed schedules/compositions, and replays driven without the
    monitor the scoring needs.
    """


class FleetError(ReproError):
    """Raised for sharded-serving failures in :mod:`repro.fleet`.

    Covers worker processes that die or fail to start, requests dispatched
    to a closed worker, and invalid fleet configuration (no workers).
    Monitor-merge mismatches raise :class:`ValidationError` from the
    monitor itself.
    """


class TelemetryError(ReproError):
    """Raised for invalid telemetry use in :mod:`repro.telemetry`.

    Covers metric-name collisions across metric kinds, histogram merges
    whose bucket layouts or resolutions disagree, and malformed telemetry
    state dictionaries.
    """
