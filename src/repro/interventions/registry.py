"""The registry of fairness interventions, keyed by method name.

Interventions register by name: the built-in methods through the table in
:mod:`repro.interventions`, plug-ins through the decorator::

    @register_intervention("my-method", summary="what it does")
    class MyMethod(Intervention):
        ...

and callers resolve names through :func:`make_intervention`, which validates
keyword arguments against the intervention's constructor signature and raises
:class:`~repro.exceptions.ExperimentError` — naming the offending parameter
and listing the accepted ones — instead of silently dropping inapplicable
options (the failure mode of the old 9-branch runner dispatch).

One class may register under several names with different preset defaults;
that is how the Fig. 13 ablation variants (``confair0``/``diffair0``, which
skip the density-based CC optimization) share their implementation with the
full methods.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.exceptions import ExperimentError
from repro.interventions.base import Intervention, InterventionCapabilities

_REGISTRY: Dict[str, "InterventionSpec"] = {}


@dataclass(frozen=True)
class InterventionSpec:
    """One registry entry: the intervention class plus name-specific presets."""

    name: str
    cls: Type[Intervention]
    defaults: Mapping[str, object] = field(default_factory=dict)
    summary: str = ""

    @property
    def capabilities(self) -> InterventionCapabilities:
        return self.cls.capabilities

    def accepted_params(self) -> Tuple[str, ...]:
        """Constructor parameter names the intervention accepts."""
        signature = inspect.signature(self.cls.__init__)
        return tuple(
            name
            for name, param in signature.parameters.items()
            if name != "self" and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        )


def register_intervention(
    name: str,
    *,
    defaults: Optional[Mapping[str, object]] = None,
    summary: str = "",
) -> Callable[[Type[Intervention]], Type[Intervention]]:
    """Class decorator registering an :class:`Intervention` under ``name``.

    Parameters
    ----------
    name:
        Public method identifier (lower-case; what :func:`make_intervention`
        resolves).
    defaults:
        Constructor presets applied for this name (user kwargs override
        them); used to register ablation variants of a shared class.
    summary:
        One-line description shown by :func:`describe_interventions`.
    """

    def decorator(cls: Type[Intervention]) -> Type[Intervention]:
        key = name.strip().lower()
        if key in _REGISTRY:
            raise ExperimentError(f"Intervention {key!r} is already registered")
        if not issubclass(cls, Intervention):
            raise ExperimentError(
                f"@register_intervention target {cls.__name__} must subclass Intervention"
            )
        _REGISTRY[key] = InterventionSpec(
            name=key, cls=cls, defaults=dict(defaults or {}), summary=summary
        )
        return cls

    return decorator


def available_interventions() -> List[str]:
    """Registered intervention names, in registration (paper) order."""
    return list(_REGISTRY)


def describe_interventions() -> Dict[str, str]:
    """Mapping of registered name to its one-line summary."""
    return {name: spec.summary for name, spec in _REGISTRY.items()}


def get_intervention_spec(name: str) -> InterventionSpec:
    """Resolve ``name`` (case-insensitive) to its registry entry."""
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ExperimentError(
            f"Unknown intervention {name!r}; available interventions: "
            f"{tuple(available_interventions())}"
        ) from None


def intervention_accepts(name: str, param: str) -> bool:
    """Whether intervention ``name`` accepts constructor parameter ``param``."""
    return param in get_intervention_spec(name).accepted_params()


def make_intervention(name: str, **kwargs) -> Intervention:
    """Instantiate a registered intervention by name.

    Keyword arguments are validated against the intervention's constructor:
    unknown parameters raise :class:`~repro.exceptions.ExperimentError`
    naming the rejected option and the accepted ones, so experiment configs
    can no longer silently carry options the method never reads.
    """
    spec = get_intervention_spec(name)
    accepted = spec.accepted_params()
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ExperimentError(
            f"Intervention {spec.name!r} does not accept parameter(s) "
            f"{', '.join(repr(p) for p in unknown)}; accepted parameters: {accepted}"
        )
    params = dict(spec.defaults)
    params.update(kwargs)
    return spec.cls(**params)
