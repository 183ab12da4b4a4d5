"""Versioned save/load of fitted models, interventions, and pipelines.

An artifact is a directory with two files:

* ``manifest.json`` — schema version, library version, user metadata, and the
  *structure* of the saved object: a JSON tree in which every non-scalar
  value is a tagged node (``{"__kind__": "estimator", ...}``) and every
  numpy array is a reference into the payload;
* ``payload.npz`` — the numeric payload, one entry per referenced array,
  stored losslessly (float64 bits survive exactly, which is what makes the
  round-trip guarantee *bit-identical predictions*, not merely close ones).

What can be saved: anything reachable from the supported roots — fitted
learners and transformers (every :class:`~repro.learners.base.BaseEstimator`
that declares ``_state_attributes``), fitted interventions, whole
:class:`~repro.interventions.DeployedModel` artifacts (via their captured
``predictor``), :class:`~repro.interventions.PipelineResult` bundles, fitted
:class:`~repro.datasets.preprocessing.PreprocessingPipeline` transforms, and
:class:`~repro.datasets.Dataset` objects.

Failure modes are deliberate and typed: every problem — unreadable or
corrupted manifest, payload checksum mismatch, schema version from a newer
library, a manifest referencing an estimator class this build does not
provide — raises :class:`~repro.exceptions.ArtifactError` with a message
naming the offending part.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Type

import numpy as np

import repro
from repro.baselines.capuchin import CapuchinRepair
from repro.baselines.kamiran import KamiranReweighing
from repro.baselines.multimodel import MultiModel
from repro.baselines.no_intervention import NoIntervention
from repro.baselines.omnifair import OmniFairReweighing
from repro.core.confair import ConFair
from repro.core.diffair import DiffFair
from repro.core.partitions import PartitionProfile
from repro.datasets.preprocessing import PreprocessingPipeline
from repro.datasets.table import Dataset
from repro.density.kde import KernelDensity
from repro.exceptions import ArtifactError, ReproError
from repro.fairness.report import FairnessReport
from repro.interventions.base import DeployedModel
from repro.interventions.pipeline import PipelineResult
from repro.learners.base import BaseEstimator
from repro.learners.boosting import GradientBoostingClassifier
from repro.learners.encoder import OneHotEncoder
from repro.learners.logistic import LogisticRegressionClassifier
from repro.learners.scaler import MinMaxScaler, StandardScaler
from repro.learners.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.profiling.constraints import ConformanceConstraint, ConstraintSet
from repro.profiling.discovery import DiscoveryConfig
from repro.profiling.projections import Projection
from repro.serving.monitor import MonitorBaselines, MonitorThresholds
from repro.telemetry import get_registry as _get_telemetry_registry

ARTIFACT_SCHEMA_VERSION = 1
"""Bumped whenever the manifest/payload layout changes incompatibly."""

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.npz"

_KIND = "__kind__"

# Estimator classes a manifest may reference.  An explicit allowlist (rather
# than importing whatever the manifest names) keeps loading predictable and
# turns "this build lacks that learner" into a clear ArtifactError.
_SERIALIZABLE_CLASSES: Dict[str, Type[BaseEstimator]] = {
    f"{cls.__module__}.{cls.__qualname__}": cls
    for cls in (
        LogisticRegressionClassifier,
        GradientBoostingClassifier,
        DecisionTreeClassifier,
        DecisionTreeRegressor,
        OneHotEncoder,
        StandardScaler,
        MinMaxScaler,
        PreprocessingPipeline,
        KernelDensity,
        ConFair,
        DiffFair,
        MultiModel,
        KamiranReweighing,
        OmniFairReweighing,
        CapuchinRepair,
        NoIntervention,
    )
}


def register_serializable(cls: Type[BaseEstimator]) -> Type[BaseEstimator]:
    """Allowlist an estimator class for artifact (de)serialization.

    Usable as a decorator by downstream code that defines custom learners or
    interventions and wants them to round-trip through artifacts.
    """
    _SERIALIZABLE_CLASSES[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return cls


# --------------------------------------------------------------------------
# encoding
# --------------------------------------------------------------------------


class _Encoder:
    """Encode a Python object tree into (JSON tree, {ref: ndarray}).

    Composite objects (estimators, datasets, deployed models, profiles) are
    memoized by identity: the first encounter encodes the full node wrapped
    in ``shared``, later encounters emit a ``backref``.  That keeps shared
    structure shared — a ``PipelineResult`` whose ``model.predictor`` *is*
    its ``intervention`` stores the estimator once, and the decoder restores
    the same object identity.
    """

    _MEMOIZED_TYPES: tuple = (
        DeployedModel,
        PipelineResult,
        Dataset,
        PartitionProfile,
        ConstraintSet,
        ConformanceConstraint,
        Projection,
        DiscoveryConfig,
        FairnessReport,
        BaseEstimator,
    )

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self._memo: Dict[int, int] = {}
        self._next_shared = 0

    def _store(self, array: np.ndarray) -> Dict[str, Any]:
        if array.dtype == object:
            raise ArtifactError(
                "Object-dtype arrays cannot be stored in an artifact payload; "
                "give the owning estimator a state_dict() that unpacks them"
            )
        ref = f"a{len(self.arrays)}"
        self.arrays[ref] = array
        return {_KIND: "ndarray", "ref": ref}

    def encode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (np.bool_,)):
            return bool(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            return float(value)
        if isinstance(value, np.ndarray):
            return self._store(value)
        if isinstance(value, list):
            return [self.encode(item) for item in value]
        if isinstance(value, tuple):
            return {_KIND: "tuple", "items": [self.encode(item) for item in value]}
        if isinstance(value, dict):
            return {
                _KIND: "dict",
                "items": [[self.encode(k), self.encode(v)] for k, v in value.items()],
            }
        if isinstance(value, MonitorThresholds):
            return {_KIND: "monitor_thresholds", "fields": self.encode(value.to_dict())}
        if isinstance(value, MonitorBaselines):
            return {_KIND: "monitor_baselines", "fields": self.encode(value.to_dict())}
        if isinstance(value, self._MEMOIZED_TYPES):
            index = self._memo.get(id(value))
            if index is not None:
                return {_KIND: "backref", "index": index}
            index = self._next_shared
            self._next_shared += 1
            self._memo[id(value)] = index
            return {_KIND: "shared", "index": index, "value": self._encode_object(value)}
        raise ArtifactError(
            f"Cannot serialize value of type {type(value).__name__} into an artifact"
        )

    def _encode_object(self, value: Any) -> Dict[str, Any]:
        if isinstance(value, DeployedModel):
            return self._encode_deployed_model(value)
        if isinstance(value, PipelineResult):
            return self._encode_pipeline_result(value)
        if isinstance(value, Dataset):
            return self._encode_dataset(value)
        if isinstance(value, PartitionProfile):
            return {
                _KIND: "partition_profile",
                "constraint_sets": self.encode(value.constraint_sets),
                "partition_sizes": self.encode(value.partition_sizes),
                "profiled_sizes": self.encode(value.profiled_sizes),
            }
        if isinstance(value, ConstraintSet):
            return {
                _KIND: "constraint_set",
                "label": value.label,
                "constraints": [self.encode(c) for c in value.constraints],
            }
        if isinstance(value, ConformanceConstraint):
            return {
                _KIND: "constraint",
                "projection": self.encode(value.projection),
                "lower": value.lower,
                "upper": value.upper,
                "std": value.std,
            }
        if isinstance(value, Projection):
            return {
                _KIND: "projection",
                "coefficients": [float(c) for c in value.coefficients],
                "name": value.name,
                "projection_kind": value.kind,
            }
        if isinstance(value, DiscoveryConfig):
            return {
                _KIND: "discovery_config",
                "bound_factor": value.bound_factor,
                "include_simple": value.include_simple,
                "include_pca": value.include_pca,
                "max_pca_components": value.max_pca_components,
                "max_relative_std": value.max_relative_std,
                "min_constraints": value.min_constraints,
            }
        if isinstance(value, FairnessReport):
            return {_KIND: "fairness_report", "fields": self.encode(value.to_dict())}
        if isinstance(value, BaseEstimator):
            return self._encode_estimator(value)
        raise ArtifactError(
            f"Cannot serialize value of type {type(value).__name__} into an artifact"
        )

    def _encode_estimator(self, estimator: BaseEstimator) -> Dict[str, Any]:
        key = f"{type(estimator).__module__}.{type(estimator).__qualname__}"
        if key not in _SERIALIZABLE_CLASSES:
            raise ArtifactError(
                f"Estimator class {key} is not registered for serialization; "
                "add it with repro.serving.artifacts.register_serializable"
            )
        return {
            _KIND: "estimator",
            "class": key,
            "params": self.encode(estimator.get_params()),
            "state": self.encode(estimator.state_dict()),
        }

    def _encode_dataset(self, dataset: Dataset) -> Dict[str, Any]:
        return {
            _KIND: "dataset",
            "X": self._store(dataset.X),
            "y": self._store(dataset.y),
            "group": self._store(dataset.group),
            "feature_names": list(dataset.feature_names),
            "n_numeric_features": dataset.n_numeric_features,
            "name": dataset.name,
            "metadata": self.encode(dict(dataset.metadata)),
        }

    def _encode_deployed_model(self, model: DeployedModel) -> Dict[str, Any]:
        if model.predictor is None:
            raise ArtifactError(
                f"DeployedModel {model.name!r} was built from bare callables and "
                "carries no predictor; build it with DeployedModel.from_predictor "
                "to make it serializable"
            )
        return {
            _KIND: "deployed_model",
            "name": model.name,
            "requires_group": model.requires_group,
            "details": self.encode(model.details),
            "predictor": self.encode(model.predictor),
        }

    def _encode_pipeline_result(self, result: PipelineResult) -> Dict[str, Any]:
        return {
            _KIND: "pipeline_result",
            "dataset": result.dataset,
            "method": result.method,
            "learner": result.learner,
            "seed": result.seed,
            "report": self.encode(result.report),
            "runtime_seconds": result.runtime_seconds,
            "details": self.encode(result.details),
            "predictions": self._store(result.predictions),
            "intervention": self.encode(result.intervention),
            "model": self.encode(result.model),
        }


# --------------------------------------------------------------------------
# decoding
# --------------------------------------------------------------------------


class _Decoder:
    """Decode the JSON tree produced by :class:`_Encoder`."""

    def __init__(self, arrays) -> None:
        self.arrays = arrays
        self._shared: Dict[int, Any] = {}

    def _fetch(self, ref: str) -> np.ndarray:
        try:
            return self.arrays[ref]
        except KeyError:
            raise ArtifactError(
                f"Artifact payload is missing array {ref!r} referenced by the manifest"
            ) from None

    def decode(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        if isinstance(node, list):
            return [self.decode(item) for item in node]
        if not isinstance(node, dict):
            raise ArtifactError(f"Malformed manifest node of type {type(node).__name__}")
        kind = node.get(_KIND)
        decoder = getattr(self, f"_decode_{kind}", None)
        if decoder is None:
            raise ArtifactError(f"Manifest contains unknown node kind {kind!r}")
        try:
            return decoder(node)
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as error:
            # ReproError covers library validation (DatasetError, Constraint-
            # Error, ...) raised while rebuilding objects from manifest data;
            # the documented contract is that *every* load failure surfaces
            # as ArtifactError.
            raise ArtifactError(f"Malformed {kind!r} node in manifest: {error}") from error

    # ------------------------------------------------------------- kinds
    def _decode_shared(self, node) -> Any:
        value = self.decode(node["value"])
        self._shared[int(node["index"])] = value
        return value

    def _decode_backref(self, node) -> Any:
        index = int(node["index"])
        if index not in self._shared:
            raise ArtifactError(
                f"Manifest backref {index} appears before its shared definition"
            )
        return self._shared[index]

    def _decode_ndarray(self, node) -> np.ndarray:
        return self._fetch(node["ref"])

    def _decode_tuple(self, node) -> tuple:
        return tuple(self.decode(item) for item in node["items"])

    def _decode_dict(self, node) -> dict:
        return {self.decode(k): self.decode(v) for k, v in node["items"]}

    def _decode_estimator(self, node) -> BaseEstimator:
        key = node["class"]
        cls = _SERIALIZABLE_CLASSES.get(key)
        if cls is None:
            raise ArtifactError(
                f"Artifact references estimator class {key}, which this build does "
                "not provide (learner mismatch); register the class with "
                "repro.serving.artifacts.register_serializable before loading"
            )
        estimator = cls(**self.decode(node["params"]))
        estimator.load_state_dict(self.decode(node["state"]))
        return estimator

    def _decode_dataset(self, node) -> Dataset:
        return Dataset(
            X=self._fetch(node["X"]["ref"]),
            y=self._fetch(node["y"]["ref"]),
            group=self._fetch(node["group"]["ref"]),
            feature_names=tuple(node["feature_names"]),
            n_numeric_features=node["n_numeric_features"],
            name=node["name"],
            metadata=self.decode(node["metadata"]),
        )

    def _decode_partition_profile(self, node) -> PartitionProfile:
        return PartitionProfile(
            constraint_sets=self.decode(node["constraint_sets"]),
            partition_sizes=self.decode(node["partition_sizes"]),
            profiled_sizes=self.decode(node["profiled_sizes"]),
        )

    def _decode_constraint_set(self, node) -> ConstraintSet:
        return ConstraintSet(
            constraints=[self.decode(c) for c in node["constraints"]],
            label=node["label"],
        )

    def _decode_constraint(self, node) -> ConformanceConstraint:
        return ConformanceConstraint(
            projection=self.decode(node["projection"]),
            lower=node["lower"],
            upper=node["upper"],
            std=node["std"],
        )

    def _decode_projection(self, node) -> Projection:
        return Projection(
            coefficients=tuple(node["coefficients"]),
            name=node["name"],
            kind=node["projection_kind"],
        )

    def _decode_discovery_config(self, node) -> DiscoveryConfig:
        return DiscoveryConfig(
            bound_factor=node["bound_factor"],
            include_simple=node["include_simple"],
            include_pca=node["include_pca"],
            max_pca_components=node["max_pca_components"],
            max_relative_std=node["max_relative_std"],
            min_constraints=node["min_constraints"],
        )

    def _decode_fairness_report(self, node) -> FairnessReport:
        return FairnessReport(**self.decode(node["fields"]))

    def _decode_monitor_thresholds(self, node) -> MonitorThresholds:
        return MonitorThresholds.from_dict(self.decode(node["fields"]))

    def _decode_monitor_baselines(self, node) -> MonitorBaselines:
        return MonitorBaselines.from_dict(self.decode(node["fields"]))

    def _decode_deployed_model(self, node) -> DeployedModel:
        return DeployedModel.from_predictor(
            self.decode(node["predictor"]),
            requires_group=node["requires_group"],
            details=self.decode(node["details"]),
            name=node["name"],
        )

    def _decode_pipeline_result(self, node) -> PipelineResult:
        return PipelineResult(
            dataset=node["dataset"],
            method=node["method"],
            learner=node["learner"],
            seed=node["seed"],
            report=self.decode(node["report"]),
            runtime_seconds=node["runtime_seconds"],
            details=self.decode(node["details"]),
            predictions=self._fetch(node["predictions"]["ref"]),
            intervention=self.decode(node["intervention"]),
            model=self.decode(node["model"]),
        )


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


def find_profile(loaded) -> Optional[PartitionProfile]:
    """Best-effort partition profile for drift monitoring, wherever it lives.

    Accepts anything :func:`load_artifact` can return — a
    :class:`PipelineResult`, a :class:`DeployedModel`, or a bare fitted
    intervention — and returns the first ``profile_`` (the fit-time
    :class:`~repro.core.partitions.PartitionProfile`) found on the serving
    predictor, the intervention, or the object itself.  Used by every CLI
    and by the mitigation controller to build monitors from saved or
    freshly refitted models.
    """
    if isinstance(loaded, PipelineResult):
        candidates = (loaded.model.predictor, loaded.intervention)
    else:
        candidates = (getattr(loaded, "predictor", None), loaded)
    for candidate in candidates:
        profile = getattr(candidate, "profile_", None)
        if profile is not None:
            return profile
    return None


def _root_kind(node: Any) -> str:
    if isinstance(node, dict) and node.get(_KIND) == "shared":
        node = node["value"]
    return node.get(_KIND, "value") if isinstance(node, dict) else "value"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_artifact(
    obj: Any,
    path,
    *,
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist ``obj`` as a versioned artifact directory and return its path.

    Parameters
    ----------
    obj:
        A fitted estimator, intervention, :class:`DeployedModel`,
        :class:`PipelineResult`, :class:`PreprocessingPipeline`, or
        :class:`Dataset` (anything the artifact encoder supports).
    path:
        Target directory; created (parents included) if missing.  Existing
        manifest/payload files in it are overwritten.
    metadata:
        Optional free-form, JSON-serializable provenance attached to the
        manifest (e.g. the dataset and seed the model was fitted on).
    """
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    encoder = _Encoder()
    root = encoder.encode(obj)

    payload_path = target / PAYLOAD_NAME
    np.savez_compressed(payload_path, **encoder.arrays)

    manifest = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "repro_version": repro.__version__,
        "kind": _root_kind(root),
        "payload": {
            "file": PAYLOAD_NAME,
            "sha256": _sha256(payload_path),
            "n_arrays": len(encoder.arrays),
        },
        "metadata": dict(metadata or {}),
        "root": root,
    }
    manifest_path = target / MANIFEST_NAME
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return target


def read_manifest(path) -> Dict[str, Any]:
    """Read and validate an artifact's manifest (no payload access).

    Raises :class:`ArtifactError` for a missing/corrupted manifest or a
    schema version newer than this library supports.
    """
    target = Path(path)
    manifest_path = target / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"No artifact manifest at {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactError(f"Corrupted artifact manifest at {manifest_path}: {error}") from error
    if not isinstance(manifest, dict) or "schema_version" not in manifest:
        raise ArtifactError(f"Artifact manifest at {manifest_path} has no schema_version")
    version = manifest["schema_version"]
    if not isinstance(version, int) or version < 1 or version > ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"Artifact at {target} has schema version {version!r}; this build "
            f"supports versions 1..{ARTIFACT_SCHEMA_VERSION} (version mismatch)"
        )
    return manifest


def describe_artifact(path) -> Dict[str, Any]:
    """Cheap artifact summary: kind, versions, metadata — payload untouched."""
    manifest = read_manifest(path)
    return {
        "kind": manifest.get("kind", "value"),
        "schema_version": manifest["schema_version"],
        "repro_version": manifest.get("repro_version"),
        "n_arrays": manifest.get("payload", {}).get("n_arrays"),
        "metadata": manifest.get("metadata", {}),
    }


MMAP_CACHE_DIR = "payload.mmap"
"""Sibling directory of extracted ``.npy`` members backing mmap loads."""

_MMAP_STATS = {"hits": 0, "extractions": 0}
_MMAP_STATS_LOCK = threading.Lock()


def mmap_cache_stats() -> Dict[str, int]:
    """Cumulative mmap-cache outcomes for this process.

    ``hits``
        Loads that found a fresh (checksum-tagged) extraction cache and
        memory-mapped it directly.
    ``extractions``
        Loads that had to extract ``payload.npz`` into ``payload.mmap/``
        first — the first load of an artifact, or any load after the
        payload changed or a crash left the cache untagged.
    """
    with _MMAP_STATS_LOCK:
        return dict(_MMAP_STATS)


def _telemetry_collector(registry) -> None:
    # Export-time fold of the mmap-cache outcomes into gauges, mirroring
    # the density backend-cache collector: nothing on the load path.
    for stat, value in mmap_cache_stats().items():
        registry.gauge(f"serving.mmap_cache.{stat}").set(float(value))


_get_telemetry_registry().add_collector(_telemetry_collector)


def _mmap_payload(target: Path, payload_path: Path, payload_sha: str) -> Dict[str, np.ndarray]:
    """Memory-map the payload arrays through an extracted ``.npy`` cache.

    ``payload.npz`` is deflate-compressed, which numpy cannot memory-map, so
    the members are extracted *once* into ``payload.mmap/`` next to it (keyed
    by the payload's sha256 — a stale cache from an overwritten artifact is
    re-extracted, never reused) and every subsequent load memory-maps the
    raw ``.npy`` files.  The OS page cache then shares one physical copy of
    the weights across all worker processes serving the artifact: per-worker
    cold start is O(manifest), not O(weights).
    """
    cache_dir = target / MMAP_CACHE_DIR
    tag_path = cache_dir / "payload.sha256"
    try:
        fresh = tag_path.is_file() and tag_path.read_text(encoding="utf-8").strip() == payload_sha
    except OSError:
        fresh = False
    with _MMAP_STATS_LOCK:
        _MMAP_STATS["hits" if fresh else "extractions"] += 1
    try:
        if not fresh:
            cache_dir.mkdir(parents=True, exist_ok=True)
            if tag_path.is_file():
                tag_path.unlink()
            with np.load(payload_path, allow_pickle=False) as payload:
                for name in payload.files:
                    np.save(cache_dir / f"{name}.npy", payload[name])
            # The tag is written last: a crash mid-extraction leaves an
            # untagged cache that the next load redoes from the payload.
            tag_path.write_text(payload_sha + "\n", encoding="utf-8")
        with np.load(payload_path, allow_pickle=False) as payload:
            names = list(payload.files)
        return {
            name: np.load(cache_dir / f"{name}.npy", mmap_mode="r", allow_pickle=False)
            for name in names
        }
    except (OSError, ValueError) as error:
        raise ArtifactError(
            f"Cannot memory-map artifact payload at {payload_path} "
            f"(extraction cache {cache_dir}): {error}"
        ) from error


def load_artifact(path, *, mmap_mode: Optional[str] = None):
    """Load an artifact saved by :func:`save_artifact` and rebuild the object.

    The payload checksum is verified before any array is consumed, so a
    truncated or tampered payload raises :class:`ArtifactError` instead of
    silently yielding a different model.

    ``mmap_mode="r"`` memory-maps the payload arrays instead of materializing
    them: members are extracted once into a checksum-tagged ``payload.mmap/``
    cache beside the payload, and every load after that maps the raw files —
    N worker processes serving one artifact share a single physical copy of
    the weights.  The checksum is verified on *every* load (mmap included)
    before the cache is trusted.  The mapped arrays are read-only views, so
    a write into a loaded array raises; only ``"r"`` is supported — the
    cache is shared, so writable modes would let one worker corrupt every
    other worker's model.
    """
    if mmap_mode not in (None, "r"):
        raise ArtifactError(
            f"Unsupported mmap_mode {mmap_mode!r}: only 'r' (read-only shared "
            "mapping) is meaningful for a serving artifact"
        )
    target = Path(path)
    manifest = read_manifest(target)
    payload_info = manifest.get("payload") or {}
    payload_path = target / payload_info.get("file", PAYLOAD_NAME)
    if not payload_path.is_file():
        raise ArtifactError(f"Artifact payload missing at {payload_path}")
    expected = payload_info.get("sha256")
    actual = _sha256(payload_path)
    if expected is not None and actual != expected:
        raise ArtifactError(
            f"Artifact payload at {payload_path} does not match its manifest "
            "checksum (corrupted or tampered payload)"
        )
    if mmap_mode is not None:
        arrays = _mmap_payload(target, payload_path, actual)
        return _Decoder(arrays).decode(manifest.get("root"))
    try:
        with np.load(payload_path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
    except (OSError, ValueError) as error:
        raise ArtifactError(f"Cannot read artifact payload at {payload_path}: {error}") from error
    return _Decoder(arrays).decode(manifest.get("root"))
