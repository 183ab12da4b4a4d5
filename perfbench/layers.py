"""In-memory span tracer and the layer map of the traced run.

The traced run wraps the public functions and methods listed in
:data:`SPANNED` with spans recorded from this file: nothing in ``src/`` is
edited, and the wrappers are installed only for the traced pass and removed
afterwards, so untraced runs execute the program unchanged.

Every span records its name, start, end, parent span and request id.  Spans
of one thread nest through a thread-local stack.  The one cross-thread edge
is the fleet hop: a shard's ``PredictionService.predict`` runs on the fleet's
executor thread, so it is parented to the ``FleetService.predict`` span that
minted the ``trace_id`` the fleet passes to ``worker.predict``.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  :func:`layer_metrics` turns the recorded spans and
counts into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (layer bucket, "module:Qualified.name") of every wrapped call.
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("profiling.violation", "repro.profiling.constraints:ConstraintSet.violation"),
    ("core.diffair.route", "repro.core.diffair:DiffFair.route"),
    ("density.score", "repro.density.kde:KernelDensity.score_samples"),
    ("learners.predict", "repro.learners.logistic:LogisticRegressionClassifier.predict_proba"),
    ("learners.predict", "repro.learners.boosting:GradientBoostingClassifier.predict_proba"),
    ("learners.fit", "repro.learners.logistic:LogisticRegressionClassifier.fit"),
    ("learners.fit", "repro.learners.boosting:GradientBoostingClassifier.fit"),
    ("learners.fit", "repro.learners.tree:DecisionTreeRegressor.fit"),
    ("serving.monitor.update", "repro.serving.monitor:FairnessMonitor.update"),
    ("serving.monitor.read", "repro.serving.monitor:FairnessMonitor.drift_status"),
    ("serving.monitor.read", "repro.serving.monitor:FairnessMonitor.density_status"),
    ("serving.monitor.read", "repro.serving.monitor:FairnessMonitor.group_status"),
    ("serving.monitor.read", "repro.serving.monitor:FairnessMonitor.windowed_summary"),
    ("serving.monitor.state", "repro.serving.monitor:FairnessMonitor.state_dict"),
    ("serving.monitor.state", "repro.serving.monitor:FairnessMonitor.load_state_dict"),
    ("serving.monitor.merge", "repro.serving.monitor:FairnessMonitor.merge_state_dicts"),
    ("fleet.hop", "repro.fleet.service:FleetService.predict"),
    ("fleet.monitor", "repro.fleet.service:FleetService.monitor"),
    ("fleet.snapshot", "repro.fleet.service:FleetService.snapshots"),
    ("serving.service.self", "repro.serving.service:PredictionService.predict"),
    ("fairness.counts", "repro.fairness.streaming:StreamCounts.from_batch"),
    ("fairness.evaluate", "repro.fairness.report:evaluate_predictions"),
    ("simulate.stream", "repro.simulate.stream:TrafficStream.__iter__"),
    ("simulate.harness", "repro.simulate.replay:ReplayHarness.replay"),
    ("core.profile", "repro.core.partitions:profile_partitions"),
    ("core.density_filter", "repro.core.density_filter:density_filter_indices"),
    ("profiling.discover", "repro.profiling.discovery:discover_constraints"),
    ("core.tuning", "repro.core.tuning:tune_intervention_degree"),
    ("serving.artifacts.save", "repro.serving.artifacts:save_artifact"),
    ("serving.artifacts.load", "repro.serving.artifacts:load_artifact"),
    ("datasets.load", "repro.datasets.registry:load_dataset"),
    ("datasets.load", "repro.datasets.splits:split_dataset"),
)

#: Bucket -> the layer row of the layer table in ``perfbench/REFERENCE.json``.
LAYER_OF: Dict[str, str] = {
    "profiling.violation": "profiling",
    "core.diffair.route": "core.diffair",
    "density.score": "density",
    "learners.predict": "learners",
    "learners.fit": "learners",
    "serving.monitor.update": "serving.monitor.write",
    "serving.monitor.read": "serving.monitor.read",
    "serving.monitor.state": "serving.monitor.read",
    "serving.monitor.merge": "serving.monitor.read",
    "fleet.hop": "fleet",
    "fleet.monitor": "fleet",
    "fleet.snapshot": "fleet",
    "serving.service.self": "serving.service",
    "fairness.counts": "fairness",
    "fairness.evaluate": "fairness",
    "simulate.stream": "simulate",
    "simulate.harness": "simulate",
    "core.profile": "core.fit",
    "core.density_filter": "core.fit",
    "profiling.discover": "core.fit",
    "core.tuning": "core.fit",
    "serving.artifacts.save": "artifacts.datasets",
    "serving.artifacts.load": "artifacts.datasets",
    "datasets.load": "artifacts.datasets",
}

#: Calls that are counted but not spanned (one span per constraint would
#: cost more than the constraint evaluation it measures).
COUNTED = {
    "profiling.constraint_evals": "repro.profiling.constraints:ConformanceConstraint.violations",
}

#: Per-operation self-time metrics: (metric name, buckets).  The unit is the
#: name's suffix; each also gets a ``*_pct`` share of the traced wall time.
TIMED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("profiling.violation_ms", ("profiling.violation",)),
    ("core.diffair.route_ms", ("core.diffair.route",)),
    ("density.score_ms", ("density.score",)),
    ("learners.predict_ms", ("learners.predict",)),
    ("learners.fit_s", ("learners.fit",)),
    ("serving.monitor.update_ms", ("serving.monitor.update",)),
    ("serving.monitor.read_ms", ("serving.monitor.read",)),
    ("serving.monitor.state_ms", ("serving.monitor.state",)),
    ("serving.monitor.merge_ms", ("serving.monitor.merge",)),
    ("fleet.hop_ms", ("fleet.hop",)),
    ("fleet.monitor_ms", ("fleet.monitor",)),
    ("fleet.snapshot_ms", ("fleet.snapshot",)),
    ("serving.service.self_ms", ("serving.service.self",)),
    ("fairness.counts_ms", ("fairness.counts",)),
    ("fairness.evaluate_ms", ("fairness.evaluate",)),
    ("simulate.stream_ms", ("simulate.stream",)),
    ("simulate.harness_ms", ("simulate.harness",)),
    ("core.profile_s", ("core.profile",)),
    ("core.density_filter_s", ("core.density_filter",)),
    ("profiling.discover_s", ("profiling.discover",)),
    ("core.tuning_s", ("core.tuning",)),
)

#: Set-up layers are reported per set-up, every other timing per operation.
SETUP_TIMED: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serving.artifacts.save_s", ("serving.artifacts.save",)),
    ("serving.artifacts.load_s", ("serving.artifacts.load",)),
    ("datasets.load_s", ("datasets.load",)),
)

ROOT = "bench.run"
#: The machine-speed probes (``speed.probe``) of a traced pass: spanned so
#: they count toward no layer and toward no unattributed time.
PROBE = "bench.probe"


class Span:
    __slots__ = ("name", "bucket", "start", "end", "parent", "request", "children")

    def __init__(self, name: str, bucket: str, parent: Optional["Span"], request) -> None:
        self.name = name
        self.bucket = bucket
        self.parent = parent
        self.request = request
        self.children: List[Span] = []
        self.end: Optional[float] = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the child intervals inside it."""
        covered = 0.0
        cursor = self.start
        for child in sorted(self.children, key=lambda span: span.start):
            if child.end is None:
                continue
            lo, hi = max(child.start, cursor), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class Tracer:
    """Collects spans and counts while ``enabled``; one closed-loop client.

    ``request`` is the client's current operation, a ``(kind, index)``
    pair; every span started while it is set carries it, on any thread
    (the single client has exactly one operation in flight).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.request: Tuple[str, int] = ("setup", 0)
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._links: Dict[str, Span] = {}
        self._open_fleet: Optional[Span] = None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, bucket: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, bucket, parent, self.request)
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, counter: str, n: int = 1) -> None:
        self.counts[counter] += n

    @contextmanager
    def root(self):
        """The traced pass's root span; its self time is unattributed time."""
        self.enabled = True
        span = self.begin(ROOT, ROOT)
        try:
            yield span
        finally:
            self.end(span)
            self.enabled = False

    @contextmanager
    def paused(self):
        """Run benchmark-side reads without recording them."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # ------------------------------------------------------------ wrappers
    def _spanned(self, name: str, bucket: str, fn: Callable) -> Callable:
        tracer = self
        if name == "TrafficStream.__iter__":

            @functools.wraps(fn)
            def batches(*args, **kwargs):
                # One span per batch drawn, closed before the batch is yielded.
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer.begin(name, bucket) if tracer.enabled else None
                    try:
                        batch = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            tracer.end(span)
                    yield batch

            return batches

        counts_rows = name == "KernelDensity.score_samples"
        joins_hop = name == "PredictionService.predict"
        mints_trace_ids = name == "FleetService.predict"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counts_rows:
                tracer.count("density.rows_scored", len(args[1] if len(args) > 1 else kwargs["X"]))
            # A shard's predict runs on the fleet's executor thread: its parent
            # is the fleet span that minted the trace id it was handed.
            parent = tracer._links.get(kwargs.get("trace_id")) if joins_hop else None
            span = tracer.begin(name, bucket, parent)
            if mints_trace_ids:
                tracer._open_fleet = span
            try:
                return fn(*args, **kwargs)
            finally:
                if mints_trace_ids:
                    tracer._open_fleet = None
                tracer.end(span)

        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.count(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _linking(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace_id = fn(*args, **kwargs)
            if tracer.enabled and tracer._open_fleet is not None:
                tracer._links[trace_id] = tracer._open_fleet
            return trace_id

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        undo: List[Callable[[], None]] = []
        try:
            for bucket, target in SPANNED:
                undo.append(_patch(target, lambda fn, t=target, b=bucket: self._spanned(
                    t.split(":")[1], b, fn)))
            for counter, target in COUNTED.items():
                undo.append(_patch(target, lambda fn, c=counter: self._counted(c, fn)))
            undo.append(_patch("repro.fleet.service:FleetService.trace_id_for", self._linking))
            undo.append(_patch("speed:probe", lambda fn: self._spanned("probe", PROBE, fn)))
            yield self
        finally:
            for restore in reversed(undo):
                restore()


def _patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Wrap one function or method in place; returns the undo callback.

    A class attribute is replaced on its class (bound-method lookups then
    see the wrapper).  A module-level function is replaced in every loaded
    module that imported it by name, the benchmark's own included.
    """
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attribute = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(make_wrapper(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            wrapped = make_wrapper(raw)
        setattr(cls, attribute, wrapped)
        return lambda: setattr(cls, attribute, raw)

    original = getattr(module, qualname)
    wrapped = make_wrapper(original)
    replaced = []
    for loaded in list(sys.modules.values()):
        for attribute, value in list(getattr(loaded, "__dict__", {}).items()):
            if value is original:
                setattr(loaded, attribute, wrapped)
                replaced.append((loaded, attribute))

    def restore() -> None:
        for loaded, attribute in replaced:
            setattr(loaded, attribute, original)

    return restore


# ---------------------------------------------------------------- metrics
def self_times(tracer: Tracer) -> Dict[Tuple[str, str], float]:
    """Total self seconds per (bucket, request kind)."""
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for span in tracer.spans:
        totals[(span.bucket, span.request[0])] += span.self_time()
    return totals


def layer_metrics(
    tracer: Tracer,
    *,
    traced_wall: float,
    scale: float,
    overhead: float,
    n_ops: int,
    cache: Dict[str, int],
    window_chunks: int,
    rejected: int,
    stats_coverage: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Timings are self time per operation (set-up layers: per set-up, the
    traced pass has one), multiplied by ``scale`` to the reference speed,
    plus a ``*_pct`` share of the traced wall time.  ``traced_wall`` leaves
    out the probes' time; ``overhead`` is the traced over the untraced wall
    time, both without probes and at the reference speed, minus one.
    A layer that does not run in the workload reports 0.  ``cache`` is
    ``backend_cache_stats()`` at the end of the traced pass: its counters
    run from the last cache clear, which is the traced set-up for ``serve``
    and ``fleet_replay`` and the start of the last round for ``fit``.
    """
    totals = self_times(tracer)
    by_bucket: Dict[str, float] = defaultdict(float)
    for (bucket, _), seconds in totals.items():
        by_bucket[bucket] += seconds
    out: Dict[str, Tuple[float, str]] = {}
    for metrics, per in ((TIMED, max(n_ops, 1)), (SETUP_TIMED, 1)):
        for name, buckets in metrics:
            seconds = sum(by_bucket[b] for b in buckets)
            stem, unit = name.rsplit("_", 1)
            to_unit = 1e3 if unit == "ms" else 1.0
            out[name] = (seconds * scale * to_unit / per, unit)
            out[f"{stem}_pct"] = (100.0 * seconds / traced_wall, "%")

    names = defaultdict(int)
    fleet_reads = fleet_reads_merged = 0
    for span in tracer.spans:
        names[span.name] += 1
        if span.name == "FleetService.monitor":
            fleet_reads += 1
            fleet_reads_merged += any(
                child.name == "FairnessMonitor.merge_state_dicts" for child in span.children
            )
    counted = tracer.counts
    ops = max(n_ops, 1)
    lookups = cache["hits"] + cache["builds"]
    out.update(
        {
            "profiling.constraint_evals": (counted["profiling.constraint_evals"] / ops, "count"),
            "density.rows_scored": (counted["density.rows_scored"] / ops, "rows"),
            "density.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
            "learners.fit_calls": (
                (
                    names["LogisticRegressionClassifier.fit"]
                    + names["GradientBoostingClassifier.fit"]
                )
                / ops,
                "count",
            ),
            "learners.tree_fits": (names["DecisionTreeRegressor.fit"] / ops, "count"),
            "serving.monitor.merges": (names["FairnessMonitor.merge_state_dicts"] / ops, "count"),
            "serving.monitor.window_chunks": (float(window_chunks), "count"),
            "fleet.merge_cache_hit_ratio": (
                (fleet_reads - fleet_reads_merged) / fleet_reads if fleet_reads else 0.0,
                "ratio",
            ),
            "serving.service.rejected": (float(rejected), "count"),
            "serving.service.stats_coverage": (stats_coverage, "ratio"),
            "trace.unattributed_pct": (100.0 * by_bucket[ROOT] / traced_wall, "%"),
            "trace.overhead_pct": (100.0 * overhead, "%"),
        }
    )
    return out


def layer_shares(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per request kind: each layer's share (%) of that kind's attributed
    self time, largest first."""
    per_kind: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (bucket, kind), seconds in self_times(tracer).items():
        if bucket in LAYER_OF:
            per_kind[kind][LAYER_OF[bucket]] += seconds
    shares = {}
    for kind, layers in per_kind.items():
        total = sum(layers.values())
        if total > 0:
            shares[kind] = {
                layer: 100.0 * seconds / total
                for layer, seconds in sorted(layers.items(), key=lambda item: -item[1])
            }
    return shares
