"""``repro.fleet``: a sharded serving fleet with one exact fairness monitor.

One :class:`~repro.serving.PredictionService` scales to one process.  The
fleet scales the same artifact to N shards without giving up the monitoring
guarantees the serving layer was built around:

* **Shard workers** (:class:`InlineShardWorker`, :class:`ProcessShardWorker`)
  each serve the artifact and score every request they serve with their
  :class:`~repro.serving.FairnessMonitor`'s configuration, returning the
  scored chunk with the predictions; no shard keeps a window.  Process
  workers load with ``load_artifact(..., mmap_mode="r")``, so the payload
  arrays are memory-mapped from a shared extraction cache: per-worker cold
  start is O(manifest), and the weights occupy one physical copy
  machine-wide.
* **The front-end** (:class:`FleetService`) sends each request whole to
  the next shard round-robin, on the caller's thread, stamps it with a
  stream-wide sequence number, and commits the returned chunks in sequence
  order into the fleet's one monitor — the union-stream monitor, kept
  current as requests finish, so reading it is a status read.  This is
  delta-state shipping of an already mergeable summary: a chunk is the
  window's delta for one request.
* **The proof** (:func:`compare_sharded_replay`) replays a drift scenario
  through the fleet and through a single service and asserts the scored
  verdicts are bit-identical — alarms, detection latency, windowed DI*
  trace, everything but wall-clock throughput.

Scaling out
-----------
Start from a saved artifact and a saved baseline-installed monitor::

    from repro.fleet import FleetService, ProcessShardWorker

    workers = [
        ProcessShardWorker("model.artifact", shard_id=i,
                           monitor_path="monitor.artifact")
        for i in range(8)
    ]
    with FleetService(workers) as fleet:
        predictions = fleet.predict(X, group)      # sync facade
        report = fleet.fleet_report()              # fleet window + per-shard stats

Observability
-------------
Shard workers carry **private** telemetry registries (inline shards are
handed one; process workers record into their own process's default
registry), so per-shard ``serving.*`` histograms merge into one fleet view
without double counting — exactly, via integer sufficient statistics.
:meth:`FleetService.fleet_report` surfaces
per-shard ``cold_start_seconds``, the ``mmap_cache`` hit/miss outcome of
each artifact load, per-shard latency quantiles, and a ``telemetry``
section with the merged view; :meth:`FleetService.telemetry_report` is the
full ``--metrics-out`` payload (front-end + per-shard + merged state), and
``repro-telemetry`` summarizes or diffs it.  When a worker process dies,
the raised :class:`~repro.exceptions.FleetError` carries the shard id, the
process exit code, and the last in-flight/served sequence range.

The flight recorder spans the fleet the same way.  Shard workers carry
private :class:`~repro.telemetry.EventLog`\\ s whose ``request`` events are
keyed by the stream-wide sequence stamps, so
:meth:`FleetService.events_report` (the ``--events-out`` payload) folds
frontend + shard logs into the event stream a single service would have
recorded — bit-identically, proven by the flight-recorder test next to
:func:`compare_sharded_replay`.  The front-end stamps each dispatched
micro-batch with a deterministic trace id
(:meth:`FleetService.trace_id_for`), shard-side ``serving.request`` spans
carry it together with the shard id and served sequence, and
:meth:`FleetService.trace` (or ``repro-telemetry trace --trace-id ...``
over the dumps) stitches the frontend and shard views of one request back
together.  Worker process start/close lands in the frontend log as
``worker_lifecycle`` events carrying the shard id and the phase; the
cold-start timings stay in :meth:`FleetService.snapshots` and the fleet
report, so two runs of one command record identical events.

Async callers use ``await fleet.predict_async(...)``, which runs
``predict`` on the event loop's default executor.  The ``repro-fleet`` CLI
wraps the same pieces: ``serve`` (throughput + fleet report), ``replay``
(sharded-vs-single equivalence check), and ``report`` (inspect a saved
fleet report).
"""

from repro.fleet.replay import (
    ShardedReplayComparison,
    compare_sharded_replay,
    diff_replay_results,
)
from repro.fleet.service import FleetService
from repro.fleet.workers import InlineShardWorker, ProcessShardWorker, ShardSnapshot

__all__ = [
    "FleetService",
    "InlineShardWorker",
    "ProcessShardWorker",
    "ShardSnapshot",
    "ShardedReplayComparison",
    "compare_sharded_replay",
    "diff_replay_results",
]
