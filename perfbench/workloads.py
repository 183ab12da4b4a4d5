"""The three workloads: ``serve``, ``fleet_replay`` and ``fit``.

All three use the meps surrogate at ``size_factor=0.05`` generated and split
with :data:`DATA_SEED` (373 training rows, 123 features, 6 numeric), so every
run trains and serves the same models.  The run's ``--seed`` makes the
inputs the program receives: the request schedule of ``serve``, the traffic
stream of ``fleet_replay`` and the order of the four cells of ``fit``.  The
fit cost and the served models depend strongly on the data (two dataset
seeds differ by a quarter in fit time), so a seed-varied dataset would make
run-to-run spreads say more about the data than about the code.

Each workload is driven by one closed-loop client with no think time, the
way every in-repo caller drives a service.  A workload object is used as::

    workload.setup()            # timed by the caller as set-up
    workload.run(seconds=10)    # the timed phase
    checks = workload.check()   # output checks, after the timed phase
    workload.close()
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import (
    FairnessPipeline,
    MonitorThresholds,
    ReplayHarness,
    SuiteRunner,
    TrafficStream,
    ValidationError,
    evaluate_predictions,
    load_artifact,
    load_dataset,
    make_scenario,
    save_artifact,
    split_dataset,
)
from repro.density import KernelDensity, clear_backend_cache
from repro.fleet.replay import diff_replay_results
from repro.serving import find_profile
from speed import Clock

DATA_SEED = 7
SIZE_FACTOR = 0.05
WINDOW = 2000
SERVICE_BATCH = 512

#: (name, passed, detail) of one output check.
Check = Tuple[str, bool, str]


def load_split(size_factor: float = SIZE_FACTOR):
    data = load_dataset("meps", size_factor=size_factor, random_state=DATA_SEED)
    return split_dataset(data, random_state=DATA_SEED)


def monitored_runner(
    model, split, *, window: int, thresholds: MonitorThresholds
) -> SuiteRunner:
    """All three drift channels, set up as the serving CLIs set them by default:
    a conformance profile, a Scott/gaussian KDE whose baseline is calibrated on
    the validation split, and a group baseline."""
    density = KernelDensity(bandwidth="scott", kernel="gaussian").fit(split.train.numeric_X)
    return SuiteRunner(
        model,
        split.train,
        profile=find_profile(model),
        density_estimator=density,
        calibration=split.validation,
        window_size=window,
        thresholds=thresholds,
        service_batch_size=SERVICE_BATCH,
    )


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or None with fewer than ten samples beyond it."""
    if not samples:
        return None
    if q == 50:
        return statistics.median(samples)
    rank = math.ceil(q / 100.0 * len(samples))
    if len(samples) - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def report_failure(what: str) -> None:
    print(f"perfbench: unexpected failure in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Timed:
    """What the timed phase measured.

    ``samples`` and ``wall`` are at the reference speed (see ``speed.py``),
    ``raw`` and ``raw_wall`` as measured.  Samples are kept as packed
    doubles: ``peak_rss_mb`` is gated, and what a run keeps must not grow
    noticeably with the number of operations a faster program completes.
    """

    iterations: int = 0  # outer loop turns; the traced pass repeats exactly these
    n_ops: int = 0  # operations per-layer metrics are normalized by
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    wall: float = 0.0  # seconds behind records_per_s
    raw_wall: float = 0.0
    samples: Dict[str, array] = field(default_factory=dict)
    raw: Dict[str, array] = field(default_factory=dict)

    def add(self, kind: str, seconds: float, scale: float) -> None:
        self.samples.setdefault(kind, array("d")).append(seconds * scale)
        self.raw.setdefault(kind, array("d")).append(seconds)
        self.wall += seconds * scale
        self.raw_wall += seconds


# -------------------------------------------------------------------- serve
@dataclass(frozen=True)
class Request:
    kind: str  # "small" (1 row) or "large"
    X: np.ndarray
    group: np.ndarray
    y: np.ndarray
    bad: Optional[str] = None  # "nan" or "width": must be rejected


class Serve:
    """DiffFair(lr) artifact behind one monitored ``PredictionService``.

    The client sends a seeded interleaving of 1-row and 1000-row requests
    resampled from the deploy split: in every ten requests one is large, and
    in every hundred one carries a NaN row or has the wrong width.  The
    monitor is written on every request and never read in the loop.
    """

    name = "serve"

    def __init__(self, seed: int, *, tiny: bool, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.clock = Clock(every=10)
        self.large_rows = 50 if tiny else 1000
        self.schedule_len = 200 if tiny else 1000
        self.pool_size = 4 if tiny else 16
        # Every response is checked, but only the first of each schedule slot
        # is kept; later ones are compared with it as they arrive.
        self.first_responses: Dict[int, np.ndarray] = {}
        self.n_responses = 0
        self.repeat_mismatches = 0
        self.timed = Timed()
        self.inside = {"small": 0.0, "large": 0.0}
        self.rejected = 0

    def _schedule(self, deploy) -> List[Request]:
        rng = np.random.default_rng(self.seed)
        n = deploy.n_samples

        def rows(count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            index = rng.integers(0, n, size=count)
            return deploy.X[index], deploy.group[index], deploy.y[index]

        pool = [rows(self.large_rows) for _ in range(self.pool_size)]
        large = np.zeros(self.schedule_len, dtype=bool)
        for block in range(0, self.schedule_len, 10):
            large[block + rng.integers(10)] = True
        bad = np.zeros(self.schedule_len, dtype=bool)
        for block in range(0, self.schedule_len, 100):
            bad[block + rng.integers(100)] = True
        schedule = []
        for slot in range(self.schedule_len):
            kind = "large" if large[slot] else "small"
            X, group, y = pool[rng.integers(self.pool_size)] if large[slot] else rows(1)
            flaw = None
            if bad[slot]:
                flaw = ("nan", "width")[rng.integers(2)]
                if flaw == "nan":
                    X = X.copy()
                    X[rng.integers(X.shape[0]), rng.integers(X.shape[1])] = np.nan
                else:
                    X = X[:, :-1] if rng.integers(2) else np.hstack([X, X[:, :1]])
            schedule.append(Request(kind, X, group, y, flaw))
        return schedule

    def setup(self) -> None:
        clear_backend_cache()
        self.split = load_split()
        result = FairnessPipeline("diffair", "lr", dataset=self.split, seed=DATA_SEED).run()
        self.model = load_artifact(save_artifact(result.model, self.workdir / "serve"))
        self.service = monitored_runner(
            self.model, self.split, window=WINDOW, thresholds=MonitorThresholds()
        ).make_service()
        self.monitor = self.service.monitor
        self.schedule = self._schedule(self.split.deploy)
        # Warm-up fills the lazy caches (density backend, first-call paths).
        warm = [r for r in self.schedule if r.bad is None and r.kind == "small"][:3]
        warm += [r for r in self.schedule if r.bad is None and r.kind == "large"][:2]
        for request in warm:
            self.service.predict(request.X, request.group, y_true=request.y)
        self.warm_rows = sum(r.X.shape[0] for r in warm)

    def run(self, *, seconds: Optional[float] = None, iterations: Optional[int] = None) -> Timed:
        timed, service, monitor, clock = self.timed, self.service, self.monitor, self.clock
        deadline = time.perf_counter() + (seconds or 0.0)
        while True:
            clock.tick()
            slot = timed.iterations % self.schedule_len
            request = self.schedule[slot]
            if self.tracer is not None:
                self.tracer.request = (request.kind, timed.iterations)
            timed.iterations += 1
            timed.attempted += 1
            seen = monitor.n_seen
            inside = service.stats.total_seconds
            begin = time.perf_counter()
            try:
                predictions = service.predict(request.X, request.group, y_true=request.y)
            except ValidationError:
                end = time.perf_counter()
                timed.add("rejected", end - begin, clock.scale)
                if request.bad is not None and monitor.n_seen == seen:
                    self.rejected += 1
                else:
                    timed.failed += 1
            except Exception:
                end = time.perf_counter()
                report_failure(f"serve request {timed.iterations}")
                timed.failed += 1
            else:
                end = time.perf_counter()
                if request.bad is not None:
                    timed.failed += 1
                else:
                    timed.add(request.kind, end - begin, clock.scale)
                    self.inside[request.kind] += service.stats.total_seconds - inside
                    timed.rows += request.X.shape[0]
                    timed.n_ops += 1
                    self.n_responses += 1
                    first = self.first_responses.setdefault(slot, predictions)
                    if first is not predictions and not np.array_equal(first, predictions):
                        self.repeat_mismatches += 1
            if (timed.iterations >= iterations) if iterations is not None else end >= deadline:
                return timed

    def check(self) -> List[Check]:
        mismatched = self.repeat_mismatches + sum(
            not np.array_equal(predictions, self.model.predict(self.schedule[slot].X))
            for slot, predictions in self.first_responses.items()
        )
        served = self.warm_rows + self.timed.rows
        return [
            (
                "predictions equal the loaded artifact's predict",
                mismatched == 0,
                f"{mismatched} of {self.n_responses} responses differ",
            ),
            (
                "monitor n_seen equals the valid rows served",
                self.monitor.n_seen == served,
                f"n_seen={self.monitor.n_seen}, served={served}",
            ),
        ]

    def quality(self) -> Tuple[float, float]:
        deploy = self.split.deploy
        report = evaluate_predictions(deploy.y, self.model.predict(deploy.X), deploy.group)
        return report.di_star, report.balanced_accuracy

    def report(self) -> Dict[str, Tuple[Optional[float], str, int]]:
        out = _latencies(self.timed, ("small", "large"))
        for kind in ("small", "large"):
            outside = sum(self.timed.raw.get(kind, ()))
            out[f"{kind}_stats_coverage"] = (
                self.inside[kind] / outside if outside else None,
                "ratio",
                len(self.timed.raw.get(kind, ())),
            )
        return out

    def latency_p50_ms(self) -> Optional[float]:
        return _ms(percentile(self.timed.samples.get("small", []), 50))

    def records_per_s(self) -> float:
        return self.timed.rows / self.timed.wall

    def stats_coverage(self) -> float:
        """``ServiceStats`` time over the client's own time of the same calls."""
        outside = sum(sum(self.timed.raw.get(kind, ())) for kind in ("small", "large"))
        return sum(self.inside.values()) / outside if outside else 0.0

    def window_chunks(self) -> int:
        return len(self.monitor.state_dict()["chunk_sequences_"])

    def close(self) -> None:
        self.service.close()


# ------------------------------------------------------------- fleet_replay
class TimedStream(TrafficStream):
    """Times every replay step from outside the harness: from the hand-off of
    a batch to the harness asking for the next one."""

    def __init__(self, *args, timed: Timed, clock: Clock, tracer=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.timed = timed
        self.clock = clock
        self.tracer = tracer
        self.steps = 0

    def __iter__(self):
        for batch in super().__iter__():
            self.clock.tick()
            if self.tracer is not None:
                self.tracer.request = ("step", batch.step)
            start = time.perf_counter()
            yield batch
            self.timed.add("step", time.perf_counter() - start, self.clock.scale)
            self.steps += 1


class FleetReplay:
    """``group_shift`` replayed through a 4-shard inline ``FleetService``.

    The shards serve a ConFair(lr) artifact, each with the three-channel
    monitor.  A stream of 400 steps of 10 rows fills the 2000-row window with
    200 one-step chunks before the shift starts halfway, so every step's read
    of the merged monitor re-snapshots and re-merges hundreds of chunks.
    The timed phase repeats the seeded replay on a fresh fleet each time.
    """

    name = "fleet_replay"

    def __init__(self, seed: int, *, tiny: bool, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.clock = Clock(every=4)
        self.shards = 4
        self.steps = 60 if tiny else 400
        self.stream_batch = 10
        self.window = 200 if tiny else WINDOW
        # No alarm before 300 scored rows (30 steps).  At the default of 50,
        # chance swings of the minority share in the first 4-6 steps raised a
        # false group alarm on 3 of 41 stream seeds scanned; at 300, on none
        # of 101 (the check wants zero false alarms on every seed).
        self.thresholds = MonitorThresholds(min_samples=30 if tiny else 300)
        # The first replay's result is kept for the check against the
        # single-service replay; each later one is compared with it on arrival
        # and only the differences are kept.
        self.first_result = None
        self.later_differences: List[List[str]] = []
        self.chunks = 0
        self.inside = 0.0
        self.timed = Timed()

    def _stream(self, n_steps: int, cls=TrafficStream, **kwargs) -> TrafficStream:
        return cls(
            self.split.deploy,
            make_scenario("group_shift"),
            n_steps=n_steps,
            batch_size=self.stream_batch,
            random_state=self.seed,
            **kwargs,
        )

    def setup(self) -> None:
        clear_backend_cache()
        self.split = load_split()
        result = FairnessPipeline("confair", "lr", dataset=self.split, seed=DATA_SEED).run()
        self.model = load_artifact(save_artifact(result, self.workdir / "fleet"))
        self.runner = monitored_runner(
            self.model, self.split, window=self.window, thresholds=self.thresholds
        )
        with self.runner.make_service(shards=self.shards) as fleet:
            ReplayHarness(fleet).replay(self._stream(5), label="warm-up")
        self.fleet = self.runner.make_service(shards=self.shards)

    def run(self, *, seconds: Optional[float] = None, iterations: Optional[int] = None) -> Timed:
        timed = self.timed
        deadline = time.perf_counter() + (seconds or 0.0)
        while True:
            fleet = self.fleet if self.fleet is not None else self.runner.make_service(
                shards=self.shards
            )
            self.fleet = None
            stream = self._stream(
                self.steps, TimedStream, timed=timed, clock=self.clock, tracer=self.tracer
            )
            timed.iterations += 1
            timed.attempted += self.steps
            with fleet:
                try:
                    result = ReplayHarness(fleet).replay(stream, label="group_shift")
                except Exception:
                    report_failure(f"fleet replay {timed.iterations}")
                    timed.failed += self.steps - stream.steps
                    result = None
                if result is not None:
                    if self.first_result is None:
                        self.first_result = result
                    else:
                        self.later_differences.append(
                            diff_replay_results(self.first_result, result)
                        )
                    timed.rows += result.n_records
                    if self.tracer is not None:
                        with self.tracer.paused():
                            self.chunks = len(fleet.monitor.state_dict()["chunk_sequences_"])
                            self.inside += fleet.stats.total_seconds
            timed.n_ops += stream.steps
            done = timed.iterations >= iterations if iterations is not None else (
                time.perf_counter() >= deadline
            )
            if done:
                return timed

    def check(self) -> List[Check]:
        self.reference = self.runner.replay_scenario(
            make_scenario("group_shift"),
            self.split.deploy,
            label="group_shift",
            n_steps=self.steps,
            batch_size=self.stream_batch,
            seed=self.seed,
        )
        checks = [
            (
                "single-service replay detects the shift with zero false alarms",
                self.reference.detected and self.reference.n_false_alarms == 0,
                f"detected={self.reference.detected}, "
                f"false_alarms={self.reference.n_false_alarms}",
            )
        ]
        if self.first_result is not None:
            first = diff_replay_results(self.reference, self.first_result)
            compared = [("the single-service replay", first)]
            compared += [("fleet replay 0", later) for later in self.later_differences]
            for index, (other, differences) in enumerate(compared):
                checks.append(
                    (
                        f"fleet replay {index} equals {other}",
                        not differences,
                        "; ".join(differences[:2]) or "identical",
                    )
                )
        return checks

    def quality(self) -> Tuple[float, float]:
        # The artifact is the whole PipelineResult: ConFair's profile, which
        # the conformance channel needs, lives on its intervention.
        deploy = self.split.deploy
        predictions = self.model.model.predict(deploy.X)
        report = evaluate_predictions(deploy.y, predictions, deploy.group)
        return report.di_star, report.balanced_accuracy

    def report(self) -> Dict[str, Tuple[Optional[float], str, int]]:
        return {
            **_latencies(self.timed, ("step",)),
            "detection_steps": (
                float(self.reference.detection_latency_steps)
                if self.reference.detection_latency_steps is not None
                else None,
                "steps",
                1,
            ),
        }

    def latency_p50_ms(self) -> Optional[float]:
        return _ms(percentile(self.timed.samples.get("step", []), 50))

    def records_per_s(self) -> float:
        return self.timed.rows / self.timed.wall

    def stats_coverage(self) -> Optional[float]:
        """Shard ``ServiceStats`` time over the traced ``FleetService.predict``
        wall time of the same calls (the harness, not the benchmark, calls
        ``predict``, so only the traced pass times them)."""
        if self.tracer is None:
            return None
        outside = sum(
            span.duration
            for span in self.tracer.spans
            if span.name == "FleetService.predict" and span.request[0] == "step"
        )
        return self.inside / outside if outside else 0.0

    def window_chunks(self) -> int:
        return self.chunks

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()


# ---------------------------------------------------------------------- fit
CELLS = (("confair", "lr"), ("confair", "xgb"), ("diffair", "lr"), ("diffair", "xgb"))


class FitOutcome(NamedTuple):
    """What the checks and the quality metrics need of one fit; the fitted
    models are dropped, so memory does not grow with the fits completed."""

    cell: str
    predictions: np.ndarray
    report: object


class Fit:
    """``FairnessPipeline.run`` for ConFair and DiffFair, each with lr and xgb.

    One round fits the four cells serially with the default tuning grid, in
    an order drawn from the seed.  Every round starts from an empty density
    backend cache, so each pays the builds a fresh process pays.
    """

    name = "fit"

    def __init__(self, seed: int, *, tiny: bool, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.tracer = tracer
        # A fit runs for seconds while the machine's speed drifts, so each fit
        # is scaled by the mean of the speeds of the gaps before and after it,
        # each the median of 20 probes: with 5, ten runs spread 0.09 against
        # 0.05 on the same recorded fits.  Fit times moved with the probe at
        # an elasticity of 0.56 (confair+xgb, most of a round) to 0.85 over
        # 42 fits of each cell; at 0.5, five sets of runs spread 0.085-0.107,
        # against 0.050-0.166 at 1 and 0.074-0.244 unscaled.
        self.clock = Clock(window=20, elasticity=0.5)
        self.size_factor = 0.02 if tiny else SIZE_FACTOR
        rng = np.random.default_rng(seed)
        self.order = [CELLS[i] for i in rng.permutation(len(CELLS))]
        self.outcomes: List[FitOutcome] = []
        self.timed = Timed()

    def setup(self) -> None:
        clear_backend_cache()
        self.split = load_split(self.size_factor)

    def run(self, *, seconds: Optional[float] = None, iterations: Optional[int] = None) -> Timed:
        timed = self.timed
        deadline = time.perf_counter() + (seconds or 0.0)
        self.clock.measure(20)
        while True:
            clear_backend_cache()
            if self.tracer is not None:
                self.tracer.request = ("round", timed.iterations)
            timed.iterations += 1
            elapsed = corrected = 0.0
            for method, learner in self.order:
                timed.attempted += 1
                before = self.clock.scale
                start = time.perf_counter()
                try:
                    result = FairnessPipeline(
                        method, learner, dataset=self.split, seed=DATA_SEED
                    ).run()
                except Exception:
                    report_failure(f"fit {method}+{learner}")
                    timed.failed += 1
                else:
                    self.outcomes.append(
                        FitOutcome(f"{method}+{learner}", result.predictions, result.report)
                    )
                seconds = time.perf_counter() - start
                self.clock.measure(20)
                elapsed += seconds
                corrected += seconds * (before + self.clock.scale) / 2
            timed.add("round", elapsed, corrected / elapsed)
            timed.rows += len(self.order) * self.split.train.n_samples
            timed.n_ops += 1
            done = timed.iterations >= iterations if iterations is not None else (
                time.perf_counter() >= deadline
            )
            if done:
                return timed

    def check(self) -> List[Check]:
        deploy = self.split.deploy
        checks = []
        for outcome in self.outcomes:
            predictions = np.asarray(outcome.predictions)
            binary = predictions.shape == (deploy.n_samples,) and bool(
                np.isin(predictions, (0, 1)).all()
            )
            expected = evaluate_predictions(deploy.y, predictions, deploy.group)
            same = _same_report(outcome.report.to_dict(), expected.to_dict())
            checks.append(
                (
                    f"{outcome.cell}: one 0/1 prediction per deploy row, "
                    "report equals evaluate_predictions",
                    binary and same,
                    f"shape={predictions.shape}, report_equal={same}",
                )
            )
        return checks

    def cell_reports(self):
        first = {}
        for outcome in self.outcomes:
            first.setdefault(outcome.cell, outcome.report)
        return first

    def quality(self) -> Tuple[float, float]:
        reports = list(self.cell_reports().values())
        return (
            statistics.fmean(r.di_star for r in reports),
            statistics.fmean(r.balanced_accuracy for r in reports),
        )

    def report(self) -> Dict[str, Tuple[Optional[float], str, int]]:
        rounds = self.timed.samples["round"]
        out = {
            "fit_s": (statistics.median(rounds), "s", len(rounds)),
            "fit_s.raw": (statistics.median(self.timed.raw["round"]), "s", len(rounds)),
        }
        for cell, report in self.cell_reports().items():
            out[f"{cell}.di_star"] = (report.di_star, "DI*", 1)
            out[f"{cell}.balanced_accuracy"] = (report.balanced_accuracy, "ratio", 1)
        return out

    def latency_p50_ms(self) -> Optional[float]:
        return _ms(percentile(self.timed.samples.get("round", []), 50))

    def records_per_s(self) -> float:
        """Training rows of one round over the median round time."""
        return len(self.order) * self.split.train.n_samples / statistics.median(
            self.timed.samples["round"]
        )

    def stats_coverage(self) -> float:
        return 0.0

    def window_chunks(self) -> int:
        return 0

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Serve, FleetReplay, Fit)}


def _latencies(timed: Timed, kinds) -> Dict[str, Tuple[Optional[float], str, int]]:
    """records_per_s and p50/p99 per kind, corrected and (``.raw``) measured."""
    out = {
        "records_per_s": (timed.rows / timed.wall, "rows/s", timed.n_ops),
        "records_per_s.raw": (timed.rows / timed.raw_wall, "rows/s", timed.n_ops),
    }
    for kind in kinds:
        samples, raw = timed.samples.get(kind, []), timed.raw.get(kind, [])
        for q in (50, 99):
            out[f"{kind}_p{q}_ms"] = (_ms(percentile(samples, q)), "ms", len(samples))
        out[f"{kind}_p50_ms.raw"] = (_ms(percentile(raw, 50)), "ms", len(raw))
    return out


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def _same_report(a: dict, b: dict) -> bool:
    """Field-wise equality that treats NaN as equal to NaN."""
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
            continue
        if x != y:
            return False
    return True
