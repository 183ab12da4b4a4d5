"""Replay simulated traffic through a service and score the monitors.

:class:`ReplayHarness` is the judge of the serving stack: it drives a
:class:`~repro.serving.PredictionService` (with its attached
:class:`~repro.serving.FairnessMonitor`) over a
:class:`~repro.simulate.stream.TrafficStream` and scores how the monitor's
alarm channels — conformance violation, density drift, group prevalence —
respond to the scenario's *declared* ground truth:

* **detection latency** — steps (and records) between the first drifted batch
  and the first alarm at or after it;
* **false-alarm rate** — alarms raised on clean batches *before any drift has
  been injected* (post-drift clean batches are excluded: a sliding window
  legitimately stays alarmed while drifted rows age out of it);
* **windowed fairness degradation** — how far the windowed DI* falls from its
  last pre-drift value once the drift is in effect;
* **throughput** — records/second through the service for this replay.

Every per-step observation is kept as a :class:`StepRecord`, so callers can
plot or assert on the full trajectory.

The harness also closes the loop: hand it a
:class:`~repro.serving.MitigationController` instead of a bare service and
the replay additionally scores the *response* — **time-to-recovery** (steps
and records from the first drifted batch until the alarms have cleared and
the windowed DI* sits back within ``recovery_tolerance`` of its pre-drift
baseline for the rest of the stream) and
**fairness regret** (the summed per-step shortfall of windowed DI* below
that baseline over the post-drift horizon) — and records the controller's
transition events (``alarm``/``refit``/``shadow_start``/``promote``/…) on
the step where each fired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.serving.mitigation import summarize_transitions
from repro.serving.service import PredictionService
from repro.simulate.stream import TrafficStream
from repro.telemetry import get_event_log as _get_event_log
from repro.telemetry import get_registry as _get_telemetry_registry


@dataclass(frozen=True)
class StepRecord:
    """One replayed step: ground truth, alarm state, windowed fairness.

    ``mitigation`` lists the controller transition events (``"alarm"``,
    ``"refit"``, ``"shadow_start"``, ``"promote"``, …) that fired during
    this step; it stays empty when the replay drives a plain service.
    """

    step: int
    t: float
    n_rows: int
    drifted: bool
    alarm: bool
    channels: Tuple[str, ...]
    di_star: Optional[float]
    mitigation: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "t": round(self.t, 6),
            "n_rows": self.n_rows,
            "drifted": self.drifted,
            "alarm": self.alarm,
            "channels": list(self.channels),
            "di_star": self.di_star,
            "mitigation": list(self.mitigation),
        }


@dataclass
class ReplayResult:
    """Scored outcome of one scenario replay."""

    scenario: str
    dataset: str
    n_steps: int
    n_records: int
    n_drifted_steps: int
    first_drift_step: Optional[int]
    detected: bool
    detection_step: Optional[int]
    detection_latency_steps: Optional[int]
    detection_latency_records: Optional[int]
    n_clean_steps: int
    n_false_alarms: int
    false_alarm_rate: float
    baseline_di_star: Optional[float]
    min_drift_di_star: Optional[float]
    di_star_degradation: Optional[float]
    records_per_second: float
    channel_first_alarm: Dict[str, int] = field(default_factory=dict)
    steps: List[StepRecord] = field(default_factory=list)
    # Mitigation scoring (populated when the replay drives a
    # MitigationController; recovery fields stay None for plain services
    # or when the drift never pushed DI* below the recovery band).
    recovered: bool = False
    recovery_step: Optional[int] = None
    time_to_recovery_steps: Optional[int] = None
    time_to_recovery_records: Optional[int] = None
    fairness_regret: Optional[float] = None
    mitigation: Dict[str, object] = field(default_factory=dict)

    def to_dict(self, *, include_steps: bool = False) -> Dict[str, object]:
        """JSON-ready view; pass ``include_steps=True`` for the full trace."""
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "dataset": self.dataset,
            "n_steps": self.n_steps,
            "n_records": self.n_records,
            "n_drifted_steps": self.n_drifted_steps,
            "first_drift_step": self.first_drift_step,
            "detected": self.detected,
            "detection_step": self.detection_step,
            "detection_latency_steps": self.detection_latency_steps,
            "detection_latency_records": self.detection_latency_records,
            "n_clean_steps": self.n_clean_steps,
            "n_false_alarms": self.n_false_alarms,
            "false_alarm_rate": round(self.false_alarm_rate, 6),
            "baseline_di_star": self.baseline_di_star,
            "min_drift_di_star": self.min_drift_di_star,
            "di_star_degradation": self.di_star_degradation,
            "records_per_second": round(self.records_per_second, 1),
            "channel_first_alarm": dict(self.channel_first_alarm),
            "recovered": self.recovered,
            "recovery_step": self.recovery_step,
            "time_to_recovery_steps": self.time_to_recovery_steps,
            "time_to_recovery_records": self.time_to_recovery_records,
            "fairness_regret": self.fairness_regret,
            "mitigation": dict(self.mitigation),
        }
        if include_steps:
            out["steps"] = [record.to_dict() for record in self.steps]
        return out


class ReplayHarness:
    """Drive a monitored service over traffic streams and score detection.

    Parameters
    ----------
    service:
        A :class:`~repro.serving.PredictionService` with a
        :class:`~repro.serving.FairnessMonitor` attached (the monitor is the
        thing under test; a replay without one raises
        :class:`~repro.exceptions.SimulationError`).  Anything speaking the
        same protocol works too — a :class:`~repro.fleet.FleetService`, whose
        ``monitor`` is the front-end's window over every shard, replays
        identically,
        and a :class:`~repro.serving.MitigationController` closes the loop:
        its transition events land on the :class:`StepRecord` where they
        fired and the result gains time-to-recovery / fairness-regret
        scores.
    """

    def __init__(self, service: PredictionService) -> None:
        if service.monitor is None:
            raise SimulationError(
                "ReplayHarness needs a PredictionService with a FairnessMonitor "
                "attached; construct the service with monitor="
            )
        self.service = service

    @property
    def monitor(self):
        """The monitor under test (re-read per access, as a service may
        swap it; a :class:`~repro.serving.MitigationController` does on
        promotion)."""
        return self.service.monitor

    # ------------------------------------------------------------- replay
    def replay(
        self,
        stream: TrafficStream,
        *,
        label: Optional[str] = None,
        recovery_tolerance: float = 0.05,
    ) -> ReplayResult:
        """Serve every batch of ``stream`` and score the monitor's response.

        When telemetry is enabled, the replay leaves a span trace — one
        ``replay.scenario`` root with a ``replay.step`` child per batch
        (step, rows, drifted, alarm channels) — on the service's registry.
        Spans record wall-time only; nothing telemetry measures feeds the
        :class:`ReplayResult`, so sharded-vs-single bit-identity is
        unaffected by enabling it.

        When the flight recorder is enabled, every *alarm edge* — a step
        whose alarmed-channel set differs from the previous step's — emits
        an ``alarm_edge`` event plus a ``channel_snapshot`` carrying the
        monitor's full :meth:`~repro.serving.FairnessMonitor.alarm_report`
        attribution, both keyed by the monitor's latest sequence stamp.
        Edges are detected here, where the (fleet-level) monitor is
        observed, so a sharded replay records the same edges as
        the single-service run.

        ``recovery_tolerance`` sets the recovery band: the stream has
        *recovered* at the earliest post-drift step from which the rest of
        the stream is alarm-free with every windowed DI* observation within
        ``recovery_tolerance`` of the last pre-drift value.
        """
        telemetry = getattr(self.service, "telemetry", None)
        telemetry = telemetry if telemetry is not None else _get_telemetry_registry()
        events = getattr(self.service, "events", None)
        events = events if events is not None else _get_event_log()
        # A MitigationController exposes its transition log; a plain
        # service does not (duck-typed so fleet services keep working).
        transitions = getattr(self.service, "transitions", None)
        transitions_start = len(transitions) if transitions is not None else 0
        transitions_seen = transitions_start
        records_before = self.service.stats.n_records
        start = time.perf_counter()

        steps: List[StepRecord] = []
        channel_first_alarm: Dict[str, int] = {}
        previous_channels: Tuple[str, ...] = ()
        with telemetry.span(
            "replay.scenario",
            scenario=label if label is not None else type(stream.scenario).__name__,
            dataset=stream.dataset.name,
        ):
            for batch in stream:
                with telemetry.span(
                    "replay.step", step=batch.step, rows=batch.n_rows, drifted=batch.drifted
                ) as step_span:
                    predictions = self.service.predict(batch.X, batch.group, y_true=batch.y)
                    stream.observe(batch, predictions)
                    channels = self.monitor.alarmed_channels()
                    step_span.set(channels=list(channels))
                if channels != previous_channels and events.enabled:
                    # Edge detection happens here — the one place the
                    # (fleet-level) monitor is observed — keyed by its latest
                    # sequence stamp, so sharded and single-service replays
                    # record identical forensics.
                    self.monitor.emit_alarm_edge(
                        events, previous_channels, channels, step=batch.step
                    )
                previous_channels = channels
                mitigation_events: Tuple[str, ...] = ()
                if transitions is not None:
                    mitigation_events = tuple(
                        record.event for record in transitions[transitions_seen:]
                    )
                    transitions_seen = len(transitions)
                for channel in channels:
                    channel_first_alarm.setdefault(channel, batch.step)
                steps.append(
                    StepRecord(
                        step=batch.step,
                        t=batch.t,
                        n_rows=batch.n_rows,
                        drifted=batch.drifted,
                        alarm=bool(channels),
                        channels=channels,
                        di_star=self.monitor.windowed_summary().get("di_star"),
                        mitigation=mitigation_events,
                    )
                )
        elapsed = time.perf_counter() - start
        n_records = self.service.stats.n_records - records_before

        return self._score(
            steps,
            scenario=label if label is not None else type(stream.scenario).__name__,
            dataset=stream.dataset.name,
            n_records=n_records,
            records_per_second=n_records / elapsed if elapsed > 0 else 0.0,
            channel_first_alarm=channel_first_alarm,
            recovery_tolerance=recovery_tolerance,
            mitigation=(
                summarize_transitions(transitions[transitions_start:])
                if transitions is not None
                else {}
            ),
        )

    # ------------------------------------------------------------ scoring
    @staticmethod
    def _score(
        steps: List[StepRecord],
        *,
        scenario: str,
        dataset: str,
        n_records: int,
        records_per_second: float,
        channel_first_alarm: Dict[str, int],
        recovery_tolerance: float = 0.05,
        mitigation: Optional[Dict[str, object]] = None,
    ) -> ReplayResult:
        drifted_steps = [record.step for record in steps if record.drifted]
        first_drift = drifted_steps[0] if drifted_steps else None

        detection_step: Optional[int] = None
        if first_drift is not None:
            for record in steps:
                if record.step >= first_drift and record.alarm:
                    detection_step = record.step
                    break
        latency_steps = (
            detection_step - first_drift if detection_step is not None else None
        )
        latency_records = (
            sum(
                record.n_rows
                for record in steps
                if first_drift <= record.step <= detection_step
            )
            if detection_step is not None
            else None
        )

        # Clean steps are the pre-drift prefix (the whole stream when no
        # drift is ever injected); alarms there are false by construction.
        clean = [
            record
            for record in steps
            if not record.drifted and (first_drift is None or record.step < first_drift)
        ]
        false_alarms = sum(1 for record in clean if record.alarm)

        pre_drift_di = [
            record.di_star
            for record in steps
            if record.di_star is not None
            and (first_drift is None or record.step < first_drift)
        ]
        drift_di = [
            record.di_star
            for record in steps
            if record.di_star is not None
            and first_drift is not None
            and record.step >= first_drift
        ]
        baseline_di = pre_drift_di[-1] if pre_drift_di else None
        min_drift_di = min(drift_di) if drift_di else None
        degradation = (
            baseline_di - min_drift_di
            if baseline_di is not None and min_drift_di is not None
            else None
        )

        # Recovery: a post-drift step is *disturbed* while an alarm is up or
        # the windowed DI* sits below the tolerance band around the
        # pre-drift baseline.  The stream has recovered at the first step
        # after the last disturbed one — i.e. once the remaining suffix is
        # alarm-quiet and fairness-healthy (a one-step blip back into the
        # band does not count).  A replay whose drift never disturbed
        # anything has nothing to recover from and reports None.
        recovery_step: Optional[int] = None
        regret: Optional[float] = None
        if first_drift is not None and baseline_di is not None:
            floor = baseline_di - recovery_tolerance
            post = [record for record in steps if record.step >= first_drift]
            regret = sum(
                baseline_di - record.di_star
                for record in post
                if record.di_star is not None and record.di_star < baseline_di
            )
            disturbed = [
                record.step
                for record in post
                if record.alarm
                or (record.di_star is not None and record.di_star < floor)
            ]
            if disturbed:
                last_disturbed = disturbed[-1]
                after = [record.step for record in post if record.step > last_disturbed]
                if after:
                    recovery_step = after[0]
        ttr_steps = recovery_step - first_drift if recovery_step is not None else None
        ttr_records = (
            sum(
                record.n_rows
                for record in steps
                if first_drift <= record.step <= recovery_step
            )
            if recovery_step is not None
            else None
        )

        return ReplayResult(
            scenario=scenario,
            dataset=dataset,
            n_steps=len(steps),
            n_records=n_records,
            n_drifted_steps=len(drifted_steps),
            first_drift_step=first_drift,
            detected=detection_step is not None,
            detection_step=detection_step,
            detection_latency_steps=latency_steps,
            detection_latency_records=latency_records,
            n_clean_steps=len(clean),
            n_false_alarms=false_alarms,
            false_alarm_rate=false_alarms / len(clean) if clean else 0.0,
            baseline_di_star=baseline_di,
            min_drift_di_star=min_drift_di,
            di_star_degradation=degradation,
            records_per_second=records_per_second,
            channel_first_alarm=channel_first_alarm,
            steps=steps,
            recovered=recovery_step is not None,
            recovery_step=recovery_step,
            time_to_recovery_steps=ttr_steps,
            time_to_recovery_records=ttr_records,
            fairness_regret=round(regret, 10) if regret is not None else None,
            mitigation=dict(mitigation) if mitigation else {},
        )
