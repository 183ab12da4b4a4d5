"""Command-line front end: scenario simulation and serving replay.

Four subcommands wire the simulation subsystem end to end::

    repro-simulate list
    repro-simulate run       --scenario group_shift --dataset meps
    repro-simulate run       --scenario group_shift --mitigate --audit-out trail
    repro-simulate suite     --suite default --dataset meps
    repro-simulate calibrate --dataset meps --target-far 0.05

``run`` replays one named scenario against a monitored
:class:`~repro.serving.PredictionService` and emits the scored
:class:`~repro.simulate.replay.ReplayResult` as JSON (detection latency,
false-alarm rate, windowed fairness degradation, throughput); with
``--mitigate`` the service is wrapped in a
:class:`~repro.serving.MitigationController`, closing the loop — the result
additionally carries time-to-recovery, fairness-regret, and the controller's
transition summary, and ``--audit-out`` persists the full transition trail
as a schema-versioned artifact.  ``suite`` replays every scenario of a named
suite and emits one row per scenario.  ``calibrate`` replays a stationary
control stream and derives :class:`~repro.serving.MonitorThresholds` hitting
a target false-alarm rate.  All of them drive the service **from a saved
artifact**: pass ``--artifact`` to use one produced by ``repro-serve fit``,
or omit it and the command fits a pipeline, saves the artifact (to ``--out``
or a temporary directory that is removed on exit, reported as
``"artifact": null``), and loads it back before a single record is served.

Also available as ``python -m repro.simulate``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.cli import (
    Deployment,
    Payload,
    add_replay_options,
    add_scenario_options,
    dispatch,
    emit_json,
    parse_params,
    run_replay,
)
from repro.serving.mitigation import save_audit_trail
from repro.simulate.registry import describe_scenarios, make_scenario
from repro.simulate.replay import ReplayHarness
from repro.simulate.stream import TrafficStream
from repro.simulate.suites import available_suites


# ---------------------------------------------------------------- commands
def cmd_list(args) -> int:
    emit_json({"scenarios": describe_scenarios(), "suites": available_suites()})
    return 0


def _run(args, served: Deployment) -> Payload:
    scenario = make_scenario(args.scenario, **parse_params(args.scenario_param))
    payload: Payload = {"scenario": repr(scenario)}
    stream = TrafficStream(
        served.split.deploy,
        scenario,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        random_state=args.seed,
    )
    # With --mitigate the service is a MitigationController; it stays open
    # past the replay so its full transition trail (not just the summary
    # riding on the result) can be persisted.
    with served.runner.make_service(mitigate=args.mitigate, seed=args.seed) as service:
        result = ReplayHarness(service).replay(
            stream,
            label=args.scenario,
            recovery_tolerance=args.recovery_tolerance,
        )
        if args.mitigate and args.audit_out:
            payload["audit_out"] = str(
                save_audit_trail(
                    service,
                    args.audit_out,
                    metadata={
                        "command": "simulate",
                        "scenario": args.scenario,
                        "dataset": args.dataset,
                        "seed": args.seed,
                    },
                )
            )
    payload["result"] = result.to_dict(include_steps=args.trace)
    return payload


def _suite(args, served: Deployment) -> Payload:
    results = served.runner.run(
        args.suite,
        served.split.deploy,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
    )
    return {
        "suite": args.suite,
        "results": {
            label: result.to_dict(include_steps=args.trace)
            for label, result in results
        },
    }


def _calibrate(args, served: Deployment) -> Payload:
    calibration = served.runner.calibrate(
        served.split.deploy,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
        target_false_alarm_rate=args.target_far,
    )
    return {"calibration": calibration.to_dict()}


_REPLAYS = {"run": _run, "suite": _suite, "calibrate": _calibrate}


def cmd_replay(args) -> int:
    run_replay(args, _REPLAYS[args.command])
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate drifting/bursty traffic and replay it through a monitored service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list registered scenarios and suites")
    listing.set_defaults(func=cmd_list)

    def add_options(p) -> None:
        add_replay_options(p)
        p.add_argument(
            "--trace",
            action="store_true",
            help="include the full per-step trace in the JSON report",
        )

    run = sub.add_parser("run", help="replay one scenario and score the monitor")
    add_options(run)
    add_scenario_options(run)
    run.add_argument(
        "--mitigate",
        action="store_true",
        help="wrap the service in a MitigationController: on alarm, refit "
        "the intervention on the drifted window, shadow-score the candidate "
        "on live traffic, and promote when fairness recovers",
    )
    run.add_argument(
        "--audit-out",
        default=None,
        metavar="PATH",
        help="with --mitigate: persist the controller's transition trail as "
        "a schema-versioned artifact directory",
    )
    run.add_argument(
        "--min-refit-rows",
        type=int,
        default=None,
        help="with --mitigate: buffered post-alarm rows required before refitting",
    )
    run.add_argument(
        "--min-shadow-steps",
        type=int,
        default=None,
        help="with --mitigate: shadow observations required before a promote verdict",
    )
    run.add_argument(
        "--max-shadow-steps",
        type=int,
        default=None,
        help="with --mitigate: shadow observations before giving up (reject)",
    )
    run.add_argument(
        "--cooldown-steps",
        type=int,
        default=None,
        help="with --mitigate: steps to ignore alarms after a verdict",
    )
    run.add_argument(
        "--recovery-tolerance",
        type=float,
        default=0.05,
        help="DI* band around the pre-drift baseline that counts as recovered",
    )
    run.set_defaults(func=cmd_replay)

    suite = sub.add_parser("suite", help="replay every scenario of a named suite")
    add_options(suite)
    suite.add_argument(
        "--suite",
        default="default",
        help=f"suite name (one of {', '.join(available_suites())})",
    )
    suite.set_defaults(func=cmd_replay)

    calibrate = sub.add_parser(
        "calibrate",
        help="derive MonitorThresholds from a stationary control replay "
        "at a target false-alarm rate",
    )
    add_options(calibrate)
    calibrate.add_argument(
        "--target-far",
        type=float,
        default=0.05,
        help="target false-alarm rate over eligible control steps "
        "(the achieved rate is at most this)",
    )
    calibrate.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-simulate`` console script)."""
    return dispatch(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
