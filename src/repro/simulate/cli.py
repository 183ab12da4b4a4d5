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
or a temporary directory), and loads it back before a single record is
served.

Also available as ``python -m repro.simulate``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional

from repro.datasets import available_datasets, load_dataset, split_dataset
from repro.density.kde import KernelDensity
from repro.exceptions import ReproError
from repro.interventions import FairnessPipeline, available_interventions
from repro.serving import find_profile
from repro.serving.artifacts import load_artifact, save_artifact
from repro.serving.cli import emit_json, parse_params
from repro.serving.mitigation import save_audit_trail
from repro.serving.monitor import MonitorThresholds
from repro.simulate.registry import available_scenarios, describe_scenarios, make_scenario
from repro.simulate.replay import ReplayHarness
from repro.simulate.stream import TrafficStream
from repro.simulate.suites import SuiteRunner, available_suites
from repro.telemetry import (
    enable as enable_telemetry,
    get_event_log,
    write_events,
    write_metrics,
)


def _prepare(args) -> tuple:
    """Resolve (artifact path, loaded model, split) for a replay command.

    Without ``--artifact`` the pipeline is fitted here, saved, and *loaded
    back* — every replay is driven from a saved artifact, never from the
    in-memory fit.
    """
    if args.artifact:
        artifact = args.artifact
    else:
        target = args.out or tempfile.mkdtemp(prefix="repro-simulate-")
        result = FairnessPipeline(
            intervention=args.intervention,
            learner=args.learner,
            dataset=args.dataset,
            size_factor=args.size_factor,
            seed=args.seed,
            intervention_params=parse_params(args.param),
            fit_n_jobs=getattr(args, "n_jobs", None),
        ).run()
        artifact = str(
            save_artifact(
                result,
                target,
                metadata={
                    "command": "simulate",
                    "dataset": args.dataset,
                    "intervention": args.intervention,
                    "learner": args.learner,
                    "seed": args.seed,
                    "size_factor": args.size_factor,
                },
            )
        )
    loaded = load_artifact(artifact)
    dataset = load_dataset(args.dataset, size_factor=args.size_factor, random_state=args.seed)
    split = split_dataset(dataset, random_state=args.seed)
    return artifact, loaded, split


def _make_runner(args, loaded, split) -> SuiteRunner:
    density_estimator = None
    if args.density:
        density_estimator = KernelDensity(bandwidth="scott", kernel="gaussian").fit(
            split.train.numeric_X
        )
    mitigation_params = {}
    for knob, option in (
        ("min_refit_rows", "min_refit_rows"),
        ("min_shadow_steps", "min_shadow_steps"),
        ("max_shadow_steps", "max_shadow_steps"),
        ("cooldown_steps", "cooldown_steps"),
    ):
        value = getattr(args, option, None)
        if value is not None:
            mitigation_params[knob] = value
    return SuiteRunner(
        loaded,
        split.train,
        profile=find_profile(loaded),
        density_estimator=density_estimator,
        calibration=split.validation,
        window_size=args.window,
        thresholds=MonitorThresholds(group_tolerance=args.group_tolerance),
        service_batch_size=args.batch_size,
        max_workers=args.workers,
        intervention=args.intervention,
        learner=args.learner,
        intervention_params=parse_params(args.param),
        fit_n_jobs=getattr(args, "n_jobs", None),
        mitigation_params=mitigation_params,
    )


# ---------------------------------------------------------------- commands
def cmd_list(args) -> int:
    emit_json({"scenarios": describe_scenarios(), "suites": available_suites()})
    return 0


def cmd_run(args) -> int:
    if args.metrics_out:
        enable_telemetry()
    if args.events_out:
        get_event_log().enable()
    artifact, loaded, split = _prepare(args)
    runner = _make_runner(args, loaded, split)
    scenario = make_scenario(args.scenario, **parse_params(args.scenario_param))
    payload = {
        "artifact": artifact,
        "dataset": args.dataset,
        "scenario": repr(scenario),
    }
    if args.mitigate:
        # The controller outlives the replay so its full transition trail
        # (not just the summary riding on the result) can be persisted.
        stream = TrafficStream(
            split.deploy,
            scenario,
            n_steps=args.steps,
            batch_size=args.stream_batch,
            random_state=args.seed,
        )
        with runner.make_service(mitigate=True, seed=args.seed) as controller:
            result = ReplayHarness(controller).replay(
                stream,
                label=args.scenario,
                recovery_tolerance=args.recovery_tolerance,
            )
            if args.audit_out:
                payload["audit_out"] = str(
                    save_audit_trail(
                        controller,
                        args.audit_out,
                        metadata={
                            "command": "simulate",
                            "scenario": args.scenario,
                            "dataset": args.dataset,
                            "seed": args.seed,
                        },
                    )
                )
    else:
        result = runner.replay_scenario(
            scenario,
            split.deploy,
            label=args.scenario,
            n_steps=args.steps,
            batch_size=args.stream_batch,
            seed=args.seed,
            recovery_tolerance=args.recovery_tolerance,
        )
    payload["result"] = result.to_dict(include_steps=args.trace)
    if args.metrics_out:
        payload["metrics_out"] = write_metrics(args.metrics_out)
    if args.events_out:
        # The default log carries the replay's flight-recorder stream:
        # request events, alarm edges, channel attributions, and (with
        # --mitigate) mitigation transitions.
        payload["events_out"] = write_events(args.events_out)
    emit_json(payload)
    return 0


def cmd_calibrate(args) -> int:
    if args.metrics_out:
        enable_telemetry()
    if args.events_out:
        get_event_log().enable()
    artifact, loaded, split = _prepare(args)
    runner = _make_runner(args, loaded, split)
    calibration = runner.calibrate(
        split.deploy,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
        target_false_alarm_rate=args.target_far,
    )
    payload = {
        "artifact": artifact,
        "dataset": args.dataset,
        "calibration": calibration.to_dict(),
    }
    if args.metrics_out:
        payload["metrics_out"] = write_metrics(args.metrics_out)
    if args.events_out:
        payload["events_out"] = write_events(args.events_out)
    emit_json(payload)
    return 0


def cmd_suite(args) -> int:
    if args.metrics_out:
        enable_telemetry()
    if args.events_out:
        get_event_log().enable()
    artifact, loaded, split = _prepare(args)
    runner = _make_runner(args, loaded, split)
    results = runner.run(
        args.suite,
        split.deploy,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
    )
    payload = {
        "artifact": artifact,
        "dataset": args.dataset,
        "suite": args.suite,
        "results": {
            label: result.to_dict(include_steps=args.trace)
            for label, result in results
        },
    }
    if args.metrics_out:
        payload["metrics_out"] = write_metrics(args.metrics_out)
    if args.events_out:
        payload["events_out"] = write_events(args.events_out)
    emit_json(payload)
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

    def add_replay_options(p) -> None:
        p.add_argument(
            "--dataset",
            default="meps",
            help=f"benchmark name (one of {', '.join(available_datasets())})",
        )
        p.add_argument("--seed", type=int, default=7, help="dataset/split/stream seed")
        p.add_argument(
            "--size-factor",
            type=float,
            default=0.05,
            help="fraction of the published dataset size to generate",
        )
        p.add_argument(
            "--artifact",
            help="artifact directory saved by repro-serve fit (omit to fit one now)",
        )
        p.add_argument(
            "--out",
            help="where to save the freshly fitted artifact (default: a temp directory)",
        )
        p.add_argument(
            "--intervention",
            default="confair",
            help=f"intervention to fit when no artifact is given "
            f"(one of {', '.join(available_interventions())})",
        )
        p.add_argument("--learner", default="lr", help="final-model learner name")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="extra intervention constructor parameter (repeatable; JSON value)",
        )
        p.add_argument(
            "--n-jobs",
            type=int,
            default=None,
            help="worker threads for profiling/tuning when fitting here "
            "(bit-identical to serial; -1 = all cores)",
        )
        p.add_argument("--steps", type=int, default=40, help="stream steps on the timeline")
        p.add_argument(
            "--stream-batch", type=int, default=128, help="base rows per stream step"
        )
        p.add_argument("--window", type=int, default=2000, help="monitor window size")
        p.add_argument(
            "--group-tolerance",
            type=float,
            default=0.15,
            help="group-prevalence alarm tolerance (absolute fraction)",
        )
        p.add_argument("--batch-size", type=int, default=512, help="service micro-batch size")
        p.add_argument("--workers", type=int, default=None, help="service thread-pool width")
        density = p.add_mutually_exclusive_group()
        density.add_argument(
            "--density",
            dest="density",
            action="store_true",
            default=True,
            help="enable the density-drift channel (default)",
        )
        density.add_argument(
            "--no-density",
            dest="density",
            action="store_false",
            help="disable the density-drift channel",
        )
        p.add_argument(
            "--trace",
            action="store_true",
            help="include the full per-step trace in the JSON report",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="enable telemetry and write its JSON dump (summary + "
            "mergeable state, incl. replay spans) to PATH after the replay",
        )
        p.add_argument(
            "--events-out",
            default=None,
            metavar="PATH",
            help="enable the flight recorder and write its event-log dump "
            "(request events, alarm edges, channel attributions) to PATH",
        )

    run = sub.add_parser("run", help="replay one scenario and score the monitor")
    add_replay_options(run)
    run.add_argument(
        "--scenario",
        default="group_shift",
        help=f"scenario name (one of {', '.join(available_scenarios())})",
    )
    run.add_argument(
        "--scenario-param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario constructor parameter (repeatable; value parsed as JSON)",
    )
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
    run.set_defaults(func=cmd_run)

    suite = sub.add_parser("suite", help="replay every scenario of a named suite")
    add_replay_options(suite)
    suite.add_argument(
        "--suite",
        default="default",
        help=f"suite name (one of {', '.join(available_suites())})",
    )
    suite.set_defaults(func=cmd_suite)

    calibrate = sub.add_parser(
        "calibrate",
        help="derive MonitorThresholds from a stationary control replay "
        "at a target false-alarm rate",
    )
    add_replay_options(calibrate)
    calibrate.add_argument(
        "--target-far",
        type=float,
        default=0.05,
        help="target false-alarm rate over eligible control steps "
        "(the achieved rate is at most this)",
    )
    calibrate.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-simulate`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
