"""Command-line front end for the sharded serving fleet.

Three subcommands::

    repro-fleet serve  --shards 4 --backend process
    repro-fleet replay --shards 4 --scenario group_shift
    repro-fleet report --input fleet-report.json

``serve`` stands a fleet up from a saved artifact (fitting one first when
``--artifact`` is omitted, exactly like ``repro-simulate``), drives deploy
traffic through it, and emits the fleet report — per-shard throughput and
cold starts plus the merged monitor's windowed summary.  ``replay`` is the
equivalence check: it replays one scenario through an N-shard fleet *and*
through a single service and exits non-zero unless the scored verdicts are
bit-identical (everything except wall-clock throughput).  ``report``
pretty-summarizes a report JSON saved by ``serve --out-report``.

Also available as ``python -m repro.fleet``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.exceptions import ReproError, ValidationError
from repro.fleet.replay import compare_sharded_replay
from repro.fleet.service import FleetService
from repro.fleet.workers import ProcessShardWorker
from repro.serving.artifacts import save_artifact
from repro.serving.cli import emit_json, parse_params
from repro.simulate.cli import _make_runner, _prepare
from repro.simulate.registry import available_scenarios, make_scenario
from repro.telemetry import (
    enable as enable_telemetry,
    get_event_log,
    write_events,
    write_metrics,
)


# ---------------------------------------------------------------- commands
def cmd_serve(args) -> int:
    # Enable telemetry *before* workers exist: inline shards snapshot the
    # process-wide flag into their private registries and process shards
    # forward it to the spawned worker over the pipe handshake.
    if args.metrics_out:
        enable_telemetry()
    if args.events_out:
        # Same ordering rule as telemetry: the flight recorder must be on
        # before workers exist so inline shards mint enabled private logs and
        # process shards inherit the flag over the pipe handshake.
        get_event_log().enable()
    artifact, loaded, split = _prepare(args)
    runner = _make_runner(args, loaded, split)
    if args.backend == "inline":
        fleet = runner.make_service(shards=args.shards)
        if not isinstance(fleet, FleetService):
            raise ValidationError("repro-fleet serve needs --shards >= 2")
    else:
        monitor_dir = tempfile.mkdtemp(prefix="repro-fleet-monitor-")
        monitor_path = str(save_artifact(runner.make_monitor(), monitor_dir))
        fleet = FleetService(
            [
                ProcessShardWorker(
                    artifact,
                    shard_id=shard_id,
                    monitor_path=monitor_path,
                    batch_size=args.batch_size,
                    mmap_mode="r" if args.mmap else None,
                )
                for shard_id in range(args.shards)
            ]
        )

    deploy = split.deploy
    rows = max(int(args.request_rows), 1)
    with fleet:
        for index in range(int(args.requests)):
            start = (index * rows) % deploy.n_samples
            take = np.arange(start, start + rows) % deploy.n_samples
            fleet.predict(deploy.X[take], deploy.group[take], y_true=deploy.y[take])
        report = fleet.fleet_report()
        if args.metrics_out:
            # Snapshotted inside the `with` block: worker telemetry state is
            # only reachable while the shards are alive.
            report["metrics_out"] = write_metrics(
                args.metrics_out, fleet.telemetry_report()
            )
        if args.events_out:
            report["events_out"] = write_events(
                args.events_out, fleet.events_report()
            )
    report["artifact"] = artifact
    report["backend"] = args.backend
    if args.out_report:
        Path(args.out_report).write_text(json.dumps(report, indent=2, sort_keys=True))
    emit_json(report)
    return 0


def cmd_replay(args) -> int:
    if args.metrics_out:
        enable_telemetry()
    if args.events_out:
        get_event_log().enable()
    artifact, loaded, split = _prepare(args)
    runner = _make_runner(args, loaded, split)
    scenario = make_scenario(args.scenario, **parse_params(args.scenario_param))
    comparison = compare_sharded_replay(
        runner,
        scenario,
        split.deploy,
        shards=args.shards,
        label=args.scenario,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
    )
    payload = {
        "artifact": artifact,
        "dataset": args.dataset,
        "scenario": repr(scenario),
        **comparison.to_dict(),
    }
    if args.metrics_out:
        # Both replays have finished and closed their fleets; the default
        # registry holds the replay spans and single-service metrics.
        payload["metrics_out"] = write_metrics(args.metrics_out)
    if args.events_out:
        # The default log carries the alarm edges, channel attributions, and
        # the single-service run's request events; shard-private logs died
        # with the fleet.
        payload["events_out"] = write_events(args.events_out)
    emit_json(payload)
    if not comparison.matches:
        print(
            f"error: {args.shards}-shard replay diverged from the single-service run",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_report(args) -> int:
    try:
        report = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ValidationError(f"cannot read fleet report {args.input!r}: {error}") from error
    summary = {
        "n_shards": report.get("n_shards"),
        "n_requests": report.get("n_requests"),
        "n_records": report.get("n_records"),
        "records_per_second": report.get("records_per_second"),
        "shards": report.get("shards"),
    }
    if "windowed" in report:
        summary["windowed"] = report["windowed"]
    emit_json(summary)
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fleet",
        description="Shard a monitored serving stack and verify it against the single service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_options(p) -> None:
        # Mirrors repro-simulate's replay options so the two CLIs drive the
        # same artifact/fit/monitor plumbing.
        p.add_argument("--dataset", default="meps", help="benchmark dataset name")
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
        p.add_argument("--intervention", default="confair", help="intervention to fit")
        p.add_argument("--learner", default="lr", help="final-model learner name")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="extra intervention constructor parameter (repeatable; JSON value)",
        )
        p.add_argument("--shards", type=int, default=4, help="number of shard workers")
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
        p.add_argument("--workers", type=int, default=None, help="per-shard thread-pool width")
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

    serve = sub.add_parser("serve", help="drive traffic through a fleet; emit its report")
    add_common_options(serve)
    serve.add_argument(
        "--backend",
        choices=("inline", "process"),
        default="inline",
        help="inline shard workers (in-process) or spawned worker processes",
    )
    mmap = serve.add_mutually_exclusive_group()
    mmap.add_argument(
        "--mmap",
        dest="mmap",
        action="store_true",
        default=True,
        help="memory-map the payload in worker processes (default)",
    )
    mmap.add_argument(
        "--no-mmap",
        dest="mmap",
        action="store_false",
        help="materialize the payload per worker",
    )
    serve.add_argument("--requests", type=int, default=32, help="requests to drive")
    serve.add_argument(
        "--request-rows", type=int, default=64, help="deploy rows per request"
    )
    serve.add_argument("--out-report", help="also write the fleet report JSON here")
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable telemetry and write the fleet dump (frontend + per-shard "
        "+ exactly-merged state) to PATH",
    )
    serve.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="enable the flight recorder and write the fleet event-log dump "
        "(frontend + per-shard + exactly-merged state) to PATH",
    )
    serve.set_defaults(func=cmd_serve)

    replay = sub.add_parser(
        "replay", help="assert an N-shard replay is bit-identical to the single service"
    )
    add_common_options(replay)
    replay.add_argument(
        "--scenario",
        default="group_shift",
        help=f"scenario name (one of {', '.join(available_scenarios())})",
    )
    replay.add_argument(
        "--scenario-param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario constructor parameter (repeatable; value parsed as JSON)",
    )
    replay.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable telemetry and write the default-registry dump (replay "
        "spans + single-service metrics) to PATH after the comparison",
    )
    replay.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="enable the flight recorder and write the default event-log dump "
        "(alarm edges + channel attributions) to PATH after the comparison",
    )
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="summarize a fleet report JSON")
    report.add_argument("--input", required=True, help="report file written by serve --out-report")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-fleet`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
