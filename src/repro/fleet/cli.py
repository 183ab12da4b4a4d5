"""Command-line front end for the sharded serving fleet.

Three subcommands::

    repro-fleet serve  --shards 4 --backend process
    repro-fleet replay --shards 4 --scenario group_shift
    repro-fleet report --input fleet-report.json

``serve`` stands a fleet up from a saved artifact (fitting one first when
``--artifact`` is omitted, exactly like ``repro-simulate``), drives deploy
traffic through it, and emits the fleet report — per-shard throughput and
cold starts plus the fleet window's windowed summary.  ``replay`` is the
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
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.cli import (
    Deployment,
    Payload,
    add_replay_options,
    add_scenario_options,
    deployment,
    dispatch,
    emit_json,
    parse_params,
    run_replay,
    start_recording,
    write_dumps,
)
from repro.exceptions import ValidationError
from repro.fleet.replay import compare_sharded_replay
from repro.fleet.service import FleetService
from repro.fleet.workers import ProcessShardWorker
from repro.serving.artifacts import save_artifact
from repro.simulate.registry import make_scenario


# ---------------------------------------------------------------- commands
def cmd_serve(args) -> int:
    start_recording(args)
    with deployment(args) as served:
        if args.backend == "inline":
            fleet = served.runner.make_service(shards=args.shards)
            if not isinstance(fleet, FleetService):
                raise ValidationError("repro-fleet serve needs --shards >= 2")
        else:
            monitor_path = save_artifact(
                served.runner.make_monitor(), served.temp_dir("repro-fleet-monitor-")
            )
            fleet = FleetService(
                [
                    ProcessShardWorker(
                        served.path,
                        shard_id=shard_id,
                        monitor_path=monitor_path,
                        batch_size=args.batch_size,
                        mmap_mode="r" if args.mmap else None,
                    )
                    for shard_id in range(args.shards)
                ]
            )

        deploy = served.split.deploy
        rows = max(int(args.request_rows), 1)
        with fleet:
            for index in range(int(args.requests)):
                start = (index * rows) % deploy.n_samples
                take = np.arange(start, start + rows) % deploy.n_samples
                fleet.predict(deploy.X[take], deploy.group[take], y_true=deploy.y[take])
            report = fleet.fleet_report()
            write_dumps(args, report, fleet)
    report["artifact"] = served.artifact
    report["backend"] = args.backend
    if args.out_report:
        Path(args.out_report).write_text(json.dumps(report, indent=2, sort_keys=True))
    emit_json(report)
    return 0


def _compare(args, served: Deployment) -> Payload:
    scenario = make_scenario(args.scenario, **parse_params(args.scenario_param))
    comparison = compare_sharded_replay(
        served.runner,
        scenario,
        served.split.deploy,
        shards=args.shards,
        label=args.scenario,
        n_steps=args.steps,
        batch_size=args.stream_batch,
        seed=args.seed,
    )
    return {"scenario": repr(scenario), **comparison.to_dict()}


def cmd_replay(args) -> int:
    # The dumps hold the default registry and log: the replay spans, the
    # single-service run and the alarm edges; shard-private state died
    # with the fleet.
    if not run_replay(args, _compare)["matches"]:
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
        add_replay_options(p, n_jobs=False)
        p.add_argument("--shards", type=int, default=4, help="number of shard workers")

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
    serve.set_defaults(func=cmd_serve)

    replay = sub.add_parser(
        "replay", help="assert an N-shard replay is bit-identical to the single service"
    )
    add_common_options(replay)
    add_scenario_options(replay)
    replay.set_defaults(func=cmd_replay)

    report = sub.add_parser("report", help="summarize a fleet report JSON")
    report.add_argument("--input", required=True, help="report file written by serve --out-report")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-fleet`` console script)."""
    return dispatch(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
