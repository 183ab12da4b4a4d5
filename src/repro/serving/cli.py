"""Command-line front end: dataset → pipeline → artifact → service.

Four subcommands wire the serving subsystem end to end::

    repro-serve fit    --dataset meps --intervention confair --out art/meps
    repro-serve save   --source art/meps --out art/meps-lean
    repro-serve score  --artifact art/meps --dataset meps
    repro-serve serve  --artifact art/meps --dataset meps --rows 10000

``fit`` runs a :class:`~repro.interventions.FairnessPipeline` and persists
the full :class:`~repro.interventions.PipelineResult`; ``save`` extracts the
lean :class:`~repro.interventions.DeployedModel` for deployment; ``score``
replays a dataset's deploy split through the loaded artifact and prints the
offline fairness report; ``serve`` pushes batched traffic through a
:class:`~repro.serving.PredictionService` with an attached
:class:`~repro.serving.FairnessMonitor` and reports throughput, windowed
fairness, and drift state.

Also available as ``python -m repro.serving.cli``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional

import numpy as np

from repro.cli import (
    add_dataset_options,
    add_dump_options,
    add_fit_options,
    dispatch,
    emit_json,
    fit_pipeline,
    load_split,
    save_fit,
    start_recording,
    write_dumps,
)
from repro.exceptions import ReproError, ValidationError
from repro.fairness import evaluate_predictions
from repro.interventions import PipelineResult
from repro.serving.artifacts import (
    describe_artifact,
    find_profile,
    load_artifact,
    save_artifact,
)
from repro.serving.monitor import FairnessMonitor
from repro.serving.service import PredictionService
from repro.telemetry import get_event_log

__all__ = ["main"]


# ---------------------------------------------------------------- commands
def cmd_fit(args) -> int:
    result = fit_pipeline(args)
    payload: Dict[str, object] = {
        "dataset": result.dataset,
        "method": result.method,
        "learner": result.learner,
        "seed": result.seed,
        "runtime_seconds": round(result.runtime_seconds, 4),
        "report": result.report.to_dict(),
    }
    if args.out:
        save_fit(result, args.out, args, command="fit")
        payload["artifact"] = args.out
    emit_json(payload)
    return 0


def cmd_save(args) -> int:
    loaded = load_artifact(args.source)
    model = loaded.model if isinstance(loaded, PipelineResult) else loaded
    save_artifact(
        model,
        args.out,
        metadata={
            **describe_artifact(args.source)["metadata"],
            "command": "save",
            "source": args.source,
        },
    )
    emit_json({"artifact": args.out, "kind": describe_artifact(args.out)["kind"]})
    return 0


def cmd_score(args) -> int:
    service = PredictionService.from_artifact(args.artifact)
    deploy = load_split(args).deploy
    # --group-blind is honored unconditionally: a model that declared
    # requires_group_at_predict then rejects the request (exit code 2),
    # which is exactly the capability check the flag exists to exercise.
    group = None if args.group_blind else deploy.group
    predictions = service.predict(deploy.X, group)
    report = evaluate_predictions(deploy.y, predictions, deploy.group)
    emit_json(
        {
            "artifact": args.artifact,
            "dataset": args.dataset,
            "n_records": deploy.n_samples,
            "report": report.to_dict(),
        }
    )
    return 0


def cmd_serve(args) -> int:
    if args.request_size < 1:
        raise ValidationError(f"--request-size must be >= 1, got {args.request_size}")
    start_recording(args)
    events = get_event_log()
    loaded = load_artifact(args.artifact)
    monitor = FairnessMonitor(
        window_size=args.window, profile=find_profile(loaded)
    )
    service = PredictionService(loaded, batch_size=args.batch_size, monitor=monitor)
    split = load_split(args)
    deploy = split.deploy
    if monitor.profile is not None:
        monitor.set_baselines(violation=split.train.X)

    rows = args.rows if args.rows else deploy.n_samples
    repeats = int(np.ceil(rows / deploy.n_samples))
    index = np.tile(np.arange(deploy.n_samples), repeats)[:rows]
    X, y_true, group = deploy.X[index], deploy.y[index], deploy.group[index]

    previous_alarmed: List[str] = []
    for start in range(0, rows, args.request_size):
        block = slice(start, min(start + args.request_size, rows))
        service.predict(X[block], group[block], y_true=y_true[block])
        if events.enabled:
            alarmed = monitor.alarm_report()["alarmed"]
            if alarmed != previous_alarmed:
                monitor.emit_alarm_edge(events, previous_alarmed, alarmed)
                previous_alarmed = alarmed

    summary = monitor.windowed_summary()
    payload: Dict[str, object] = {
        "artifact": args.artifact,
        "dataset": args.dataset,
        "n_records": service.stats.n_records,
        "n_requests": service.stats.n_requests,
        "records_per_second": round(service.stats.records_per_second, 1),
        "requires_group_at_predict": service.requires_group,
        "windowed": summary,
    }
    if summary.get("n_window"):
        try:
            payload["windowed_report"] = monitor.windowed_report().to_dict()
        except ReproError:
            pass
    write_dumps(args, payload)
    emit_json(payload)
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Fit, persist, score, and serve fairness-intervention models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run a FairnessPipeline and save the result artifact")
    add_dataset_options(fit)
    add_fit_options(fit)
    fit.add_argument("--out", help="artifact directory to write")
    fit.set_defaults(func=cmd_fit)

    save = sub.add_parser(
        "save", help="extract the lean DeployedModel artifact from a fit artifact"
    )
    save.add_argument("--source", required=True, help="source artifact directory")
    save.add_argument("--out", required=True, help="target artifact directory")
    save.set_defaults(func=cmd_save)

    score = sub.add_parser("score", help="evaluate a saved artifact on a dataset's deploy split")
    add_dataset_options(score)
    score.add_argument("--artifact", required=True, help="artifact directory to load")
    score.add_argument(
        "--group-blind",
        action="store_true",
        help="do not hand the group column to the service (models that declared "
        "requires_group_at_predict will reject this)",
    )
    score.set_defaults(func=cmd_score)

    serve = sub.add_parser(
        "serve", help="push batched traffic through a PredictionService and report"
    )
    add_dataset_options(serve)
    serve.add_argument("--artifact", required=True, help="artifact directory to load")
    serve.add_argument("--rows", type=int, default=0, help="traffic volume (0 = deploy split size)")
    serve.add_argument("--request-size", type=int, default=1024, help="records per request")
    serve.add_argument("--batch-size", type=int, default=512, help="micro-batch size")
    serve.add_argument("--window", type=int, default=5000, help="monitor window size")
    add_dump_options(serve)
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-serve`` console script)."""
    return dispatch(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
