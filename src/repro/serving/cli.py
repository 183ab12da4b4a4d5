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
import json
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import available_datasets, load_dataset, split_dataset
from repro.exceptions import ReproError, ValidationError
from repro.fairness import evaluate_predictions
from repro.interventions import FairnessPipeline, PipelineResult, available_interventions
from repro.serving.artifacts import (
    describe_artifact,
    find_profile,
    load_artifact,
    save_artifact,
)
from repro.serving.monitor import FairnessMonitor
from repro.serving.service import PredictionService
from repro.telemetry import (
    enable as enable_telemetry,
    get_event_log,
    write_events,
    write_metrics,
)


def parse_params(pairs: Optional[List[str]]) -> Dict[str, object]:
    """Parse repeatable ``--param key=value`` options (values parsed as JSON).

    Shared with ``repro-simulate``, whose ``--param`` / ``--scenario-param``
    options follow the same convention.
    """
    params: Dict[str, object] = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            # ValidationError is a ReproError, so main() turns this into the
            # clean `error: ...` + exit 2 path instead of a traceback.
            raise ValidationError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _load_split(args) -> Tuple[object, object]:
    dataset = load_dataset(
        args.dataset, size_factor=args.size_factor, random_state=args.seed
    )
    return dataset, split_dataset(dataset, random_state=args.seed)


def emit_json(payload: Dict[str, object]) -> None:
    """Write one JSON document to stdout (every CLI's single output shape)."""
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


# find_profile now lives in repro.serving.artifacts (the mitigation
# controller needs it without a CLI import); the name stays importable from
# here for existing callers.
__all__ = ["emit_json", "find_profile", "main", "parse_params"]


# ---------------------------------------------------------------- commands
def cmd_fit(args) -> int:
    pipeline = FairnessPipeline(
        intervention=args.intervention,
        learner=args.learner,
        dataset=args.dataset,
        size_factor=args.size_factor,
        seed=args.seed,
        intervention_params=parse_params(args.param),
        fit_n_jobs=args.n_jobs,
    )
    result = pipeline.run()
    payload: Dict[str, object] = {
        "dataset": result.dataset,
        "method": result.method,
        "learner": result.learner,
        "seed": result.seed,
        "runtime_seconds": round(result.runtime_seconds, 4),
        "report": result.report.to_dict(),
    }
    if args.out:
        save_artifact(
            result,
            args.out,
            metadata={
                "command": "fit",
                "dataset": args.dataset,
                "intervention": args.intervention,
                "learner": args.learner,
                "seed": args.seed,
                "size_factor": args.size_factor,
            },
        )
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
    _, split = _load_split(args)
    deploy = split.deploy
    # --group-blind is honored unconditionally: a model that declared
    # requires_group_at_predict then rejects the request (exit code 2),
    # which is exactly the capability check the flag exists to exercise.
    group = None if args.group_blind else deploy.group
    if group is None:
        predictions = service.predict(deploy.X)
        report = evaluate_predictions(deploy.y, predictions, deploy.group)
    else:
        report = service.score(deploy.X, deploy.y, group)
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
    if args.metrics_out:
        enable_telemetry()
    events = get_event_log()
    if args.events_out:
        events.enable()
    loaded = load_artifact(args.artifact)
    monitor = FairnessMonitor(
        window_size=args.window, profile=find_profile(loaded)
    )
    service = PredictionService(
        loaded,
        batch_size=args.batch_size,
        max_workers=args.workers,
        monitor=monitor,
    )
    _, split = _load_split(args)
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
            # Flight-recorder edge detection: whenever the alarmed-channel
            # set changes, log the edge and the full channel attribution at
            # the monitor's latest sequence stamp.
            report = monitor.alarm_report()
            if report["alarmed"] != previous_alarmed:
                sequence = int(report["last_sequence"])
                events.emit(
                    "alarm_edge",
                    sequence=sequence,
                    raised=[c for c in report["alarmed"] if c not in previous_alarmed],
                    cleared=[c for c in previous_alarmed if c not in report["alarmed"]],
                    channels=list(report["alarmed"]),
                )
                events.emit(
                    "channel_snapshot",
                    sequence=sequence,
                    trigger="alarm_edge",
                    report=report,
                )
                previous_alarmed = list(report["alarmed"])

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
    if args.metrics_out:
        payload["metrics_out"] = write_metrics(args.metrics_out)
    if args.events_out:
        payload["events_out"] = write_events(args.events_out)
    emit_json(payload)
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Fit, persist, score, and serve fairness-intervention models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_options(p) -> None:
        p.add_argument(
            "--dataset",
            default="meps",
            help=f"benchmark name (one of {', '.join(available_datasets())})",
        )
        p.add_argument("--seed", type=int, default=7, help="dataset/split/learner seed")
        p.add_argument(
            "--size-factor",
            type=float,
            default=0.05,
            help="fraction of the published dataset size to generate",
        )

    fit = sub.add_parser("fit", help="run a FairnessPipeline and save the result artifact")
    add_data_options(fit)
    fit.add_argument(
        "--intervention",
        default="confair",
        help=f"intervention name (one of {', '.join(available_interventions())})",
    )
    fit.add_argument("--learner", default="lr", help="final-model learner name")
    fit.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="extra intervention constructor parameter (repeatable; value parsed as JSON)",
    )
    fit.add_argument("--out", help="artifact directory to write")
    fit.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        help="worker threads for profiling/tuning inside the fit "
        "(results are bit-identical to a serial fit; -1 = all cores)",
    )
    fit.set_defaults(func=cmd_fit)

    save = sub.add_parser(
        "save", help="extract the lean DeployedModel artifact from a fit artifact"
    )
    save.add_argument("--source", required=True, help="source artifact directory")
    save.add_argument("--out", required=True, help="target artifact directory")
    save.set_defaults(func=cmd_save)

    score = sub.add_parser("score", help="evaluate a saved artifact on a dataset's deploy split")
    add_data_options(score)
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
    add_data_options(serve)
    serve.add_argument("--artifact", required=True, help="artifact directory to load")
    serve.add_argument("--rows", type=int, default=0, help="traffic volume (0 = deploy split size)")
    serve.add_argument("--request-size", type=int, default=1024, help="records per request")
    serve.add_argument("--batch-size", type=int, default=512, help="micro-batch size")
    serve.add_argument("--workers", type=int, default=None, help="thread-pool width")
    serve.add_argument("--window", type=int, default=5000, help="monitor window size")
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable telemetry and write its JSON dump (summary + mergeable "
        "state) to PATH after serving",
    )
    serve.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="enable the flight recorder and write its event-log dump "
        "(request events, alarm edges, channel attributions) to PATH",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-serve`` console script)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
