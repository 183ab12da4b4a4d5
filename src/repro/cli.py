"""Options and I/O shared by the four console scripts.

``repro-serve``, ``repro-simulate``, ``repro-fleet`` and ``repro-telemetry``
each print one JSON document per command (:func:`emit_json`) and turn any
:class:`~repro.exceptions.ReproError` into ``error: ...`` on stderr and exit
code 2 (:func:`dispatch`).  This module defines, once, the option groups they
share, the fit-or-load path every replay command starts from
(:func:`deployment`, the paper's fit → deploy step), and the recording
behind ``--metrics-out`` / ``--events-out`` (:func:`start_recording`,
:func:`write_dumps`).

It is the command-line layer, so :mod:`repro` does not re-export it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro import telemetry
from repro.datasets import DatasetSplit, available_datasets, load_dataset, split_dataset
from repro.density.kde import KernelDensity
from repro.exceptions import ReproError, ValidationError
from repro.interventions import FairnessPipeline, PipelineResult, available_interventions
from repro.serving.artifacts import find_profile, load_artifact, save_artifact
from repro.serving.monitor import MonitorThresholds
from repro.simulate.registry import available_scenarios
from repro.simulate.suites import SuiteRunner

Payload = Dict[str, object]


def dispatch(parser: argparse.ArgumentParser, argv: Optional[List[str]]) -> int:
    """Parse ``argv`` and run the chosen subcommand's ``func``.

    A :class:`ReproError` becomes ``error: <message>`` on stderr and exit
    code 2 instead of a traceback.
    """
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def emit_json(payload: Payload) -> None:
    """Write one JSON document to stdout (every CLI's single output shape)."""
    json.dump(payload, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def parse_params(pairs: Optional[List[str]]) -> Payload:
    """Parse repeatable ``KEY=VALUE`` options (values parsed as JSON)."""
    params: Payload = {}
    for pair in pairs or []:
        key, separator, raw = pair.partition("=")
        if not separator or not key:
            raise ValidationError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


# ----------------------------------------------------------- option groups
def add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="meps",
        help=f"benchmark name (one of {', '.join(available_datasets())})",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="dataset, split, learner and stream seed"
    )
    parser.add_argument(
        "--size-factor",
        type=float,
        default=0.05,
        help="fraction of the published dataset size to generate",
    )


def add_fit_options(parser: argparse.ArgumentParser, *, n_jobs: bool = True) -> None:
    """The pipeline a fit runs; ``n_jobs=False`` leaves out ``--n-jobs``."""
    parser.add_argument(
        "--intervention",
        default="confair",
        help=f"intervention to fit (one of {', '.join(available_interventions())})",
    )
    parser.add_argument("--learner", default="lr", help="final-model learner name")
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="extra intervention constructor parameter (repeatable; value parsed as JSON)",
    )
    if n_jobs:
        parser.add_argument(
            "--n-jobs",
            type=int,
            default=None,
            help="worker threads for profiling/tuning inside the fit "
            "(results are bit-identical to a serial fit; -1 = all cores)",
        )


def add_replay_options(parser: argparse.ArgumentParser, *, n_jobs: bool = True) -> None:
    """Every option :func:`deployment` and a replay command read.

    The dataset, where the model comes from (``--artifact``, or a fit saved
    to ``--out``), the replayed stream, the monitored service, and the dumps.
    """
    add_dataset_options(parser)
    parser.add_argument(
        "--artifact",
        help="artifact directory saved by repro-serve fit (omit to fit one now)",
    )
    parser.add_argument(
        "--out",
        help="where to save the freshly fitted artifact (default: a temporary "
        "directory, removed on exit)",
    )
    add_fit_options(parser, n_jobs=n_jobs)
    parser.add_argument("--steps", type=int, default=40, help="stream steps on the timeline")
    parser.add_argument(
        "--stream-batch", type=int, default=128, help="base rows per stream step"
    )
    parser.add_argument("--window", type=int, default=2000, help="monitor window size")
    parser.add_argument(
        "--group-tolerance",
        type=float,
        default=0.15,
        help="group-prevalence alarm tolerance (absolute fraction)",
    )
    parser.add_argument("--batch-size", type=int, default=512, help="service micro-batch size")
    density = parser.add_mutually_exclusive_group()
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
    add_dump_options(parser)


def add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default="group_shift",
        help=f"scenario name (one of {', '.join(available_scenarios())})",
    )
    parser.add_argument(
        "--scenario-param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario constructor parameter (repeatable; value parsed as JSON)",
    )


def add_dump_options(parser: argparse.ArgumentParser) -> None:
    """``--metrics-out`` / ``--events-out``, read by the two functions below."""
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable telemetry and write its JSON dump (summary + mergeable state; "
        "a repro-fleet serve dump adds frontend and per-shard sections) to PATH",
    )
    parser.add_argument(
        "--events-out",
        default=None,
        metavar="PATH",
        help="enable the flight recorder and write its event-log dump (request "
        "events, alarm edges, channel attributions; a repro-fleet serve dump adds "
        "frontend and per-shard sections) to PATH",
    )


# ---------------------------------------------------------------- recording
def start_recording(args: argparse.Namespace) -> None:
    """Turn on the telemetry and event log the dump options ask for.

    Call it before any service or shard worker exists: inline shards copy
    the process-wide flags into their private registries and logs, and
    process shards receive them in the pipe handshake.
    """
    if args.metrics_out:
        telemetry.enable()
    if args.events_out:
        telemetry.get_event_log().enable()


def write_dumps(args: argparse.Namespace, payload: Payload, fleet=None) -> None:
    """Write the requested dumps and name them in ``payload``.

    Without ``fleet`` the dumps hold the process-wide registry and log; with
    a live :class:`~repro.fleet.FleetService` they hold its sectioned
    reports, which are only reachable while its shards are alive.
    """
    if args.metrics_out:
        payload["metrics_out"] = telemetry.write_metrics(
            args.metrics_out, None if fleet is None else fleet.telemetry_report()
        )
    if args.events_out:
        payload["events_out"] = telemetry.write_events(
            args.events_out, None if fleet is None else fleet.events_report()
        )


# -------------------------------------------------------------- fit or load
def load_split(args: argparse.Namespace) -> DatasetSplit:
    """The train/validation/deploy split the dataset options name."""
    dataset = load_dataset(args.dataset, size_factor=args.size_factor, random_state=args.seed)
    return split_dataset(dataset, random_state=args.seed)


def fit_pipeline(args: argparse.Namespace) -> PipelineResult:
    """Run the :class:`FairnessPipeline` the dataset and fit options name."""
    return FairnessPipeline(
        intervention=args.intervention,
        learner=args.learner,
        dataset=args.dataset,
        size_factor=args.size_factor,
        seed=args.seed,
        intervention_params=parse_params(args.param),
        fit_n_jobs=getattr(args, "n_jobs", None),
    ).run()


def save_fit(result: PipelineResult, target, args: argparse.Namespace, command: str) -> str:
    """Save a CLI fit with the metadata that records how it was made."""
    metadata = {
        "command": command,
        "dataset": args.dataset,
        "intervention": args.intervention,
        "learner": args.learner,
        "seed": args.seed,
        "size_factor": args.size_factor,
    }
    return str(save_artifact(result, target, metadata=metadata))


@dataclass
class Deployment:
    """The model a replay command serves, with its split and monitor recipe."""

    #: The artifact directory to report: ``None`` for a temporary fit.
    artifact: Optional[str]
    #: The directory the model was loaded from.
    path: str
    split: DatasetSplit
    runner: SuiteRunner
    scope: contextlib.ExitStack

    def temp_dir(self, prefix: str) -> str:
        """A new directory, removed when the :func:`deployment` block exits."""
        return self.scope.enter_context(tempfile.TemporaryDirectory(prefix=prefix))


@contextlib.contextmanager
def deployment(args: argparse.Namespace) -> Iterator[Deployment]:
    """Fit or load the artifact a replay command serves.

    With ``--artifact`` the model is loaded from it.  Otherwise the pipeline
    is fitted, saved to ``--out`` (or a temporary directory), and loaded
    back, so every replay is driven from a saved artifact, never from the
    in-memory fit.  Temporary directories are removed when the block exits.
    """
    with contextlib.ExitStack() as scope:
        path = artifact = args.artifact
        if not artifact:
            target = args.out or scope.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-simulate-")
            )
            path = save_fit(fit_pipeline(args), target, args, command="simulate")
            artifact = path if args.out else None
        loaded = load_artifact(path)
        split = load_split(args)
        density_estimator = None
        if args.density:
            density_estimator = KernelDensity(bandwidth="scott", kernel="gaussian").fit(
                split.train.numeric_X
            )
        mitigation_params = {
            knob: getattr(args, knob)
            for knob in ("min_refit_rows", "min_shadow_steps", "max_shadow_steps", "cooldown_steps")
            if getattr(args, knob, None) is not None
        }
        runner = SuiteRunner(
            loaded,
            split.train,
            profile=find_profile(loaded),
            density_estimator=density_estimator,
            calibration=split.validation,
            window_size=args.window,
            thresholds=MonitorThresholds(group_tolerance=args.group_tolerance),
            service_batch_size=args.batch_size,
            intervention=args.intervention,
            learner=args.learner,
            intervention_params=parse_params(args.param),
            fit_n_jobs=getattr(args, "n_jobs", None),
            mitigation_params=mitigation_params,
        )
        yield Deployment(artifact, path, split, runner, scope)


def run_replay(
    args: argparse.Namespace, body: Callable[[argparse.Namespace, Deployment], Payload]
) -> Payload:
    """The shared prologue and epilogue of a replay command.

    Turns on the requested recording, fits or loads the artifact, lets
    ``body`` add the command's own fields after ``artifact`` and ``dataset``,
    writes the dumps, prints the payload and returns it.
    """
    start_recording(args)
    with deployment(args) as served:
        payload: Payload = {"artifact": served.artifact, "dataset": args.dataset}
        payload.update(body(args, served))
    write_dumps(args, payload)
    emit_json(payload)
    return payload
