"""Command-line front end for telemetry dumps.

Four subcommands::

    repro-telemetry summary --input metrics.json
    repro-telemetry summary --input fleet-metrics.json --section shard:0 --prometheus
    repro-telemetry diff    --before warmup.json --after loaded.json
    repro-telemetry tail    --input events.json --kind alarm_edge
    repro-telemetry trace   --events events.json --metrics metrics.json \\
                            --trace-id fleet-000017

``summary`` re-summarizes the **mergeable state** inside a ``--metrics-out``
dump — counters, gauges, and histogram quantiles — either as JSON (the
default, same shape as ``MetricsRegistry.export``) or as Prometheus text
exposition with ``--prometheus``.  ``diff`` subtracts one dump from another
**exactly**: counters and histogram bucket counts are integers, so the delta
between two dumps of the same process is precisely what happened in between.

``tail`` reads a ``--events-out`` flight-recorder dump and prints the last N
events in canonical ``(sequence, kind, index)`` order, optionally filtered
by kind — ``tail --kind channel_snapshot`` is the alarm-forensics view.
``trace`` stitches the two dump families: it gathers the spans matching a
``--trace-id`` (or an explicit ``--sequence``) from a ``--metrics-out``
dump — frontend and shard sections alike — and joins the event-log records
that share those sequence stamps, resolving one fleet micro-batch into its
dispatch span, worker-side request span, and every event it triggered.

All commands accept plain dumps (written by ``repro-serve serve`` /
``repro-simulate run|suite|calibrate`` / ``repro-fleet replay``) and fleet dumps
(written by ``repro-fleet serve``, which carry ``frontend`` / ``shards`` /
``merged`` sections); pick a fleet section with ``--section``.

Also available as ``python -m repro.telemetry``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cli import dispatch, emit_json
from repro.exceptions import TelemetryError
from repro.telemetry.events import EventLog
from repro.telemetry.metrics import MetricsRegistry


def _load_dump(path: str) -> Dict[str, Any]:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise TelemetryError(f"cannot read telemetry dump {path!r}: {error}") from error
    if not isinstance(payload, dict):
        raise TelemetryError(f"telemetry dump {path!r} is not a JSON object")
    return payload


def _select_state(dump: Dict[str, Any], section: str, path: str, flag: str) -> Dict[str, Any]:
    """Pull one mergeable ``state`` out of a plain or fleet ``flag`` dump.

    ``flag`` is the option that wrote the dump (``--metrics-out`` or
    ``--events-out``).  ``section`` is ``auto`` (plain state, else the
    fleet's ``merged``), ``merged``, ``frontend``, or ``shard:<id>``.
    """
    if section == "auto":
        if "state" in dump:
            return dump["state"]
        if "merged" in dump:
            return dump["merged"]["state"]
        raise TelemetryError(
            f"dump {path!r} has neither 'state' nor 'merged' — was it written by {flag}?"
        )
    if section in ("merged", "frontend"):
        block = dump.get(section)
        if not isinstance(block, dict) or "state" not in block:
            raise TelemetryError(
                f"{flag} dump {path!r} has no {section!r} section "
                f"(only repro-fleet serve dumps carry one)"
            )
        return block["state"]
    if section.startswith("shard:"):
        shard_id = section[len("shard:"):]
        for shard in dump.get("shards", []):
            if str(shard.get("shard_id")) == shard_id:
                state = shard.get("state")
                if state is None:
                    raise TelemetryError(f"shard {shard_id} in {path!r} reported no state")
                return state
        raise TelemetryError(f"{flag} dump {path!r} has no shard {shard_id!r}")
    raise TelemetryError(
        f"unknown --section {section!r}; use auto, merged, frontend, or shard:<id>"
    )


def _collect_spans(dump: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every span in a plain or fleet ``--metrics-out`` dump, source-tagged."""
    spans: List[Dict[str, Any]] = []

    def tag(records, source) -> None:
        for record in records or []:
            if isinstance(record, dict):
                spans.append({**record, "source": source})

    if "export" in dump:  # plain dump: MetricsRegistry.dump()
        tag(dump["export"].get("spans"), "process")
    frontend = dump.get("frontend")
    if isinstance(frontend, dict):
        tag(frontend.get("export", {}).get("spans"), "frontend")
    for shard in dump.get("shards", []):
        if isinstance(shard, dict):
            tag(shard.get("spans"), f"shard:{shard.get('shard_id')}")
    return spans


# ---------------------------------------------------------------- commands
def cmd_summary(args) -> int:
    dump = _load_dump(args.input)
    state = _select_state(dump, args.section, args.input, "--metrics-out")
    registry = MetricsRegistry().load_state_dict(state)
    if args.prometheus:
        sys.stdout.write(registry.export_prometheus())
        return 0
    export = registry.export(include_spans=False)
    export.pop("enabled", None)  # a re-summarized state has no live flag
    emit_json(
        {
            "input": args.input,
            "section": args.section,
            "telemetry_version": dump.get("telemetry_version"),
            "summary": export,
        }
    )
    return 0


def _diff_histograms(
    before: Dict[str, Any], after: Dict[str, Any], name: str
) -> Dict[str, Any]:
    b_buckets = tuple(float(u) for u in before["buckets"])
    a_buckets = tuple(float(u) for u in after["buckets"])
    if b_buckets != a_buckets or float(before["resolution"]) != float(after["resolution"]):
        raise TelemetryError(
            f"Histogram {name!r} changed bucket layout between dumps; "
            f"cannot diff exactly"
        )
    resolution = float(after["resolution"])
    bucket_deltas: List[Dict[str, Any]] = []
    uppers: List[Any] = list(a_buckets) + ["+Inf"]
    for upper, b_count, a_count in zip(uppers, before["counts"], after["counts"]):
        delta = int(a_count) - int(b_count)
        if delta:
            bucket_deltas.append({"le": upper, "count_delta": delta})
    count_delta = sum(int(c) for c in after["counts"]) - sum(
        int(c) for c in before["counts"]
    )
    sum_delta_scaled = int(after["sum_scaled"]) - int(before["sum_scaled"])
    return {
        "count_delta": count_delta,
        "sum_delta": sum_delta_scaled * resolution,
        "mean_of_new": (
            None if count_delta <= 0 else sum_delta_scaled * resolution / count_delta
        ),
        "bucket_deltas": bucket_deltas,
    }


def cmd_diff(args) -> int:
    before = _select_state(_load_dump(args.before), args.section, args.before, "--metrics-out")
    after = _select_state(_load_dump(args.after), args.section, args.after, "--metrics-out")
    MetricsRegistry._validate_state(before)
    MetricsRegistry._validate_state(after)

    counters: Dict[str, Any] = {}
    for name in sorted(set(before.get("counters", {})) | set(after.get("counters", {}))):
        b = int(before.get("counters", {}).get(name, 0))
        a = int(after.get("counters", {}).get(name, 0))
        counters[name] = {"before": b, "after": a, "delta": a - b}

    gauges: Dict[str, Any] = {}
    for name in sorted(set(before.get("gauges", {})) | set(after.get("gauges", {}))):
        b = float(before.get("gauges", {}).get(name, 0.0))
        a = float(after.get("gauges", {}).get(name, 0.0))
        gauges[name] = {"before": b, "after": a, "delta": a - b}

    histograms: Dict[str, Any] = {}
    before_hists = before.get("histograms", {})
    after_hists = after.get("histograms", {})
    for name in sorted(set(before_hists) | set(after_hists)):
        b_state = before_hists.get(name)
        a_state = after_hists.get(name)
        if b_state is None:
            # New in `after`: the whole after-state is the delta.
            b_state = {
                **a_state,
                "counts": [0] * len(a_state["counts"]),
                "sum_scaled": 0,
            }
        if a_state is None:
            a_state = {
                **b_state,
                "counts": [0] * len(b_state["counts"]),
                "sum_scaled": 0,
            }
        histograms[name] = _diff_histograms(b_state, a_state, name)

    emit_json(
        {
            "before": args.before,
            "after": args.after,
            "section": args.section,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
    )
    return 0


def cmd_tail(args) -> int:
    dump = _load_dump(args.input)
    log = EventLog().load_state_dict(_select_state(dump, args.section, args.input, "--events-out"))
    records = log.tail(args.last, kind=args.kind)
    emit_json(
        {
            "input": args.input,
            "section": args.section,
            "events_version": dump.get("events_version"),
            "n_emitted": log.n_emitted,
            "evicted_through": log.evicted_through,
            "n_shown": len(records),
            "events": records,
        }
    )
    return 0


def cmd_trace(args) -> int:
    if args.trace_id is None and args.sequence is None:
        raise TelemetryError("trace needs --trace-id and/or --sequence to anchor the join")
    spans: List[Dict[str, Any]] = []
    if args.metrics is not None:
        for span in _collect_spans(_load_dump(args.metrics)):
            attributes = span.get("attributes") or {}
            if args.trace_id is not None and attributes.get("trace_id") != args.trace_id:
                continue
            if (
                args.sequence is not None
                and args.trace_id is None
                and attributes.get("sequence") != args.sequence
            ):
                continue
            spans.append(span)
    # The join key: sequences named on the matched spans, plus any given
    # explicitly.  Event records never carry trace ids (they must merge
    # bit-identically across shardings), so the sequence stamp is the bridge.
    sequences = {
        int(span["attributes"]["sequence"])
        for span in spans
        if isinstance(span.get("attributes"), dict) and "sequence" in span["attributes"]
    }
    if args.sequence is not None:
        sequences.add(int(args.sequence))
    events: List[Dict[str, Any]] = []
    if args.events is not None:
        dump = _load_dump(args.events)
        log = EventLog().load_state_dict(
            _select_state(dump, args.section, args.events, "--events-out")
        )
        events = [record for record in log.records() if record["sequence"] in sequences]
    emit_json(
        {
            "trace_id": args.trace_id,
            "sequences": sorted(sequences),
            "n_spans": len(spans),
            "n_events": len(events),
            "spans": spans,
            "events": events,
        }
    )
    return 0


# ------------------------------------------------------------------ parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Summarize and diff --metrics-out dumps; tail and trace "
        "--events-out dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_section_option(p) -> None:
        p.add_argument(
            "--section",
            default="auto",
            metavar="WHICH",
            help="which state to read from a fleet dump: auto (default; plain "
            "state, else merged), merged, frontend, or shard:<id>",
        )

    summary = sub.add_parser(
        "summary", help="re-summarize a dump's mergeable state (JSON or Prometheus)"
    )
    summary.add_argument("--input", required=True, help="a --metrics-out JSON file")
    add_section_option(summary)
    summary.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition instead of JSON",
    )
    summary.set_defaults(func=cmd_summary)

    diff = sub.add_parser(
        "diff", help="exact metric deltas between two dumps of the same process"
    )
    diff.add_argument("--before", required=True, help="earlier --metrics-out JSON file")
    diff.add_argument("--after", required=True, help="later --metrics-out JSON file")
    add_section_option(diff)
    diff.set_defaults(func=cmd_diff)

    tail = sub.add_parser(
        "tail", help="last N flight-recorder events from an --events-out dump"
    )
    tail.add_argument("--input", required=True, help="an --events-out JSON file")
    add_section_option(tail)
    tail.add_argument(
        "-n",
        "--last",
        type=int,
        default=20,
        metavar="N",
        help="events to show (default 20)",
    )
    tail.add_argument(
        "--kind",
        default=None,
        help="only events of this kind (request, alarm_edge, channel_snapshot, "
        "mitigation_transition, worker_lifecycle)",
    )
    tail.set_defaults(func=cmd_tail)

    trace = sub.add_parser(
        "trace",
        help="stitch one trace: spans from a --metrics-out dump joined to "
        "events by sequence stamp",
    )
    trace.add_argument(
        "--events", default=None, help="an --events-out JSON file (the event side)"
    )
    trace.add_argument(
        "--metrics", default=None, help="a --metrics-out JSON file (the span side)"
    )
    trace.add_argument(
        "--trace-id", default=None, help="trace id to follow (e.g. fleet-000017)"
    )
    trace.add_argument(
        "--sequence",
        type=int,
        default=None,
        help="sequence stamp to join on (alternative or additional anchor)",
    )
    add_section_option(trace)
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-telemetry`` console script)."""
    return dispatch(build_parser(), argv)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    raise SystemExit(main())
