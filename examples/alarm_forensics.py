"""Alarm forensics: catch a drift alarm, then explain it from the flight recorder.

The script walks the observability path the telemetry flight recorder adds:

1. fit ConFair on a drifted two-group benchmark through ``FairnessPipeline``
   and stand up an 8-shard ``FleetService`` with telemetry *and* the
   structured event log enabled;
2. replay a seed-deterministic ``group_shift`` stream through the fleet —
   every served request lands in a shard-private ``EventLog`` keyed by the
   monitor's stream-wide sequence stamp, and every alarm edge lands in the
   frontend log together with a full ``FairnessMonitor.alarm_report``
   channel-attribution snapshot;
3. fold the shard logs back into the union stream with
   ``FleetService.events_report()`` (the same exact-merge contract the
   monitors and histograms make) and read the forensics off it: which
   channel alarmed, at what windowed statistic, against what threshold,
   over which sequence range;
4. stitch the distributed trace of the request that tripped the alarm:
   the frontend assigns each micro-batch a deterministic trace id
   (``fleet-<sequence>``), the serving span on the shard carries it, and
   the sequence stamp joins the span back to its event-log records.

Run with:  python examples/alarm_forensics.py
"""

from repro import FairnessPipeline, make_drifted_groups, split_dataset
from repro.fleet import FleetService
from repro.serving import MonitorThresholds, find_profile
from repro.simulate import ReplayHarness, SuiteRunner, TrafficStream, make_scenario
from repro.telemetry import enable as enable_telemetry, get_event_log

N_SHARDS = 8


def main() -> None:
    # 1. Fit, and arm both halves of the telemetry layer *before* the fleet
    # exists so shard workers mint enabled private registries and logs.
    enable_telemetry()
    log = get_event_log().enable()

    split = split_dataset(
        make_drifted_groups(
            n_majority=900, n_minority=380, n_features=4,
            name="forensics-demo", random_state=33,
        ),
        random_state=33,
    )
    result = FairnessPipeline(
        "confair", dataset=split, intervention_params={"alpha_u": 1.0}, seed=33
    ).run()
    print(f"fitted {result.method}: offline DI* = {result.report.di_star:.4f}")

    runner = SuiteRunner(
        result.model,
        split.train,
        profile=find_profile(result),
        calibration=split.validation,
        window_size=900,
        thresholds=MonitorThresholds(min_samples=40),
    )

    # 2. Replay a drifting stream through the fleet.  The harness emits an
    # alarm_edge + channel_snapshot pair into the frontend log the moment
    # the fleet monitor's alarmed-channel set changes.
    fleet = runner.make_service(shards=N_SHARDS)
    assert isinstance(fleet, FleetService)
    with fleet:
        stream = TrafficStream(
            split.deploy, make_scenario("group_shift"),
            n_steps=24, batch_size=90, random_state=33,
        )
        outcome = ReplayHarness(fleet).replay(stream, label="group_shift")
        events = fleet.events_report()
        trace_view = fleet.trace  # bound before close; used in step 4
        print(f"replayed {outcome.n_steps} steps across {N_SHARDS} shards: "
              f"detected={outcome.detected} "
              f"(latency {outcome.detection_latency_steps} steps)")

        # 3. Forensics from the merged log alone: the union stream one
        # process would have recorded, rebuilt from 1 frontend + 8 shard logs.
        merged = events["merged"]["state"]
        kinds = sorted({record["kind"] for record in merged["records"]})
        print(f"\nmerged flight recorder: {merged['n_emitted']} events, kinds={kinds}")

        edge = next(r for r in merged["records"] if r["kind"] == "alarm_edge")
        snapshot = next(
            r for r in merged["records"]
            if r["kind"] == "channel_snapshot"
            and r["sequence"] == edge["sequence"]
        )
        report = snapshot["attributes"]["report"]
        print(f"first alarm edge at sequence {edge['sequence']} "
              f"(step {edge['attributes']['step']}): "
              f"raised={edge['attributes']['raised']}")
        for name in report["alarmed"]:
            channel = report["channels"][name]
            print(f"  channel {name!r}: statistic={channel['statistic']:.4f} "
                  f"baseline={channel['baseline']:.4f} "
                  f"threshold={channel['threshold']:.4f} "
                  f"margin=+{channel['margin']:.4f}")
        print(f"  verdict computed over sequences "
              f"[{report['window_sequence_min']}, {report['window_sequence_max']}] "
              f"({report['n_window']} windowed rows)")

        # 4. Stitch the trace of the request that tripped the alarm.  The
        # trace id is deterministic in the sequence, so forensics can name
        # it after the fact without having recorded it in the event log.
        trace_id = FleetService.trace_id_for(edge["sequence"])
        stitched = trace_view(trace_id=trace_id)
        print(f"\ntrace {trace_id!r}:")
        for shard in stitched["shards"]:
            for span in shard["spans"]:
                attrs = span["attributes"]
                print(f"  shard {attrs['shard_id']}: span {span['name']!r} "
                      f"rows={attrs['rows']} sequence={attrs['sequence']} "
                      f"({span['duration_seconds'] * 1e3:.2f} ms, {span['status']})")

    log.reset().disable()


if __name__ == "__main__":
    main()
