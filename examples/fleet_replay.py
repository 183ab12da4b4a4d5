"""Sharded fleet replay: 8 shards, one fleet-wide fairness view, zero divergence.

The script walks the scale-out path the ``repro.fleet`` subsystem adds:

1. fit ConFair on a drifted two-group benchmark through ``FairnessPipeline``;
2. replay the same seed-deterministic ``group_shift`` stream twice — once
   through a single monitored ``PredictionService`` and once through an
   8-shard ``FleetService`` (round-robin dispatch, sequence-stamped batches,
   each shard's scored chunk committed in order to the front-end's window);
3. assert the two scored verdicts are **bit-identical** — same alarms at the
   same steps, same detection latency, same windowed DI* trajectory.  The
   fleet window is exact because ``FairnessMonitor`` state is additive
   sufficient statistics over sequence-stamped chunks, not an approximation;
4. print the fleet-level report: per-shard throughput plus the fleet-wide
   windowed fairness summary no single shard could compute alone.

Run with:  python examples/fleet_replay.py
"""

from repro import FairnessPipeline, make_drifted_groups, split_dataset
from repro.fleet import compare_sharded_replay
from repro.serving import MonitorThresholds, find_profile
from repro.simulate import SuiteRunner, TrafficStream, make_scenario

N_SHARDS = 8


def main() -> None:
    # 1. Fit: conformance-driven reweighing on an overlapping-group benchmark.
    split = split_dataset(
        make_drifted_groups(
            n_majority=900, n_minority=380, n_features=4,
            name="fleet-demo", random_state=33,
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

    # 2–3. Same stream, 1 shard vs. 8 shards; the comparison re-runs the
    # replay through runner.make_service(shards=N) and diffs everything in
    # ReplayResult.to_dict(include_steps=True) except wall-clock throughput.
    comparison = compare_sharded_replay(
        runner,
        make_scenario("group_shift"),
        split.deploy,
        shards=N_SHARDS,
        label="group_shift",
        n_steps=24,
        batch_size=90,
        seed=33,
    )
    assert comparison.matches, comparison.differences
    print(f"\n{N_SHARDS}-shard replay vs. single service: bit-identical "
          f"({len(comparison.differences)} differences)")
    single = comparison.single
    print(f"  drift injected at step {single.first_drift_step}, "
          f"detected = {single.detected} on both topologies")
    print(f"  detection latency: {single.detection_latency_steps} steps")

    # 4. The fleet-level view: drive one request per shard through a fresh
    # fleet and read the merged report the aggregator maintains.
    fleet = runner.make_service(shards=N_SHARDS)
    try:
        stream = TrafficStream(
            split.deploy, make_scenario("none"),
            n_steps=2 * N_SHARDS, batch_size=90, random_state=33,
        )
        for batch in stream:
            fleet.predict(batch.X, batch.group, y_true=batch.y)
        report = fleet.fleet_report()
        print(f"\nfleet report: {report['n_shards']} shards, "
              f"{report['n_records']} records, "
              f"{report['records_per_second']:,.0f} records/s")
        for shard in report["shards"]:
            print(f"  shard {shard['shard_id']}: {shard['n_requests']} requests, "
                  f"{shard['n_records']} records")
        windowed = report["windowed"]
        print(f"  fleet window: n={windowed['n_window']} of "
              f"{windowed['n_seen']} seen  DI*={windowed['di_star']:.4f}")
    finally:
        fleet.close()


if __name__ == "__main__":
    main()
