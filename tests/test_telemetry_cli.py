"""``repro-telemetry`` CLI and the ``--metrics-out`` flag end to end.

The CLI contract: ``summary`` re-summarizes the mergeable state inside any
``--metrics-out`` dump (plain or fleet-sectioned, JSON or Prometheus), and
``diff`` computes **exact** deltas between two dumps — integer counter and
bucket arithmetic, no float drift.  The serving/fleet CLI tests assert the
flag produces parseable dumps wired from real traffic.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.fleet.cli import main as fleet_main
from repro.interventions import FairnessPipeline
from repro.serving import save_artifact
from repro.serving.cli import main as serve_main
from repro.simulate.cli import main as simulate_main
from repro.telemetry import MetricsRegistry, write_metrics
from repro.telemetry.cli import main as telemetry_main


def make_dump(path, *, requests=3, latencies=(0.01, 0.02, 0.5)) -> str:
    registry = MetricsRegistry(enabled=True)
    registry.counter("serving.requests_total").inc(requests)
    registry.gauge("cache.hits").set(float(requests))
    hist = registry.histogram("serving.request_latency_seconds")
    for value in latencies:
        hist.observe(value)
    return write_metrics(path, registry.dump())


class TestSummary:
    def test_summary_reports_counts_and_quantiles(self, tmp_path, capsys):
        dump = make_dump(tmp_path / "m.json")
        assert telemetry_main(["summary", "--input", dump]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry_version"] == 1
        summary = payload["summary"]
        assert summary["counters"]["serving.requests_total"] == 3
        latency = summary["histograms"]["serving.request_latency_seconds"]
        assert latency["count"] == 3
        assert latency["quantiles"]["p99"] == 0.5

    def test_summary_prometheus_rerender(self, tmp_path, capsys):
        dump = make_dump(tmp_path / "m.json")
        assert telemetry_main(["summary", "--input", dump, "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "serving_requests_total 3" in text
        assert 'serving_request_latency_seconds_bucket{le="+Inf"} 3' in text

    def test_unreadable_or_malformed_input_exits_2(self, tmp_path, capsys):
        assert telemetry_main(["summary", "--input", str(tmp_path / "no.json")]) == 2
        assert "error:" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"neither": "state nor merged"}')
        assert telemetry_main(["summary", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        dump = make_dump(tmp_path / "m.json")
        assert telemetry_main(["summary", "--input", dump, "--section", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDiff:
    def test_diff_is_exact(self, tmp_path, capsys):
        before = make_dump(tmp_path / "a.json", requests=3, latencies=(0.01, 0.02))
        after = make_dump(
            tmp_path / "b.json", requests=8, latencies=(0.01, 0.02, 0.04, 0.5)
        )
        assert telemetry_main(["diff", "--before", before, "--after", after]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["serving.requests_total"]["delta"] == 5
        assert payload["gauges"]["cache.hits"]["delta"] == 5.0
        latency = payload["histograms"]["serving.request_latency_seconds"]
        assert latency["count_delta"] == 2
        assert latency["sum_delta"] == pytest.approx(0.54)
        assert latency["mean_of_new"] == pytest.approx(0.27)
        assert sum(b["count_delta"] for b in latency["bucket_deltas"]) == 2

    def test_diff_handles_metrics_new_in_after(self, tmp_path, capsys):
        registry = MetricsRegistry(enabled=True)
        before = write_metrics(tmp_path / "a.json", registry.dump())
        registry.histogram("fresh").observe(0.1)
        registry.counter("new_counter").inc(2)
        after = write_metrics(tmp_path / "b.json", registry.dump())
        assert telemetry_main(["diff", "--before", before, "--after", after]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["new_counter"] == {"before": 0, "after": 2, "delta": 2}
        assert payload["histograms"]["fresh"]["count_delta"] == 1

    def test_diff_rejects_layout_change(self, tmp_path, capsys):
        a = MetricsRegistry(enabled=True)
        a.histogram("h", buckets=(1.0, 2.0), resolution=1.0).observe(1)
        before = write_metrics(tmp_path / "a.json", a.dump())
        b = MetricsRegistry(enabled=True)
        b.histogram("h", buckets=(1.0, 3.0), resolution=1.0).observe(1)
        after = write_metrics(tmp_path / "b.json", b.dump())
        assert telemetry_main(["diff", "--before", before, "--after", after]) == 2
        assert "cannot diff exactly" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    # Fitted on the same named dataset/seed the CLI invocations load, so the
    # deploy split's feature count matches the artifact.
    result = FairnessPipeline(
        "confair",
        dataset="syn1",
        size_factor=0.05,
        seed=9,
        intervention_params={"alpha_u": 1.0},
    ).run()
    return str(
        save_artifact(result, tmp_path_factory.mktemp("artifact") / "telemetry-cli-model")
    )


@pytest.fixture(autouse=True)
def clean_default_registry():
    """--metrics-out / --events-out enable the process-wide registry and
    event log; undo both per test."""
    yield
    telemetry.disable()
    telemetry.reset()
    telemetry.get_event_log().disable().reset()


class TestMetricsOutFlag:
    def test_serve_writes_dump_the_cli_can_summarize(self, tmp_path, capsys, artifact):
        metrics_path = tmp_path / "serve-metrics.json"
        code = serve_main(
            [
                "serve",
                "--artifact", artifact,
                "--dataset", "syn1",
                "--size-factor", "0.05",
                "--rows", "300",
                "--request-size", "100",
                "--metrics-out", str(metrics_path),
            ]
        )
        served = json.loads(capsys.readouterr().out)
        assert code == 0
        assert served["metrics_out"] == str(metrics_path)
        dump = json.loads(metrics_path.read_text())
        assert dump["state"]["counters"]["serving.records_total"] == 300
        assert dump["state"]["counters"]["serving.requests_total"] == 3

        assert telemetry_main(["summary", "--input", str(metrics_path)]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["counters"]["serving.records_total"] == 300

    def test_fleet_serve_dump_carries_shard_sections(self, tmp_path, capsys, artifact):
        metrics_path = tmp_path / "fleet-metrics.json"
        code = fleet_main(
            [
                "serve",
                "--artifact", artifact,
                "--dataset", "syn1",
                "--size-factor", "0.05",
                "--shards", "2",
                "--requests", "6",
                "--request-rows", "20",
                "--window", "400",
                "--no-density",
                "--metrics-out", str(metrics_path),
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["metrics_out"] == str(metrics_path)
        dump = json.loads(metrics_path.read_text())
        assert dump["telemetry_version"] == 1
        assert len(dump["shards"]) == 2
        for shard in dump["shards"]:
            quantiles = shard["export"]["histograms"][
                "serving.request_latency_seconds"
            ]["quantiles"]
            assert quantiles["p99"] is not None
        assert (
            dump["merged"]["state"]["counters"]["serving.records_total"] == 120
        )
        assert dump["frontend"]["state"]["counters"]["fleet.requests_total"] == 6

        # Section selection drills into one shard.
        assert telemetry_main(
            ["summary", "--input", str(metrics_path), "--section", "shard:0"]
        ) == 0
        shard_summary = json.loads(capsys.readouterr().out)["summary"]
        assert shard_summary["counters"]["serving.requests_total"] == 3


REPLAY = ["--steps", "6", "--stream-batch", "40", "--window", "300", "--no-density"]
FLEET = ["--shards", "2", "--window", "300", "--no-density"]


@pytest.mark.parametrize(
    "main, argv",
    [
        (serve_main, ["serve", "--rows", "200", "--request-size", "50"]),
        (simulate_main, ["run", *REPLAY]),
        (simulate_main, ["suite", "--suite", "traffic", *REPLAY]),
        (simulate_main, ["calibrate", *REPLAY]),
        (fleet_main, ["serve", "--requests", "4", "--request-rows", "20", *FLEET]),
        (fleet_main, ["replay", "--steps", "6", "--stream-batch", "40", *FLEET]),
    ],
    ids=[
        "serve-serve", "simulate-run", "simulate-suite", "simulate-calibrate",
        "fleet-serve", "fleet-replay",
    ],
)
def test_every_dump_writing_command_writes_readable_dumps(
    tmp_path, capsys, artifact, main, argv
):
    metrics_path = tmp_path / "metrics.json"
    events_path = tmp_path / "events.json"
    code = main(
        argv
        + [
            "--artifact", artifact,
            "--dataset", "syn1",
            "--size-factor", "0.05",
            "--metrics-out", str(metrics_path),
            "--events-out", str(events_path),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["metrics_out"] == str(metrics_path)
    assert payload["events_out"] == str(events_path)

    assert telemetry_main(["summary", "--input", str(metrics_path)]) == 0
    assert "summary" in json.loads(capsys.readouterr().out)
    assert telemetry_main(["tail", "--input", str(events_path)]) == 0
    assert json.loads(capsys.readouterr().out)["events_version"] == 1
