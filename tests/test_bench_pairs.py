"""Unit tests for the perfbench pair runner's summary (benchmarks/bench_pairs.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DIRECTIONS = {"records_per_s": "higher", "latency_p50_ms": "lower"}


def _run(
    side, seed, trace=0, workload="serve", run_set="main", correct=True, failed=0, **metrics
):
    return {
        "set": run_set,
        "workload": workload,
        "side": side,
        "seed": seed,
        "trace": trace,
        "probe_slowdown": 1.0,
        "probes": 10,
        "result": {
            "correct": correct,
            "attempted": 100,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        },
    }


def _pairs(parent_values, change_values, metric="records_per_s"):
    runs = []
    for seed, (parent, change) in enumerate(zip(parent_values, change_values)):
        runs.append(_run("parent", seed, **{metric: parent}))
        runs.append(_run("change", seed, **{metric: change}))
    return runs


def _only_row(runs):
    rows = bench_pairs.summarize(runs, DIRECTIONS)
    assert len(rows) == 1
    return rows[0]


class TestSummarize:
    def test_medians_and_quartiles_per_side(self):
        row = _only_row(_pairs([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]))
        assert row["parent"] == {"q1": 2, "median": 3, "q3": 4}
        assert row["change"] == {"q1": 20, "median": 30, "q3": 40}
        assert row["pairs"] == 5

    def test_clear_gain_over_ten_pairs(self):
        parent = [100 + k for k in range(10)]
        change = [200 + k for k in range(10)]
        row = _only_row(_pairs(parent, change))
        assert row["wins"] == 10
        assert row["gain"] is True

    def test_nine_of_ten_wins_is_enough(self):
        parent = [100 + k for k in range(10)]
        change = [200 + k for k in range(9)] + [50]
        row = _only_row(_pairs(parent, change))
        assert row["wins"] == 9
        assert row["gain"] is True

    def test_eight_of_ten_wins_is_not(self):
        parent = [100 + k for k in range(10)]
        change = [200 + k for k in range(8)] + [50, 50]
        row = _only_row(_pairs(parent, change))
        assert row["wins"] == 8
        assert row["gain"] is False

    def test_ties_count_for_neither_side(self):
        row = _only_row(_pairs([5.0] * 10, [5.0] * 10))
        assert row["wins"] == 0
        assert row["gain"] is False

    def test_median_gap_must_exceed_parent_iqr(self):
        # The change wins every pair, but by less than the parent's spread.
        parent = [100.0, 200.0] * 5
        change = [101.0, 201.0] * 5
        row = _only_row(_pairs(parent, change))
        assert row["wins"] == 10
        assert row["gain"] is False

    def test_fewer_than_ten_pairs_never_gain(self):
        row = _only_row(_pairs([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]))
        assert row["wins"] == 5
        assert row["gain"] is False

    def test_lower_is_better_counts_lower_change_as_win(self):
        parent = [10.0 + k for k in range(10)]
        change = [1.0 + k / 10 for k in range(10)]
        row = _only_row(_pairs(parent, change, metric="latency_p50_ms"))
        assert row["better"] == "lower"
        assert row["wins"] == 10
        assert row["gain"] is True

    def test_unknown_metric_gets_statistics_only(self):
        row = _only_row(_pairs([1, 2], [3, 4], metric="not_in_benchmark"))
        assert row["wins"] is None and row["gain"] is None
        assert row["change"]["median"] == 3.5

    def test_unpaired_runs_are_dropped(self):
        runs = _pairs([1, 2], [3, 4]) + [_run("parent", 99, records_per_s=1000.0)]
        assert _only_row(runs)["pairs"] == 2

    def test_second_run_of_a_side_under_one_key_raises(self):
        runs = _pairs([1, 2], [3, 4]) + [_run("change", 1, records_per_s=5.0)]
        with pytest.raises(ValueError, match="two change runs of serve trace 0 at seed 1"):
            bench_pairs.summarize(runs, DIRECTIONS)

    def test_same_seed_in_another_set_is_a_separate_pair(self):
        runs = _pairs([1, 2], [3, 4])
        runs += [
            _run("parent", 0, run_set="rerun", records_per_s=1.5),
            _run("change", 0, run_set="rerun", records_per_s=3.5),
        ]
        assert _only_row(runs)["pairs"] == 3

    def test_incorrect_change_run_denies_gain(self):
        runs = _pairs([100 + k for k in range(10)], [200 + k for k in range(10)])
        runs[-1]["result"]["correct"] = False
        row = _only_row(runs)
        assert row["wins"] == 10
        assert row["worse_failures"] == 1
        assert row["gain"] is False

    def test_change_failing_a_larger_share_denies_gain(self):
        runs = _pairs([100 + k for k in range(10)], [200 + k for k in range(10)])
        runs[0]["result"]["failed"] = 1
        runs[1]["result"]["failed"] = 1
        assert _only_row(runs)["gain"] is True
        runs[1]["result"]["failed"] = 2
        row = _only_row(runs)
        assert row["worse_failures"] == 1
        assert row["gain"] is False

    def test_traced_runs_and_workloads_summarize_apart(self):
        runs = _pairs([1, 2], [3, 4])
        runs += [
            _run("parent", 0, trace=1, records_per_s=7.0),
            _run("change", 0, trace=1, records_per_s=9.0),
            _run("parent", 0, workload="fit", records_per_s=1.0),
            _run("change", 0, workload="fit", records_per_s=2.0),
        ]
        rows = bench_pairs.summarize(runs, DIRECTIONS)
        keys = sorted((row["workload"], row["trace"], row["pairs"]) for row in rows)
        assert keys == [("fit", 0, 1), ("serve", 0, 2), ("serve", 1, 1)]


class TestMain:
    def test_refuses_a_seed_out_already_holds_before_running(self, tmp_path):
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"runs": _pairs([1, 2], [3, 4])}), encoding="utf-8")
        before = out.read_text(encoding="utf-8")
        argv = ["--parent", str(tmp_path / "missing-parent"), "--change", str(tmp_path)]
        argv += ["--workload", "serve", "--pairs", "3", "--seed-base", "-1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(argv)
        assert exc.value.code == 2
        assert out.read_text(encoding="utf-8") == before


class TestParseRun:
    def test_reads_result_line_and_probe(self):
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
        stdout = "\n".join(
            [
                "perfbench serve: seed 1, 30 s, trace 0",
                "  machine slowdown against the reference speed: 1.284 (median of 4100 "
                "probes), applied at elasticity 1",
                json.dumps(result),
            ]
        )
        parsed = bench_pairs.parse_run(stdout)
        assert parsed == {"probe_slowdown": 1.284, "probes": 4100, "result": result}

    def test_traced_run_has_no_probe(self):
        parsed = bench_pairs.parse_run('traced\n{"correct": true}')
        assert parsed["probe_slowdown"] is None and parsed["probes"] is None

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_run("")


def test_metric_directions_read_both_sections():
    payload = {
        "end_to_end": [{"name": "records_per_s", "better": "higher"}],
        "per_layer": [{"name": "density.score_ms", "better": "lower"}],
    }
    assert bench_pairs.metric_directions(payload) == {
        "records_per_s": "higher",
        "density.score_ms": "lower",
    }
