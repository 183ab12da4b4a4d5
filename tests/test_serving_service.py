"""Tests for the prediction service, the fairness monitor, and the CLI."""

import json
import time

import numpy as np
import pytest

from repro import FairnessPipeline
from repro.core import profile_partitions
from repro.datasets import load_dataset, make_drifted_groups, split_dataset
from repro.exceptions import ValidationError
from repro.fairness import evaluate_predictions, report_from_counts
from repro.fairness.streaming import StreamCounts
from repro.serving import FairnessMonitor, MonitorThresholds, PredictionService, save_artifact
from repro.serving.cli import main as cli_main
from repro.telemetry import EventLog, MetricsRegistry


@pytest.fixture(scope="module")
def serving_split():
    data = make_drifted_groups(
        n_majority=300,
        n_minority=140,
        n_features=4,
        drift_angle=75.0,
        class_sep=1.4,
        group_shift=2.5,
        name="serving-unit",
        random_state=9,
    )
    return split_dataset(data, random_state=9)


@pytest.fixture(scope="module")
def diffair_result(serving_split):
    return FairnessPipeline("diffair", learner="lr", dataset=serving_split, seed=3).run()


class TestStreamingCounts:
    def test_batching_invariance_and_subtraction(self, rng):
        y_pred = rng.integers(0, 2, size=200)
        group = rng.integers(0, 2, size=200)
        y_true = rng.integers(0, 2, size=200)
        whole = StreamCounts.from_batch(y_pred, group, y_true)
        first = StreamCounts.from_batch(y_pred[:70], group[:70], y_true[:70])
        rest = StreamCounts.from_batch(y_pred[70:], group[70:], y_true[70:])
        np.testing.assert_array_equal((first + rest).counts, whole.counts)
        np.testing.assert_array_equal((whole - first).counts, rest.counts)

    def test_report_matches_offline_exactly(self, rng):
        y_pred = rng.integers(0, 2, size=500)
        group = rng.integers(0, 2, size=500)
        y_true = rng.integers(0, 2, size=500)
        totals = StreamCounts()
        for start in range(0, 500, 37):  # deliberately ragged batches
            block = slice(start, min(start + 37, 500))
            totals += StreamCounts.from_batch(y_pred[block], group[block], y_true[block])
        assert report_from_counts(totals) == evaluate_predictions(y_true, y_pred, group)

    def test_non_binary_values_rejected(self):
        # Silently dropping a group==2 row would compute every metric over
        # fewer rows than the caller passed.
        with pytest.raises(ValidationError, match="binary"):
            StreamCounts.from_batch([1, 0], [0, 2])
        with pytest.raises(ValidationError, match="binary"):
            StreamCounts.from_batch([1, 3], [0, 1])
        with pytest.raises(ValidationError, match="binary"):
            StreamCounts.from_batch([1, 0], [0, 1], [1, -1])

    def test_report_requires_full_labels(self, rng):
        totals = StreamCounts.from_batch([1, 0], [0, 1], [1, 0])
        totals += StreamCounts.from_batch([1, 0], [0, 1])  # unlabelled traffic
        with pytest.raises(ValidationError, match="labels"):
            report_from_counts(totals)
        assert (totals.n_samples, totals.n_labelled) == (4, 2)


class TestPredictionService:
    def test_batched_equals_unbatched(self, serving_split, diffair_result):
        deploy = serving_split.deploy
        expected = diffair_result.model.predict(deploy.X)
        for batch_size in (7, 16):
            service = PredictionService(diffair_result, batch_size=batch_size)
            np.testing.assert_array_equal(service.predict(deploy.X), expected)

    def test_group_capability_enforced(self, serving_split):
        deploy = serving_split.deploy
        routed = FairnessPipeline(
            "multimodel", learner="lr", dataset=serving_split, seed=3
        ).run()
        service = PredictionService(routed)
        assert service.requires_group
        with pytest.raises(ValidationError, match="requires_group_at_predict"):
            service.predict(deploy.X)
        predictions = service.predict(deploy.X, deploy.group)
        assert predictions.shape == deploy.y.shape

    def test_group_blind_serving_for_diffair(self, serving_split, diffair_result):
        service = PredictionService(diffair_result)
        assert not service.requires_group
        predictions = service.predict(serving_split.deploy.X)  # no group anywhere
        assert set(np.unique(predictions)) <= {0, 1}

    def test_stats_accumulate(self, serving_split, diffair_result):
        service = PredictionService(diffair_result, batch_size=32)
        service.predict(serving_split.deploy.X)
        service.predict(serving_split.deploy.X[:10])
        assert service.stats.n_requests == 2
        assert service.stats.n_records == serving_split.deploy.n_samples + 10
        assert service.stats.records_per_second > 0

    def test_latency_is_end_to_end(self, serving_split, diffair_result):
        class SlowDensity:
            """A fitted-looking density estimator whose scoring sleeps."""

            training_data_ = np.zeros((1, 4))
            n_features_ = 4

            def score_samples(self, X):
                time.sleep(0.05)
                return np.zeros(np.asarray(X).shape[0])

        registry = MetricsRegistry(enabled=True)
        monitor = FairnessMonitor(window_size=100, density_estimator=SlowDensity())
        service = PredictionService(diffair_result, monitor=monitor, telemetry=registry)
        deploy = serving_split.deploy
        service.predict(deploy.X[:3], deploy.group[:3])
        service.predict(deploy.X[3:4])
        # The monitor feed (two 50 ms density scorings) is inside both clocks.
        assert service.stats.total_seconds >= 0.1
        latency = registry.histogram("serving.request_latency_seconds")
        assert latency.count == 2
        assert latency.min >= 0.05 and latency.sum >= 0.1


    def test_predict_and_score_leaves_the_chunk_uncommitted(self, serving_split, diffair_result):
        """A fleet shard's path: the chunk comes back, the window stays empty,
        and the stats and the request event are recorded as for predict."""
        deploy = serving_split.deploy
        profile = profile_partitions(serving_split.train)
        monitor = FairnessMonitor(window_size=100, profile=profile)
        events = EventLog(enabled=True)
        service = PredictionService(diffair_result, monitor=monitor, events=events)
        predictions, chunk = service.predict_and_score(
            deploy.X[:9], deploy.group[:9], y_true=deploy.y[:9], sequence=7
        )
        assert monitor.n_seen == 0 and monitor.n_window == 0
        assert service.stats.n_requests == 1 and service.stats.n_records == 9
        assert [(r["sequence"], r["attributes"]["rows"]) for r in events.records()] == [(7, 9)]

        monitor.commit(chunk, sequence=7)
        direct = FairnessMonitor(window_size=100, profile=profile)
        direct.update(predictions, deploy.group[:9], y_true=deploy.y[:9], X=deploy.X[:9], sequence=7)
        for key, value in direct.state_dict().items():
            np.testing.assert_array_equal(monitor.state_dict()[key], value, err_msg=key)

        monitorless = PredictionService(diffair_result)
        assert monitorless.predict_and_score(deploy.X[:3])[1] is None


class TestFairnessMonitor:
    def test_windowed_report_matches_offline(self, serving_split, diffair_result):
        deploy = serving_split.deploy
        monitor = FairnessMonitor(window_size=10 * deploy.n_samples)
        service = PredictionService(diffair_result, batch_size=8, monitor=monitor)
        for start in range(0, deploy.n_samples, 23):
            block = slice(start, min(start + 23, deploy.n_samples))
            service.predict(deploy.X[block], deploy.group[block], y_true=deploy.y[block])
        offline = evaluate_predictions(
            deploy.y, diffair_result.model.predict(deploy.X), deploy.group
        )
        windowed = monitor.windowed_report()
        assert abs(windowed.di_star - offline.di_star) < 1e-9
        assert windowed == offline

    def test_window_eviction_keeps_recent_chunks(self, rng):
        monitor = FairnessMonitor(window_size=100)
        for _ in range(10):
            monitor.update(rng.integers(0, 2, 50), rng.integers(0, 2, 50))
        assert monitor.n_seen == 500
        assert monitor.n_window == 100  # two most recent 50-row chunks

    def test_drift_alarm_fires_on_shifted_traffic(self, serving_split):
        train = serving_split.train
        profile = profile_partitions(train)
        deploy = serving_split.deploy
        monitor = FairnessMonitor(
            # One deploy-sized chunk per window: the shifted batch evicts the
            # in-distribution one, so the alarm reflects current traffic.
            window_size=deploy.n_samples,
            profile=profile,
            n_numeric_features=train.n_numeric_features,
            thresholds=MonitorThresholds(min_samples=20),
        )
        monitor.set_baselines(violation=train.X)

        predictions = np.zeros(deploy.n_samples, dtype=np.int64)
        monitor.update(predictions, deploy.group, X=deploy.X)
        assert not monitor.drift_status().alarm  # in-distribution traffic

        shifted = deploy.X + 25.0  # far outside every profiled partition
        monitor.update(predictions, deploy.group, X=shifted)
        status = monitor.drift_status()
        assert status.alarm
        assert status.mean_violation > status.baseline_violation
        assert monitor.windowed_summary()["drift"]["alarm"]

    def test_group_blind_traffic_still_feeds_drift_alarm(self, serving_split, diffair_result):
        """Requests without any group array (the paper's deployment premise)
        must still count toward the window and trigger the drift alarm."""
        train = serving_split.train
        deploy = serving_split.deploy
        monitor = FairnessMonitor(
            window_size=deploy.n_samples,
            profile=diffair_result.intervention.profile_,
            n_numeric_features=train.n_numeric_features,
            thresholds=MonitorThresholds(min_samples=20),
        )
        monitor.set_baselines(violation=train.X)
        service = PredictionService(diffair_result, monitor=monitor)

        service.predict(deploy.X)  # no group anywhere
        assert monitor.n_seen == deploy.n_samples
        assert not monitor.drift_status().alarm

        service.predict(deploy.X + 25.0)
        assert monitor.drift_status().alarm
        summary = monitor.windowed_summary()
        assert summary["drift"]["alarm"]
        assert "di_star" not in summary  # no group info -> no fairness counts

    def test_density_drift_alarm_fires_on_low_density_traffic(self, serving_split):
        """The batch density channel flags traffic sliding into low-density
        regions of the training distribution."""
        from repro.density import KernelDensity

        train = serving_split.train
        deploy = serving_split.deploy
        estimator = KernelDensity(kernel="gaussian", bandwidth="scott").fit(
            train.numeric_X
        )
        monitor = FairnessMonitor(
            window_size=deploy.n_samples,
            density_estimator=estimator,
            n_numeric_features=train.n_numeric_features,
            thresholds=MonitorThresholds(min_samples=20, density_drop=2.0),
        )
        baseline = monitor.set_baselines(log_density=train.X).log_density
        predictions = np.zeros(deploy.n_samples, dtype=np.int64)

        monitor.update(predictions, deploy.group, X=deploy.X)
        status = monitor.density_status()
        assert status.n_scored == deploy.n_samples
        assert status.baseline_log_density == baseline
        assert not status.alarm  # in-distribution traffic

        monitor.update(predictions, deploy.group, X=deploy.X + 25.0)
        status = monitor.density_status()
        assert status.alarm
        assert status.drop > 2.0
        summary = monitor.windowed_summary()
        assert summary["density"]["alarm"]
        assert summary["density"]["mean_log_density"] < baseline

    def test_density_scores_match_batch_engine_exactly(self, serving_split):
        from repro.density import KernelDensity

        train = serving_split.train
        estimator = KernelDensity(kernel="gaussian", bandwidth=1.0).fit(train.numeric_X)
        monitor = FairnessMonitor(
            density_estimator=estimator, n_numeric_features=train.n_numeric_features
        )
        scores = monitor.log_density_scores(train.X)
        direct = estimator.score_samples(train.numeric_X)
        np.testing.assert_array_equal(scores, np.maximum(direct, -700.0))

    def test_bad_rows_rejected_at_the_monitor_boundary(self):
        data = load_dataset("meps", size_factor=0.02, random_state=7)
        profile = profile_partitions(data)
        monitor = FairnessMonitor(window_size=100, profile=profile)
        assert profile.n_features == data.n_numeric_features == 6
        y_pred = np.zeros(5, dtype=np.int64)
        narrow = data.X[:5, :4]  # fewer columns than the profile scores
        with_nan = data.X[:5].copy()
        with_nan[2, 1] = np.nan  # inside a scored numeric column
        for X in (narrow, with_nan):
            with pytest.raises(ValidationError):
                monitor.violation_scores(X)
            with pytest.raises(ValidationError):
                monitor.update(y_pred, data.group[:5], X=X)
            assert monitor.n_seen == 0
        monitor.update(y_pred, data.group[:5], X=data.X[:5])
        assert monitor.n_seen == 5

    def test_density_estimator_must_be_fitted(self):
        from repro.density import KernelDensity

        with pytest.raises(ValidationError):
            FairnessMonitor(density_estimator=KernelDensity())

    def test_density_scoring_without_estimator_rejected(self):
        with pytest.raises(ValidationError):
            FairnessMonitor().log_density_scores(np.zeros((3, 2)))

    def test_acceptance_10k_group_blind_with_exact_windowed_di(
        self, tmp_path, serving_split, diffair_result
    ):
        """ISSUE acceptance: 10k rows through a loaded DiffFair artifact,
        served group-blind, with windowed DI* within 1e-9 of offline."""
        path = save_artifact(diffair_result, tmp_path / "diffair")
        monitor = FairnessMonitor(window_size=20_000)
        service = PredictionService.from_artifact(
            path, batch_size=512, monitor=monitor
        )
        deploy = serving_split.deploy
        index = np.tile(np.arange(deploy.n_samples), 10_000 // deploy.n_samples + 1)[:10_000]
        X, y_true, group = deploy.X[index], deploy.y[index], deploy.group[index]

        predictions = service.predict(X, group, y_true=y_true)  # group = audit only
        assert predictions.shape == (10_000,)
        assert not service.requires_group

        offline = evaluate_predictions(y_true, predictions, group)
        assert abs(monitor.windowed_report().di_star - offline.di_star) < 1e-9


class TestServingCli:
    def test_fit_score_serve_cycle(self, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        assert (
            cli_main(
                [
                    "fit",
                    "--dataset",
                    "lsac",
                    "--intervention",
                    "diffair",
                    "--learner",
                    "lr",
                    "--seed",
                    "7",
                    "--size-factor",
                    "0.02",
                    "--out",
                    str(artifact),
                ]
            )
            == 0
        )
        fit_payload = json.loads(capsys.readouterr().out)
        assert fit_payload["method"] == "diffair"
        assert 0.0 <= fit_payload["report"]["di_star"] <= 1.0

        lean = tmp_path / "lean"
        assert cli_main(["save", "--source", str(artifact), "--out", str(lean)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "deployed_model"

        args = ["--dataset", "lsac", "--seed", "7", "--size-factor", "0.02"]
        assert cli_main(["score", "--artifact", str(lean), *args]) == 0
        score_payload = json.loads(capsys.readouterr().out)
        assert score_payload["report"] == fit_payload["report"]

        assert (
            cli_main(
                ["serve", "--artifact", str(artifact), *args, "--rows", "500", "--request-size", "100"]
            )
            == 0
        )
        serve_payload = json.loads(capsys.readouterr().out)
        assert serve_payload["n_records"] == 500
        assert serve_payload["records_per_second"] > 0
        assert not serve_payload["requires_group_at_predict"]
        assert "di_star" in serve_payload["windowed"]
        assert serve_payload["windowed"]["drift"]["n_scored"] == 500

    def test_score_group_blind_rejected_by_routed_model(self, tmp_path, capsys, serving_split):
        routed = FairnessPipeline(
            "multimodel", learner="lr", dataset=serving_split, seed=3
        ).run()
        artifact = save_artifact(routed, tmp_path / "routed")
        code = cli_main(
            [
                "score",
                "--artifact",
                str(artifact),
                "--dataset",
                "lsac",
                "--size-factor",
                "0.02",
                "--group-blind",
            ]
        )
        assert code == 2
        assert "requires_group_at_predict" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_serve_rejects_non_positive_request_size(self, tmp_path, capsys, size):
        code = cli_main(
            ["serve", "--artifact", str(tmp_path / "unused"), "--request-size", size]
        )
        assert code == 2
        assert "error: --request-size must be >= 1" in capsys.readouterr().err

    def test_unknown_dataset_exits_with_error(self, tmp_path, capsys):
        code = cli_main(
            ["fit", "--dataset", "nope", "--out", str(tmp_path / "a")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
