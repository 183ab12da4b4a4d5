"""Tests for artifact save/load: round-trip fidelity and failure modes."""

import json

import numpy as np
import pytest

from repro import FairnessPipeline, available_interventions
from repro.datasets import make_drifted_groups, split_dataset
from repro.datasets.preprocessing import PreprocessingPipeline, RawTable
from repro.density import KernelDensity
from repro.exceptions import ArtifactError
from repro.interventions import DeployedModel, PipelineResult
from repro.learners import make_learner
from repro.learners.registry import available_learners
from repro.serving.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    MANIFEST_NAME,
    PAYLOAD_NAME,
    describe_artifact,
    load_artifact,
    read_manifest,
    save_artifact,
)

FAST_KWARGS = {
    "confair": {"tuning_grid": (0.0, 1.0)},
    "confair0": {"tuning_grid": (0.0, 1.0)},
    "omn": {"lam_grid": (0.0, 0.5)},
}


@pytest.fixture(scope="module")
def serving_split():
    data = make_drifted_groups(
        n_majority=260,
        n_minority=120,
        n_features=4,
        drift_angle=75.0,
        class_sep=1.4,
        group_shift=2.5,
        name="serving-unit",
        random_state=5,
    )
    return split_dataset(data, random_state=5)


def _run(serving_split, intervention, learner) -> PipelineResult:
    return FairnessPipeline(
        intervention,
        learner=learner,
        dataset=serving_split,
        seed=3,
        intervention_params=FAST_KWARGS.get(intervention),
    ).run()


class TestRoundTripSweep:
    """``load(save(model)).predict(X)`` is bit-identical for every method × learner."""

    @pytest.mark.parametrize("intervention", available_interventions())
    @pytest.mark.parametrize("learner", available_learners())
    def test_pipeline_result_round_trip(self, tmp_path, serving_split, intervention, learner):
        result = _run(serving_split, intervention, learner)
        loaded = load_artifact(save_artifact(result, tmp_path / "artifact"))

        assert isinstance(loaded, PipelineResult)
        assert loaded.method == result.method
        assert loaded.report == result.report
        np.testing.assert_array_equal(loaded.predictions, result.predictions)

        deploy = serving_split.deploy
        expected = result.model.predict(deploy.X, group=deploy.group)
        actual = loaded.model.predict(deploy.X, group=deploy.group)
        np.testing.assert_array_equal(actual, expected)

        # The fitted intervention also survives on its own and can rebuild a
        # serving model with the same predictions.
        fitted = load_artifact(save_artifact(result.intervention, tmp_path / "intervention"))
        rebuilt = fitted.make_model(serving_split, learner=learner, seed=3)
        np.testing.assert_array_equal(
            rebuilt.predict(deploy.X, group=deploy.group), expected
        )


class TestSharedReferences:
    def test_shared_predictor_stored_once_and_identity_restored(self, tmp_path, serving_split):
        result = _run(serving_split, "diffair", "lr")
        assert result.model.predictor is result.intervention
        path = save_artifact(result, tmp_path / "a")
        manifest_text = (path / MANIFEST_NAME).read_text(encoding="utf-8")
        assert manifest_text.count("core.diffair.DiffFair") == 1  # deduplicated
        loaded = load_artifact(path)
        assert loaded.model.predictor is loaded.intervention


class TestLearnerRoundTrip:
    @pytest.mark.parametrize("learner", available_learners())
    def test_probabilities_bit_identical(self, tmp_path, linear_data, learner):
        X, y = linear_data
        model = make_learner(learner, random_state=0).fit(X, y)
        loaded = load_artifact(save_artifact(model, tmp_path / learner))
        np.testing.assert_array_equal(loaded.predict_proba(X), model.predict_proba(X))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))


class TestPreprocessingRoundTrip:
    def test_transform_features_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        table = RawTable(
            numeric=rng.normal(size=(60, 2)),
            categorical=np.array(
                [["a", "b", "c"][i % 3] for i in range(60)], dtype=object
            ).reshape(-1, 1),
            y=rng.integers(0, 2, size=60),
            group=rng.integers(0, 2, size=60),
            name="raw-unit",
        )
        pipeline = PreprocessingPipeline()
        pipeline.fit_transform(table)
        loaded = load_artifact(save_artifact(pipeline, tmp_path / "prep"))

        fresh_numeric = rng.normal(size=(9, 2))
        fresh_numeric[0, 0] = np.nan  # imputed from fit-time medians
        fresh_categorical = np.array(
            [["a"], ["b"], ["zz"], ["c"], [None], ["a"], ["b"], ["c"], ["a"]], dtype=object
        )
        np.testing.assert_array_equal(
            loaded.transform_features(fresh_numeric, fresh_categorical),
            pipeline.transform_features(fresh_numeric, fresh_categorical),
        )
        assert loaded.feature_names_ == pipeline.feature_names_


class TestManifest:
    def test_describe_and_metadata(self, tmp_path, serving_split):
        result = _run(serving_split, "none", "lr")
        path = save_artifact(result, tmp_path / "a", metadata={"note": "unit", "seed": 3})
        info = describe_artifact(path)
        assert info["kind"] == "pipeline_result"
        assert info["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert info["metadata"] == {"note": "unit", "seed": 3}
        assert info["n_arrays"] >= 1

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            load_artifact(tmp_path / "nowhere")

    def test_corrupted_manifest_raises(self, tmp_path, serving_split):
        path = save_artifact(_run(serving_split, "none", "lr"), tmp_path / "a")
        (path / MANIFEST_NAME).write_text("{ not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="[Cc]orrupted"):
            load_artifact(path)

    def test_version_mismatch_raises(self, tmp_path, serving_split):
        path = save_artifact(_run(serving_split, "none", "lr"), tmp_path / "a")
        manifest = read_manifest(path)
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(path)

    def test_unknown_estimator_class_raises(self, tmp_path, linear_data):
        X, y = linear_data
        path = save_artifact(make_learner("lr").fit(X, y), tmp_path / "a")
        manifest = read_manifest(path)
        # The second name is a wrapper class that 6.0.0 artifacts reference.
        for name in (
            "exotic.learners.QuantumForest",
            "repro.interventions.wrappers.ConFairIntervention",
        ):
            manifest["root"]["value"]["class"] = name
            (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
            with pytest.raises(ArtifactError, match=name):
                load_artifact(path)

    def test_missing_payload_raises(self, tmp_path, linear_data):
        X, y = linear_data
        path = save_artifact(make_learner("lr").fit(X, y), tmp_path / "a")
        (path / PAYLOAD_NAME).unlink()
        with pytest.raises(ArtifactError, match="payload"):
            load_artifact(path)

    def test_tampered_payload_raises(self, tmp_path, linear_data):
        X, y = linear_data
        path = save_artifact(make_learner("lr").fit(X, y), tmp_path / "a")
        payload = bytearray((path / PAYLOAD_NAME).read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (path / PAYLOAD_NAME).write_bytes(bytes(payload))
        with pytest.raises(ArtifactError, match="checksum|read"):
            load_artifact(path)

    def test_closure_only_deployed_model_rejected(self, tmp_path):
        model = DeployedModel(lambda X: np.zeros(len(X)), name="opaque")
        with pytest.raises(ArtifactError, match="predictor"):
            save_artifact(model, tmp_path / "a")

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="serialize"):
            save_artifact(object(), tmp_path / "a")


class TestKernelDensityRoundTrip:
    """A fitted KDE round-trips bit-identically."""

    @pytest.mark.parametrize("kernel", ["gaussian"])
    def test_score_samples_bit_identical(self, tmp_path, kernel):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 2))
        queries = rng.normal(size=(40, 2))
        kde = KernelDensity(kernel=kernel, bandwidth=0.5).fit(X)
        loaded = load_artifact(save_artifact(kde, tmp_path / "kde"))
        assert isinstance(loaded, KernelDensity)
        np.testing.assert_array_equal(
            loaded.score_samples(queries), kde.score_samples(queries)
        )
        np.testing.assert_array_equal(loaded.density_rank(queries), kde.density_rank(queries))

    def test_gaussian_scott_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(120, 3))
        kde = KernelDensity(kernel="gaussian", bandwidth="scott").fit(X)
        loaded = load_artifact(save_artifact(kde, tmp_path / "kde"))
        assert loaded.bandwidth_ == kde.bandwidth_
        np.testing.assert_array_equal(loaded.score_samples(X), kde.score_samples(X))

    def test_removed_algorithm_param_fails_to_load(self, tmp_path):
        """KDE artifacts that still carry the ``algorithm`` param (removed in
        3.0.0) are refused, not silently migrated."""
        rng = np.random.default_rng(13)
        kde = KernelDensity(bandwidth=0.5).fit(rng.normal(size=(200, 2)))
        path = save_artifact(kde, tmp_path / "kde")
        manifest = read_manifest(path)
        manifest["root"]["value"]["params"]["items"].append(["algorithm", "auto"])
        (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError, match="algorithm"):
            load_artifact(path)

    @pytest.mark.parametrize("kernel", ["tophat", "epanechnikov"])
    def test_removed_kernel_fails_to_load(self, tmp_path, kernel):
        """KDE artifacts saved with a compact kernel (removed in 9.0.0) are
        refused, not scored as a Gaussian."""
        rng = np.random.default_rng(13)
        kde = KernelDensity(bandwidth=0.5).fit(rng.normal(size=(200, 2)))
        path = save_artifact(kde, tmp_path / "kde")
        manifest = read_manifest(path)
        items = manifest["root"]["value"]["params"]["items"]
        assert ["kernel", "gaussian"] in items
        items[items.index(["kernel", "gaussian"])] = ["kernel", kernel]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError, match="kernel"):
            load_artifact(path)


class TestMmapLoading:
    """``load_artifact(mmap_mode="r")``: shared read-only payload views."""

    @pytest.mark.parametrize("intervention", ["confair", "kam"])
    def test_mmap_predictions_bit_identical(self, tmp_path, serving_split, intervention):
        result = _run(serving_split, intervention, "lr")
        path = save_artifact(result, tmp_path / "artifact")
        materialized = load_artifact(path)
        mapped = load_artifact(path, mmap_mode="r")
        X = serving_split.deploy.X
        np.testing.assert_array_equal(
            materialized.model.predict(X), mapped.model.predict(X)
        )

    def test_extraction_cache_reused_and_retagged(self, tmp_path, linear_data):
        X, y = linear_data
        model = make_learner("lr", random_state=0).fit(X, y)
        path = save_artifact(model, tmp_path / "artifact")
        load_artifact(path, mmap_mode="r")
        cache = path / "payload.mmap"
        assert cache.is_dir() and (cache / "payload.sha256").exists()
        stamp = (cache / "payload.sha256").read_text()
        loaded = load_artifact(path, mmap_mode="r")  # second load reuses the cache
        assert (cache / "payload.sha256").read_text() == stamp
        np.testing.assert_array_equal(model.predict(X), loaded.predict(X))

    def test_mmap_still_verifies_the_checksum(self, tmp_path, linear_data):
        X, y = linear_data
        model = make_learner("lr", random_state=0).fit(X, y)
        path = save_artifact(model, tmp_path / "artifact")
        payload = path / PAYLOAD_NAME
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="checksum|read"):
            load_artifact(path, mmap_mode="r")

    def test_unsupported_mmap_mode_rejected(self, tmp_path, linear_data):
        X, y = linear_data
        model = make_learner("lr", random_state=0).fit(X, y)
        path = save_artifact(model, tmp_path / "artifact")
        with pytest.raises(ArtifactError, match="mmap_mode"):
            load_artifact(path, mmap_mode="r+")

    def test_mmap_arrays_are_read_only_views(self, tmp_path, linear_data):
        X, y = linear_data
        model = make_learner("lr", random_state=0).fit(X, y)
        path = save_artifact(model, tmp_path / "artifact")
        loaded = load_artifact(path, mmap_mode="r")
        arrays = [
            value
            for value in vars(loaded).values()
            if isinstance(value, np.ndarray) and isinstance(value, np.memmap)
        ]
        assert arrays, "an mmap load must hand back memory-mapped weight arrays"
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0.0
