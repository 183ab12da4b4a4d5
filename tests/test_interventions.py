"""Tests for the intervention protocol, registry, and FairnessPipeline facade."""

import numpy as np
import pytest

from repro.baselines import (
    CapuchinRepair,
    KamiranReweighing,
    MultiModel,
    NoIntervention,
    OmniFairReweighing,
)
from repro.core import ConFair, DiffFair
from repro.exceptions import ExperimentError, NotFittedError, ValidationError
from repro.interventions import (
    ConFairIntervention,
    DeployedModel,
    FairnessPipeline,
    Intervention,
    available_interventions,
    describe_interventions,
    get_intervention_spec,
    intervention_accepts,
    make_intervention,
    register_intervention,
)
from repro.interventions.registry import _REGISTRY
from repro.learners import make_learner

CANONICAL_METHODS = (
    "none",
    "multimodel",
    "diffair",
    "diffair0",
    "confair",
    "confair0",
    "kam",
    "omn",
    "cap",
)

FAST_KWARGS = {
    "confair": {"tuning_grid": (0.0, 1.0)},
    "confair0": {"tuning_grid": (0.0, 1.0)},
    "omn": {"lam_grid": (0.0, 0.5)},
}


class TestRegistry:
    def test_canonical_names_in_paper_order(self):
        assert tuple(available_interventions()) == CANONICAL_METHODS

    def test_unknown_name_lists_available(self):
        with pytest.raises(ExperimentError) as excinfo:
            make_intervention("magic")
        message = str(excinfo.value)
        assert "magic" in message
        for name in CANONICAL_METHODS:
            assert name in message

    def test_name_resolution_is_case_insensitive(self):
        assert type(make_intervention("CONFAIR")) is ConFairIntervention

    def test_unknown_kwarg_rejected_with_accepted_list(self):
        with pytest.raises(ExperimentError) as excinfo:
            make_intervention("diffair", tuning_grid=(0.0, 1.0))
        message = str(excinfo.value)
        assert "tuning_grid" in message
        assert "learner" in message  # the accepted parameters are listed

    @pytest.mark.parametrize(
        "name,param,accepted",
        [
            ("confair", "tuning_grid", True),
            ("confair", "lam_grid", False),
            ("omn", "lam_grid", True),
            ("omn", "tuning_grid", False),
            ("kam", "tuning_grid", False),
            ("none", "fairness_target", False),
        ],
    )
    def test_intervention_accepts(self, name, param, accepted):
        assert intervention_accepts(name, param) is accepted

    def test_variant_presets_applied_but_overridable(self):
        ablation = make_intervention("confair0")
        assert ablation.use_density_filter is False
        overridden = make_intervention("confair0", use_density_filter=True)
        assert overridden.use_density_filter is True

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):
            register_intervention("confair")(ConFairIntervention)

    def test_non_intervention_class_rejected(self):
        class NotAnIntervention:
            pass

        with pytest.raises(ExperimentError):
            register_intervention("bogus")(NotAnIntervention)
        assert "bogus" not in available_interventions()

    def test_custom_intervention_plugs_in(self):
        try:

            @register_intervention("always-one", summary="predicts 1 everywhere")
            class AlwaysOne(Intervention):
                def __init__(self, learner="lr", random_state=0):
                    self.learner = learner
                    self.random_state = random_state

                def fit(self, train, validation=None):
                    self.train_ = train
                    return self

                def make_model(self, split, *, learner=None, seed=None):
                    return DeployedModel(
                        lambda X: np.ones(np.asarray(X).shape[0], dtype=np.int64),
                        name="AlwaysOne",
                    )

            built = make_intervention("always-one")
            assert isinstance(built, AlwaysOne)
            assert describe_interventions()["always-one"] == "predicts 1 everywhere"
        finally:
            _REGISTRY.pop("always-one", None)

    def test_summaries_exist_for_all_methods(self):
        summaries = describe_interventions()
        assert all(summaries[name] for name in CANONICAL_METHODS)


class TestProtocol:
    @pytest.mark.parametrize("name", CANONICAL_METHODS)
    def test_get_set_clone_round_trip(self, name):
        intervention = make_intervention(name)
        params = intervention.get_params()
        assert "learner" in params and "random_state" in params
        intervention.set_params(random_state=99)
        assert intervention.get_params()["random_state"] == 99
        duplicate = intervention.clone()
        assert type(duplicate) is type(intervention)
        assert duplicate.get_params() == intervention.get_params()
        assert not hasattr(duplicate, "estimator_")

    @pytest.mark.parametrize("name", CANONICAL_METHODS)
    def test_repr_shows_params(self, name):
        intervention = make_intervention(name)
        text = repr(intervention)
        assert text.startswith(type(intervention).__name__ + "(")
        assert "random_state=" in text

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_intervention("kam").set_params(bogus=1)

    def test_capability_declarations(self):
        weights = {"confair", "confair0", "kam", "omn"}
        routers = {"diffair", "diffair0", "multimodel"}
        for name in CANONICAL_METHODS:
            capabilities = get_intervention_spec(name).capabilities
            assert capabilities.produces_weights == (name in weights)
            assert capabilities.routes == (name in routers)
            assert capabilities.repairs_data == (name == "cap")
            assert capabilities.requires_group_at_predict == (name == "multimodel")
        assert get_intervention_spec("confair").capabilities.degree_param == "alpha_u"
        assert get_intervention_spec("omn").capabilities.degree_param == "lam"
        assert get_intervention_spec("kam").capabilities.supports_degree_sweep is False

    def test_make_model_before_fit_raises(self, drifted_split):
        for name in CANONICAL_METHODS:
            with pytest.raises(NotFittedError):
                make_intervention(name).make_model(drifted_split)

    def test_degree_sweep_unsupported_raises(self, drifted_split):
        kam = make_intervention("kam").fit(drifted_split.train)
        with pytest.raises(ExperimentError):
            kam.weights_for_degree(1.0)

    @pytest.mark.parametrize("name", CANONICAL_METHODS)
    def test_uniform_fit_and_predict_surface(self, name, drifted_split):
        intervention = make_intervention(name, **FAST_KWARGS.get(name, {}))
        fitted = intervention.fit(drifted_split.train, validation=drifted_split.validation)
        assert fitted is intervention
        model = intervention.make_model(drifted_split, learner="lr", seed=0)
        predictions = model.predict(drifted_split.deploy.X, group=drifted_split.deploy.group)
        assert predictions.shape[0] == drifted_split.deploy.n_samples
        assert set(np.unique(predictions)) <= {0, 1}
        assert isinstance(intervention.details(), dict)

    def test_group_routed_model_demands_group(self, drifted_split):
        multimodel = make_intervention("multimodel").fit(drifted_split.train)
        model = multimodel.make_model(drifted_split)
        assert model.requires_group
        with pytest.raises(ValidationError):
            model.predict(drifted_split.deploy.X)

    def test_group_blind_models_ignore_group(self, drifted_split):
        diffair = make_intervention("diffair").fit(drifted_split.train)
        model = diffair.make_model(drifted_split)
        without = model.predict(drifted_split.deploy.X)
        with_group = model.predict(drifted_split.deploy.X, group=drifted_split.deploy.group)
        assert np.array_equal(without, with_group)

    def test_weights_match_underlying_estimator(self, drifted_split):
        wrapped = make_intervention("kam", random_state=0).fit(drifted_split.train)
        direct = KamiranReweighing(learner="lr", random_state=0).fit(drifted_split.train)
        assert np.allclose(wrapped.weights_, direct.weights_)


def _legacy_run_method(method, split, *, learner="lr", seed=0,
                       tuning_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 3.0),
                       lam_grid=(0.0, 0.25, 0.5, 1.0, 1.5),
                       alpha_u=None, lam=None, calibration_learner=None,
                       fairness_target="di"):
    """Frozen copy of the pre-redesign 9-branch run_method dispatch.

    Kept verbatim (minus the unknown-method branch) as the reference for the
    equivalence tests below: the registry-driven ``FairnessPipeline`` must
    reproduce these predictions bit-for-bit.
    """

    def predict_with_weights(weights):
        model = make_learner(learner, random_state=seed)
        model.fit(split.train.X, split.train.y, sample_weight=weights)
        return model.predict(split.deploy.X)

    key = method.strip().lower()
    calibration = calibration_learner or learner
    details = {}
    if key == "none":
        model = NoIntervention(learner=learner, random_state=seed).fit(split.train)
        return model.predict(split.deploy.X), details
    if key == "multimodel":
        model = MultiModel(learner=learner, random_state=seed).fit(split.train)
        return model.predict(split.deploy.X, split.deploy.group), details
    if key in ("diffair", "diffair0"):
        diffair = DiffFair(
            learner=learner, use_density_filter=(key == "diffair"), random_state=seed
        ).fit(split.train, validation=split.validation)
        predictions = diffair.predict(split.deploy.X)
        routes = diffair.route(split.deploy.X)
        details["minority_model_fraction"] = float(np.mean(routes == 1))
        return predictions, details
    if key in ("confair", "confair0"):
        confair = ConFair(
            alpha_u=alpha_u,
            fairness_target=fairness_target,
            use_density_filter=(key == "confair"),
            learner=calibration,
            tuning_grid=tuning_grid,
            random_state=seed,
        ).fit(split.train, validation=split.validation)
        details["alpha_u"] = confair.alpha_u_
        details["alpha_w"] = confair.alpha_w_
        return predict_with_weights(confair.weights_), details
    if key == "kam":
        kam = KamiranReweighing(learner=learner, random_state=seed).fit(split.train)
        return predict_with_weights(kam.weights_), details
    if key == "omn":
        omn = OmniFairReweighing(
            lam=lam,
            learner=calibration,
            lam_grid=lam_grid,
            fairness_target=fairness_target,
            random_state=seed,
        ).fit(split.train, validation=split.validation)
        details["lambda"] = omn.lam_
        return predict_with_weights(omn.weights_), details
    if key == "cap":
        cap = CapuchinRepair(learner=learner, random_state=seed).fit(split.train)
        model = cap.fit_learner(make_learner(learner, random_state=seed))
        return model.predict(split.deploy.X), details
    raise AssertionError(f"unexpected method {method!r}")


def _pipeline_run(method, split, *, seed, calibration_learner=None, **params):
    return FairnessPipeline(
        intervention=method,
        learner="lr",
        dataset=split,
        calibration_learner=calibration_learner,
        seed=seed,
        intervention_params=params,
    ).run()


class TestShimEquivalence:
    @pytest.mark.parametrize("method", CANONICAL_METHODS)
    def test_run_method_matches_legacy_dispatch(self, method, drifted_split):
        kwargs = FAST_KWARGS.get(method, {})
        legacy_pred, legacy_details = _legacy_run_method(
            method, drifted_split, learner="lr", seed=3, **kwargs
        )
        result = _pipeline_run(method, drifted_split, seed=3, **kwargs)
        assert np.array_equal(legacy_pred, result.predictions)
        assert legacy_details == result.details

    def test_inapplicable_kwargs_now_raise(self, drifted_split):
        with pytest.raises(ExperimentError):
            _pipeline_run("diffair", drifted_split, seed=0, tuning_grid=(0.0, 1.0))
        with pytest.raises(ExperimentError):
            _pipeline_run("multimodel", drifted_split, seed=0, fairness_target="di")
        with pytest.raises(ExperimentError):
            _pipeline_run("kam", drifted_split, seed=0, lam=0.5)

    def test_calibration_learner_rejected_without_capability(self, drifted_split):
        with pytest.raises(ExperimentError):
            _pipeline_run("diffair", drifted_split, seed=0, calibration_learner="xgb")


class TestFairnessPipeline:
    def test_run_produces_full_result(self, drifted_split):
        pipeline = FairnessPipeline(
            intervention="confair",
            learner="lr",
            dataset=drifted_split,
            seed=3,
            intervention_params={"alpha_u": 1.0},
        )
        result = pipeline.run()
        assert result.method == "confair"
        assert result.learner == "lr"
        assert result.predictions.shape[0] == drifted_split.deploy.n_samples
        assert result.details["alpha_u"] == 1.0
        assert 0.0 <= result.report.balanced_accuracy <= 1.0
        assert result.intervention.estimator_.alpha_u_ == 1.0
        assert result.runtime_seconds > 0

    def test_run_matches_run_method(self, drifted_split):
        predictions, _ = _legacy_run_method("diffair", drifted_split, learner="lr", seed=5)
        result = FairnessPipeline(
            intervention="diffair", learner="lr", dataset=drifted_split, seed=5
        ).run()
        assert np.array_equal(predictions, result.predictions)

    def test_accepts_intervention_prototype(self, drifted_split):
        prototype = ConFairIntervention(alpha_u=1.0)
        result = FairnessPipeline(
            intervention=prototype, learner="lr", dataset=drifted_split, seed=4
        ).run()
        assert result.details["alpha_u"] == 1.0
        # The prototype itself stays unfitted (the pipeline clones it).
        assert not hasattr(prototype, "estimator_")

    def test_named_dataset_loading(self):
        result = FairnessPipeline(
            intervention="none", learner="lr", dataset="lsac", size_factor=0.03, seed=7
        ).run()
        assert result.dataset == "lsac"

    def test_run_repeated_serial_equals_parallel(self, drifted_split):
        pipeline = FairnessPipeline(
            intervention="kam", learner="lr", dataset=drifted_split
        )
        serial = pipeline.run_repeated(3, base_seed=11)
        parallel = pipeline.run_repeated(3, base_seed=11, n_jobs=3)
        assert [r.seed for r in serial] == [r.seed for r in parallel]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.predictions, b.predictions)
            assert a.report == b.report

    def test_run_repeated_validates_n_repeats(self, drifted_split):
        with pytest.raises(ExperimentError):
            FairnessPipeline(dataset=drifted_split).run_repeated(0)

    def test_sweep_degrees_matches_manual_weights_path(self, drifted_split):
        degrees = (0.0, 1.0, 2.0)
        points = FairnessPipeline(
            intervention="confair",
            learner="lr",
            dataset=drifted_split,
            seed=9,
            intervention_params={"alpha_u": 0.0, "alpha_w": 0.0},
        ).sweep_degrees(degrees)
        assert [p.degree for p in points] == list(degrees)

        confair = ConFair(alpha_u=0.0, alpha_w=0.0, learner="lr", random_state=9).fit(
            drifted_split.train
        )
        for point in points:
            weights = confair.compute_weights(alpha_u=point.degree, alpha_w=0.0).weights
            model = make_learner("lr", random_state=9)
            model.fit(drifted_split.train.X, drifted_split.train.y, sample_weight=weights)
            assert np.array_equal(point.predictions, model.predict(drifted_split.deploy.X))

    def test_sweep_degrees_requires_capability(self, drifted_split):
        with pytest.raises(ExperimentError):
            FairnessPipeline(intervention="cap", dataset=drifted_split).sweep_degrees((0.0, 1.0))

    def test_calibration_transfer_uses_separate_learner(self, drifted_split):
        result = FairnessPipeline(
            intervention="confair",
            learner="lr",
            dataset=drifted_split,
            calibration_learner="xgb",
            seed=2,
            intervention_params={"alpha_u": 1.0},
        ).run()
        assert result.intervention.learner == "xgb"  # calibration side
        assert result.learner == "lr"  # final model side

    def test_calibration_transfer_rejected_without_capability(self, drifted_split):
        with pytest.raises(ExperimentError):
            FairnessPipeline(
                intervention="multimodel", dataset=drifted_split, calibration_learner="xgb"
            ).run()

    def test_unknown_intervention_param_raises(self, drifted_split):
        with pytest.raises(ExperimentError):
            FairnessPipeline(
                intervention="kam",
                dataset=drifted_split,
                intervention_params={"bogus": 1},
            ).run()
