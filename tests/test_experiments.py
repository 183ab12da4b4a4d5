"""Unit tests for the experiment harness (one cell through the pipeline,
aggregation, reporting, config)."""

import numpy as np
import pytest

from repro.datasets import load_dataset, split_dataset
from repro.exceptions import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    FigureResult,
    aggregate_cells,
    render_table,
    run_figure02,
)
from repro.interventions import FairnessPipeline, available_interventions


@pytest.fixture(scope="module")
def tiny_split():
    data = load_dataset("lsac", size_factor=0.03, random_state=5)
    return split_dataset(data, random_state=5)


def run_cell(method, split, *, calibration_learner=None, **params):
    """One deploy-set cell: ``(predictions, details)``."""
    result = FairnessPipeline(
        intervention=method,
        learner="lr",
        dataset=split,
        calibration_learner=calibration_learner,
        seed=0,
        intervention_params=params,
    ).run()
    return result.predictions, result.details


class TestRunMethod:
    @pytest.mark.parametrize("method", ["none", "multimodel", "kam", "cap"])
    def test_simple_methods_produce_predictions(self, tiny_split, method):
        predictions, details = run_cell(method, tiny_split)
        assert predictions.shape[0] == tiny_split.deploy.n_samples
        assert set(np.unique(predictions)) <= {0, 1}
        assert isinstance(details, dict)

    def test_confair_with_fixed_alpha(self, tiny_split):
        predictions, details = run_cell("confair", tiny_split, alpha_u=1.0)
        assert details["alpha_u"] == 1.0
        assert predictions.shape[0] == tiny_split.deploy.n_samples

    def test_confair_auto_tuning_records_alpha(self, tiny_split):
        _, details = run_cell("confair", tiny_split, tuning_grid=(0.0, 1.0))
        assert details["alpha_u"] in (0.0, 1.0)

    def test_omn_with_fixed_lambda(self, tiny_split):
        _, details = run_cell("omn", tiny_split, lam=0.5)
        assert details["lambda"] == 0.5

    def test_diffair_reports_routing_fraction(self, tiny_split):
        _, details = run_cell("diffair", tiny_split)
        assert 0.0 <= details["minority_model_fraction"] <= 1.0

    def test_cross_model_calibration(self, tiny_split):
        predictions, _ = run_cell(
            "confair", tiny_split, alpha_u=1.0, calibration_learner="xgb"
        )
        assert predictions.shape[0] == tiny_split.deploy.n_samples

    def test_unknown_method(self, tiny_split):
        with pytest.raises(ExperimentError):
            run_cell("magic", tiny_split)

    def test_method_names_exposed(self):
        methods = available_interventions()
        assert "confair" in methods and "diffair0" in methods


class TestEvaluateAndAggregate:
    def test_evaluate_cell_fields(self):
        cell = FairnessPipeline(
            intervention="none", learner="lr", dataset="lsac", size_factor=0.03, seed=1
        ).run()
        assert cell.dataset == "lsac"
        assert cell.runtime_seconds > 0
        assert 0.0 <= cell.report.balanced_accuracy <= 1.0

    def test_aggregate_cells_averages_over_seeds(self):
        aggregated = aggregate_cells(
            "lsac", "none", learner="lr", n_repeats=2, base_seed=3, size_factor=0.03
        )
        assert aggregated.n_repeats == 2
        row = aggregated.to_row()
        assert set(row) >= {"dataset", "method", "learner", "DI*", "AOD*", "BalAcc"}

    def test_aggregation_is_reproducible(self):
        a = aggregate_cells("lsac", "none", learner="lr", n_repeats=2, base_seed=3, size_factor=0.03)
        b = aggregate_cells("lsac", "none", learner="lr", n_repeats=2, base_seed=3, size_factor=0.03)
        assert a.di_star_mean == pytest.approx(b.di_star_mean)

    def test_parallel_aggregation_matches_serial(self):
        serial = aggregate_cells(
            "lsac", "kam", learner="lr", n_repeats=3, base_seed=3, size_factor=0.03
        )
        parallel = aggregate_cells(
            "lsac", "kam", learner="lr", n_repeats=3, base_seed=3, size_factor=0.03, n_jobs=3
        )
        assert serial.di_star_mean == pytest.approx(parallel.di_star_mean)
        assert serial.aod_star_mean == pytest.approx(parallel.aod_star_mean)
        assert serial.balanced_accuracy_mean == pytest.approx(parallel.balanced_accuracy_mean)


class TestConfigAndReporting:
    def test_config_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(datasets=())
        with pytest.raises(ExperimentError):
            ExperimentConfig(n_repeats=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(size_factor=2.0)

    def test_quick_config_is_smaller(self):
        config = ExperimentConfig(n_repeats=5, size_factor=0.2)
        quick = config.quick()
        assert quick.n_repeats == 1
        assert quick.size_factor <= 0.03

    def test_render_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all lines equally wide

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"

    def test_figure_result_filter_rows(self):
        figure = FigureResult(figure_id="x", title="t", rows=[{"m": "a", "v": 1}, {"m": "b", "v": 2}])
        assert figure.filter_rows(m="a") == [{"m": "a", "v": 1}]

    def test_figure_render_contains_title_and_notes(self):
        figure = run_figure02()
        text = figure.render()
        assert "figure02" in text
        assert "CONFAIR" in text
