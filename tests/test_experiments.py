"""Tests for the experiment harness (datasets, runner, reporting)."""

import numpy as np
import pytest

from repro.channel.materials import default_catalog
from repro.experiments.datasets import (
    collect_dataset,
    paper_liquids,
    split_dataset,
    standard_scene,
    standard_target,
)
from repro.experiments.reporting import (
    format_cluster_table,
    format_confusion,
    format_environment_series,
    format_scalar_table,
    format_series,
)
from repro.experiments.runner import fit_and_score, run_identification
from repro.ml.validation import confusion_matrix

# The simulated int8 CSI quantization legitimately zeroes a
# deep-faded antenna in some deployments, so the quality gate's
# DegradedTraceWarning is expected here; everything else is an error
# (see pyproject filterwarnings).
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.csi.quality.DegradedTraceWarning"
)


class TestDatasets:
    def test_paper_liquids_count_and_order(self):
        liquids = paper_liquids()
        assert len(liquids) == 10
        assert liquids[0].name == "vinegar"
        assert liquids[-1].name == "sweet_water"

    def test_standard_target_defaults(self):
        t = standard_target()
        assert t.diameter == pytest.approx(0.143)
        assert t.wall_material_name == "plastic"

    def test_standard_scene(self):
        scene = standard_scene("hall", distance_m=3.0)
        assert scene.environment.name == "hall"
        assert scene.geometry.distance == 3.0

    def test_collect_dataset_shape(self):
        catalog = default_catalog()
        materials = [catalog.get("oil"), catalog.get("pure_water")]
        dataset = collect_dataset(
            materials, repetitions=3, num_packets=5, seed=0
        )
        assert set(dataset) == {"oil", "pure_water"}
        assert len(dataset["oil"]) == 3
        assert len(dataset["oil"][0].baseline) == 5

    def test_collect_requires_materials(self):
        with pytest.raises(ValueError, match="material"):
            collect_dataset([], repetitions=2)

    def test_split_fractions(self):
        catalog = default_catalog()
        dataset = collect_dataset(
            [catalog.get("oil"), catalog.get("milk")],
            repetitions=5, num_packets=4, seed=0,
        )
        train, test = split_dataset(dataset, train_fraction=0.6)
        assert len(train) == 6 and len(test) == 4

    def test_split_invalid_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            split_dataset({}, train_fraction=1.5)

    def test_split_needs_two_sessions(self):
        catalog = default_catalog()
        dataset = collect_dataset(
            [catalog.get("oil")], repetitions=1, num_packets=4, seed=0
        )
        with pytest.raises(ValueError, match="at least 2"):
            split_dataset(dataset)


class TestRunner:
    def test_run_identification_end_to_end(self):
        catalog = default_catalog()
        materials = [catalog.get(n) for n in ("oil", "pure_water", "soy")]
        result = run_identification(
            materials, repetitions=6, num_packets=8, seed=0
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.accuracy >= 0.7  # well-separated trio
        assert set(result.per_class_accuracy()) == {
            "oil", "pure_water", "soy"
        }
        assert result.extras["selected_subcarriers"] is not None

    def test_needs_two_materials(self):
        catalog = default_catalog()
        with pytest.raises(ValueError, match="two materials"):
            run_identification([catalog.get("oil")], repetitions=2)

    def test_fit_and_score_reuses_sessions(self):
        catalog = default_catalog()
        materials = [catalog.get("oil"), catalog.get("soy")]
        dataset = collect_dataset(
            materials, repetitions=6, num_packets=8, seed=1
        )
        train, test = split_dataset(dataset)
        result = fit_and_score(
            train, test, [m.name for m in materials], materials
        )
        assert result.accuracy >= 0.7

    def test_fit_and_score_empty_rejected(self):
        catalog = default_catalog()
        with pytest.raises(ValueError, match="non-empty"):
            fit_and_score([], [], ["a"], [catalog.get("oil")])


class TestReporting:
    def test_scalar_table(self):
        text = format_scalar_table("title", {"a": 1.0, "bb": 2.5}, unit="x")
        assert "title" in text and "bb" in text and "x" in text

    def test_scalar_table_empty_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            format_scalar_table("t", {})

    def test_series(self):
        text = format_series("t", [(1, 0.9), (2, 0.8)], "d", "acc")
        assert "0.900" in text

    def test_confusion(self):
        cm = confusion_matrix(np.array(["a", "b"]), np.array(["a", "b"]))
        text = format_confusion("t", cm)
        assert "overall accuracy: 1.000" in text

    def test_cluster_table(self):
        text = format_cluster_table(
            "t", {"milk": {"mean": 0.19, "std": 0.002, "theory": 0.196}}
        )
        assert "milk" in text

    def test_environment_series(self):
        text = format_environment_series(
            "t", {"lab": [(1.0, 0.9)]}, "distance"
        )
        assert "[lab]" in text and "distance=1" in text


class TestMeanAccuracyOverSeeds:
    def test_averages_deployments(self):
        from repro.experiments.runner import mean_accuracy_over_seeds

        catalog = default_catalog()
        materials = [catalog.get("oil"), catalog.get("soy")]
        mean, accs = mean_accuracy_over_seeds(
            materials, seeds=(0, 1), repetitions=4, num_packets=6
        )
        assert len(accs) == 2
        assert mean == pytest.approx(np.mean(accs))

    def test_empty_seeds_rejected(self):
        from repro.experiments.runner import mean_accuracy_over_seeds

        catalog = default_catalog()
        with pytest.raises(ValueError, match="seed"):
            mean_accuracy_over_seeds(
                [catalog.get("oil"), catalog.get("soy")], seeds=()
            )


class TestRobustnessSweeps:
    def test_packet_loss_sweep_smoke(self):
        from repro.experiments import robustness

        results = robustness.packet_loss_sweep(
            rates=(0.0, 0.3),
            materials=("pure_water", "oil"),
            repetitions=4,
            num_packets=6,
            seed=1,
        )
        assert [r.parameter for r in results] == [0.0, 0.3]
        clean, lossy = results
        assert clean.total == lossy.total > 0
        assert clean.rejected == 0 and clean.degraded == 0
        assert 0.0 <= lossy.accuracy <= 1.0
        # Losing packets must register as degradation, not pass silently.
        assert lossy.degraded > 0

    def test_antenna_dropout_sweep_smoke(self):
        from repro.experiments import robustness

        results = robustness.antenna_dropout_sweep(
            materials=("pure_water", "oil"),
            modes=("nan",),
            repetitions=4,
            num_packets=6,
            seed=1,
        )
        assert results[0].scenario == "none"
        assert len(results) == 4  # anchor + one per antenna
        for point in results[1:]:
            assert point.degraded + point.rejected == point.total

    def test_payloads_are_picklable(self):
        import pickle

        from repro.experiments.robustness import (
            _payload, _scenario_task,
        )
        from repro.csi.faults import PacketLoss

        payload = _payload(
            "packet_loss", "loss=0.2", 0.2, (PacketLoss(0.2),),
            ("pure_water", "oil"), 0, 4, 6, 0.5,
        )
        assert pickle.loads(pickle.dumps(payload)) == payload
        assert pickle.loads(pickle.dumps(_scenario_task)) is _scenario_task

    def test_report_roundtrip(self, tmp_path):
        import json

        from repro.experiments import bench, robustness
        from repro.experiments.robustness import ScenarioResult

        point = ScenarioResult(
            sweep="packet_loss", scenario="loss=0.1", parameter=0.1,
            total=10, correct=9, rejected=1, degraded=5,
        )
        results = {
            "packet_loss": {
                "materials": list(robustness.DEFAULT_MATERIALS),
                "points": [point.to_dict()],
            }
        }
        path = tmp_path / "robustness.json"
        report = bench.write_report(path, "robustness", "full", results)
        assert json.loads(path.read_text()) == report
        rendered = robustness.SUITE.report("full", results)
        assert "loss=0.1" in rendered and "90.0%" in rendered
