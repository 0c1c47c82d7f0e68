"""Chaos soak harness: report plumbing fast, the full soak when slow.

The real chaos schedule spawns worker processes, so it runs under
``REPRO_SLOW=1`` (the CI ``soak`` job); the report contract -- schema,
gate accounting, rendering -- is cheap and always runs.
"""

import json

import pytest

from repro.experiments import bench, soakbench


def _synthetic_results(**gate_overrides) -> dict:
    gates = {
        "zero_lost": True,
        "predictions_identical": True,
        "expired_admission": True,
        "expired_dequeue": True,
        "expired_stage": True,
        "breaker_opened": True,
        "breaker_closed": True,
        "shed": True,
        "hedged": True,
        "redelivered": True,
        "restarted": True,
        "quarantined": True,
        "capture_fault_typed": True,
    }
    gates.update(gate_overrides)
    return {
        "seed": 1,
        "materials": ["pure_water", "pepsi", "oil"],
        "workers": 2,
        "distinct_sessions": 18,
        "phases": {"capture_fault": {"typed_failure": True}},
        "counters": {
            "cluster": {
                "requests.shed": 26, "cluster.hedges": 45,
                "cluster.redeliveries": 4, "cluster.restarts": 4,
                "breaker.opened": 1, "breaker.closed": 1,
                "breaker.diverted": 11, "deadline.expired_admission": 4,
            },
            "worker_merged": {
                "deadline.expired_dequeue": 9, "deadline.expired_stage": 12,
            },
            "store_quarantined": 375.0,
        },
        "gates": gates,
        "gates_passed": all(gates.values()),
    }


class TestReportContract:
    def test_write_report_stamps_schema_and_benchmark(self, tmp_path):
        path = tmp_path / "SOAK.json"
        report = bench.write_report(
            path, "soak", "smoke", {"soak": _synthetic_results()}
        )
        assert report["schema"] == 1
        assert report["benchmark"] == "soak"
        on_disk = json.loads(path.read_text())
        assert on_disk == report
        assert on_disk["suites"]["smoke"]["soak"]["gates_passed"] is True

    def test_render_mentions_every_mechanism(self):
        text = soakbench.SUITE.report("smoke", {"soak": _synthetic_results()})
        for needle in (
            "sheds 26", "hedges 45", "redeliveries 4", "restarts 4",
            "opened 1", "closed 1", "quarantined: 375",
            "admission 4", "dequeue 9", "stage 12",
            "all gates passed",
        ):
            assert needle in text

    def test_render_names_the_failed_gates(self):
        results = {
            "soak": _synthetic_results(breaker_opened=False, hedged=False)
        }
        failures = soakbench.check(results, "smoke")
        assert len(failures) == 2
        text = soakbench.SUITE.report("smoke", results, failures=failures)
        assert "GATE FAILED" in text
        assert "breaker_opened" in text and "hedged" in text
        assert "all gates passed" not in text


@pytest.mark.slow
class TestChaosSoak:
    def test_smoke_soak_passes_every_gate(self, tmp_path):
        results = soakbench.run_soak_bench(
            seed=1,
            repetitions=soakbench.SMOKE_REPETITIONS,
            store_root=tmp_path / "soak",
        )
        assert results["gates_passed"], results["gates"]
        counters = results["counters"]["cluster"]
        assert counters["breaker.opened"] > 0
        assert counters["cluster.hedges"] > 0
        assert counters["requests.shed"] > 0
        assert results["counters"]["store_quarantined"] > 0
