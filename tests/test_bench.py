"""The shared benchmark harness, once per registered suite.

Every suite of :data:`repro.experiments.bench.SUITES` gets the same
contract checks on synthetic results -- no workload runs here (the
suites run in CI via ``repro bench --suite NAME --smoke``): unknown
modes are rejected, reports round-trip through write -> merge -> load,
``check`` passes a clean result and names one injected failure, the
rendered report names failures and regressions, and a run exits
non-zero on either.
"""

import copy
import dataclasses
from pathlib import Path

import pytest

from repro.experiments import bench

ROOT = Path(__file__).resolve().parents[1]


def _committed(path: str) -> dict:
    return bench.load_report(ROOT / path)["suites"]["smoke"]


def _point(sweep, scenario, parameter, correct=12, rejected=0, degraded=0):
    return {
        "sweep": sweep, "scenario": scenario, "parameter": parameter,
        "total": 12, "correct": correct, "rejected": rejected,
        "degraded": degraded, "accuracy": round(correct / 12, 4),
    }


_MATERIALS = ["pure_water", "pepsi", "oil"]

_SOAK_GATES = (
    "zero_lost", "predictions_identical", "expired_admission",
    "expired_dequeue", "expired_stage", "breaker_opened", "breaker_closed",
    "shed", "hedged", "redelivered", "restarted", "quarantined",
    "capture_fault_typed",
)

#: One clean smoke result per suite: the committed smoke suites where
#: the report layout is unchanged, synthetic entries elsewhere.
CLEAN = {
    "perf": _committed("BENCH_PR4.json"),
    "stream": _committed("BENCH_PR8.json"),
    "precision": _committed("BENCH_PR9.json"),
    "warm": {
        "warm_start": {
            "seed": 1, "materials": _MATERIALS,
            "train_sessions": 12, "test_sessions": 6,
            "cold": {"fit_s": 0.3, "first_identify_s": 0.01, "total_s": 0.31},
            "warm": {"load_s": 0.003, "first_identify_s": 0.003,
                     "total_s": 0.006},
            "speedup": 51.7, "predictions_identical": True,
            "warm_first_stage_executions": {},
            "warm_disk_hits": {"classify": 6},
            "store": {"entries": 224, "bytes": 570896},
        },
        "repeat_pass": {
            "train_sessions": 12, "test_sessions": 6,
            "first_pass_denoise_executions": 36,
            "repeat_pass_denoise_executions": 0,
            "predictions_identical": True,
            "stage_cache": {
                "amplitude_denoise": {
                    "hits": 120, "memory_hits": 120, "disk_hits": 0,
                    "misses": 36, "hit_rate": 120 / 156,
                },
            },
        },
    },
    "cluster": {
        "throughput": {
            "seed": 1, "materials": _MATERIALS, "workers": 2,
            "distinct_sessions": 36, "waves": 2, "requests": 72,
            "num_packets": 6, "eviction_regime": False,
            "service": {"seconds": 0.2, "requests_per_s": 360.0,
                        "memory_hits": 497, "misses": 481},
            "cluster": {"seconds": 0.15, "requests_per_s": 480.0,
                        "memory_hits": 504, "misses": 468,
                        "completed": 72, "failed": 0},
            "speedup": 1.33, "predictions_identical": True,
        },
        "kill_survival": {
            "requests": 24, "killed_pid": 4242, "restarts": 1,
            "redeliveries": 2, "completed": 24, "failed": 0,
            "duplicate_replies": 0, "zero_lost": True,
            "predictions_identical": True,
        },
    },
    "soak": {
        "soak": {
            "seed": 1, "materials": _MATERIALS, "workers": 2,
            "distinct_sessions": 18,
            "phases": {"capture_fault": {"typed_failure": True}},
            "counters": {
                "cluster": {
                    "requests.shed": 26, "cluster.hedges": 45,
                    "cluster.redeliveries": 4, "cluster.restarts": 4,
                    "breaker.opened": 1, "breaker.closed": 1,
                    "breaker.diverted": 11,
                    "deadline.expired_admission": 4,
                },
                "worker_merged": {
                    "deadline.expired_dequeue": 9,
                    "deadline.expired_stage": 12,
                },
                "store_quarantined": 375.0,
            },
            "gates": dict.fromkeys(_SOAK_GATES, True),
            "gates_passed": True,
        },
    },
    "robustness": {
        "packet_loss": {
            "materials": _MATERIALS,
            "points": [
                _point("packet_loss", "loss=0", 0.0),
                _point("packet_loss", "loss=0.1", 0.1, correct=11,
                       degraded=12),
                _point("packet_loss", "loss=0.2", 0.2, degraded=12),
            ],
        },
        "antenna_dropout": {
            "materials": _MATERIALS,
            "points": [
                _point("antenna_dropout", "none", "none"),
                # Dead-antenna rows are recorded but not gated.
                _point("antenna_dropout", "antenna=2,mode=nan", "2:nan",
                       correct=4, degraded=12),
            ],
        },
    },
}

#: One injected bad field per suite: (path into the results, bad value,
#: text the failure message must contain).
BAD = {
    "perf": (("simulate", "max_rel_diff"), 1e-6, "simulate: max_rel_diff"),
    "stream": (("stream_len48", "predictions_identical"), False,
               "stream_len48"),
    "precision": (("ring_buffer", "peak_ok"), False, "allocation peak"),
    "warm": (("warm_start", "speedup"), 4.0, "speedup 4.0x is below"),
    "cluster": (("kill_survival", "restarts"), 0, "never restarted"),
    "soak": (("soak", "gates", "hedged"), False, "hedged"),
    "robustness": (("packet_loss", "points", 2, "rejected"), 1,
                   "loss=0.2: 1 session(s) rejected"),
}


def _inject(results: dict, path: tuple, value) -> dict:
    bad = copy.deepcopy(results)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return bad


def _replaying(suite: bench.Suite, results: dict) -> bench.Suite:
    """``suite`` with its workloads swapped for canned ``results``."""

    def cases(sizes):
        for name, entry in results.items():
            yield name, lambda entry=entry: copy.deepcopy(entry)

    return dataclasses.replace(suite, cases=cases)


SUITE_NAMES = sorted(bench.SUITES)
GATED = [name for name in SUITE_NAMES if bench.SUITES[name].gated_fields]


def test_every_suite_has_fixtures():
    assert set(CLEAN) == set(BAD) == set(SUITE_NAMES)


def test_gated_fields_cover_every_timed_suite():
    assert bench.gated_fields() == (
        "new_s", "time_to_first_estimate_s", "finalize_s",
    )


@pytest.mark.parametrize("name", SUITE_NAMES)
class TestSuiteContract:
    def test_unknown_mode_rejected(self, name):
        with pytest.raises(ValueError, match="mode must be one of"):
            bench.SUITES[name].run("warp-speed")

    def test_undeclared_setting_rejected(self, name):
        with pytest.raises(ValueError, match="has no setting 'warp'"):
            bench.SUITES[name].run("smoke", warp=9)

    def test_modes_declared(self, name):
        assert set(bench.SUITES[name].sizes) == {"smoke", "full"}

    def test_report_round_trip(self, name, tmp_path):
        path = tmp_path / "report.json"
        bench.write_report(path, name, "full", CLEAN[name])
        written = bench.write_report(path, name, "smoke", CLEAN[name])
        loaded = bench.load_report(path)
        assert loaded == written
        assert loaded["schema"] == 1 and loaded["benchmark"] == name
        assert loaded["suites"] == {"full": CLEAN[name], "smoke": CLEAN[name]}

    def test_check_names_injected_failure(self, name):
        suite = bench.SUITES[name]
        assert suite.check(CLEAN[name], "smoke") == []
        path, value, needle = BAD[name]
        failures = suite.check(_inject(CLEAN[name], path, value), "smoke")
        assert len(failures) == 1
        assert needle in failures[0]

    def test_report_names_failures_and_regressions(self, name):
        suite = bench.SUITES[name]
        clean = suite.report("smoke", CLEAN[name])
        assert clean.startswith(f"bench {name} -- smoke suite")
        assert "all gates passed" in clean
        for case in CLEAN[name]:
            assert case in clean
        text = suite.report(
            "smoke", CLEAN[name], [("case.new_s", 5.0)], ["boom"]
        )
        assert "GATE FAILED: boom" in text
        assert "REGRESSION: case.new_s is 5.00x slower" in text
        assert "all gates passed" not in text

    def test_run_fails_on_check_failure(self, name, tmp_path, monkeypatch):
        suite = bench.SUITES[name]
        out = tmp_path / "out.json"
        monkeypatch.setitem(bench.SUITES, name, _replaying(suite, CLEAN[name]))
        passed, text = bench.execute(
            name, smoke=True, output=str(out), baseline=str(out)
        )
        assert passed, text
        assert bench.load_report(out)["suites"]["smoke"] == CLEAN[name]

        path, value, needle = BAD[name]
        bad = _replaying(suite, _inject(CLEAN[name], path, value))
        monkeypatch.setitem(bench.SUITES, name, bad)
        passed, text = bench.execute(name, smoke=True, output=str(out))
        assert not passed
        assert "GATE FAILED" in text and needle in text


@pytest.mark.parametrize("name", GATED)
def test_committed_reports_pass_their_checks(name):
    report = bench.load_report(ROOT / bench.SUITES[name].output)
    assert set(report["suites"]) == {"smoke", "full"}
    for mode, results in report["suites"].items():
        assert bench.SUITES[name].check(results, mode) == [], mode


@pytest.mark.parametrize("name", GATED)
def test_run_fails_on_baseline_regression(name, tmp_path, monkeypatch):
    suite = bench.SUITES[name]
    baseline = tmp_path / "baseline.json"
    slower = copy.deepcopy(CLEAN[name])
    case = next(iter(slower))
    field = suite.gated_fields[0]
    committed = copy.deepcopy(CLEAN[name])
    committed[case][field] = slower[case][field] / (2 * suite.max_regression)
    bench.write_report(baseline, name, "smoke", committed)
    monkeypatch.setitem(bench.SUITES, name, _replaying(suite, slower))
    out = str(tmp_path / "out.json")

    passed, text = bench.execute(
        name, smoke=True, output=out, baseline=str(baseline)
    )
    assert not passed
    assert f"REGRESSION: {case}.{field}" in text
    # A disabled gate passes the same run.
    assert bench.execute(
        name, smoke=True, output=out, baseline=str(baseline),
        max_regression=0,
    )[0]
