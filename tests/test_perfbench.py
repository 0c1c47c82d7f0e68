"""The perf suite's gates, and the shared report I/O, gate and diff.

The benchmarks themselves run in CI via ``repro bench --suite perf
--smoke``; these tests pin the semantics of the perf suite's baseline
gate (2x on ``new_s``), its equivalence check, and the
:mod:`repro.experiments.bench` report plumbing and ``bench-compare``
diff without paying for a benchmark run.
"""

import copy
import json
from pathlib import Path

from repro.experiments import bench
from repro.experiments.perfbench import EQUIVALENCE_TOLERANCE, SUITE

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _result(new_s):
    return {"new_s": new_s, "baseline_s": new_s * 3, "speedup": 3.0}


def _gate(current, baseline, mode="smoke", max_regression=None):
    return bench.compare_to_baseline(
        current,
        baseline,
        mode,
        SUITE.gated_fields,
        SUITE.max_regression if max_regression is None else max_regression,
    )


class TestReportIO:
    def test_load_missing_returns_none(self, tmp_path):
        assert bench.load_report(tmp_path / "nope.json") is None

    def test_load_garbage_returns_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert bench.load_report(path) is None
        path.write_text(json.dumps({"something": "else"}))
        assert bench.load_report(path) is None

    def test_write_merges_suites(self, tmp_path):
        path = tmp_path / "bench.json"
        bench.write_report(path, "perf", "full", {"denoise": _result(0.1)})
        report = bench.write_report(
            path, "perf", "smoke", {"denoise": _result(0.02)}
        )
        assert set(report["suites"]) == {"full", "smoke"}
        on_disk = bench.load_report(path)
        assert on_disk["suites"]["full"]["denoise"]["new_s"] == 0.1
        assert on_disk["suites"]["smoke"]["denoise"]["new_s"] == 0.02


class TestRegressionGate:
    BASELINE = {"suites": {"smoke": {"denoise": _result(0.1)}}}

    def test_no_baseline_passes(self):
        assert _gate({"denoise": _result(9.9)}, None) == []

    def test_within_budget_passes(self):
        assert _gate({"denoise": _result(0.19)}, self.BASELINE) == []

    def test_regression_flagged_with_ratio(self):
        flagged = _gate({"denoise": _result(0.5)}, self.BASELINE)
        assert [name for name, _ in flagged] == ["denoise.new_s"]
        assert flagged[0][1] == pytest.approx(5.0)

    def test_other_suite_not_compared(self):
        current = {"denoise": _result(0.5)}
        assert _gate(current, self.BASELINE, mode="full") == []

    def test_new_benchmark_not_compared(self):
        assert _gate({"brand_new": _result(0.5)}, self.BASELINE) == []

    def test_gate_disabled(self):
        current = {"denoise": _result(0.5)}
        assert _gate(current, self.BASELINE, max_regression=0.0) == []
        assert _gate(current, self.BASELINE, max_regression=-1.0) == []


class TestDiffReports:
    def _report(self, **benches):
        return {"schema": 1, "suites": {"full": benches}}

    def test_unchanged_report_is_all_ok(self):
        report = self._report(denoise=_result(0.1))
        diff = bench.diff_reports(report, report)
        entry = diff["suites"]["full"]["benchmarks"]["denoise"]
        assert entry["status"] == "ok"
        assert entry["timings"]["new_s"]["ratio"] == pytest.approx(1.0)
        assert entry["speedup_delta"] == pytest.approx(0.0)

    def test_regression_and_improvement_flagged(self):
        old = self._report(a=_result(0.1), b=_result(0.1))
        new = self._report(a=_result(0.2), b=_result(0.05))
        benches = bench.diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["a"]["status"] == "regressed"
        assert benches["b"]["status"] == "improved"

    def test_within_threshold_is_ok(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(0.11))
        benches = bench.diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["a"]["status"] == "ok"

    def test_added_and_removed_benchmarks_labelled(self):
        old = self._report(gone=_result(0.1))
        new = self._report(fresh=_result(0.1))
        benches = bench.diff_reports(old, new)["suites"]["full"]["benchmarks"]
        assert benches["gone"]["status"] == "removed"
        assert benches["fresh"]["status"] == "added"

    def test_suite_on_one_side_only(self):
        old = {"schema": 1, "suites": {"full": {"a": _result(0.1)}}}
        new = {"schema": 1, "suites": {"smoke": {"a": _result(0.1)}}}
        diff = bench.diff_reports(old, new)
        assert diff["suites"]["full"]["status"] == "removed"
        assert diff["suites"]["smoke"]["status"] == "added"

    def test_entries_without_timings_not_compared(self):
        # Entries recording no gated timing are passed through untouched.
        old = self._report(stream={"first_estimate_packets": 4})
        new = self._report(stream={"first_estimate_packets": 5})
        entry = bench.diff_reports(old, new)["suites"]["full"]["benchmarks"][
            "stream"
        ]
        assert entry["status"] == "ok"
        assert entry["timings"] == {}
        text = bench.render_diff(
            bench.diff_reports(old, new), "old.json", "new.json"
        )
        assert "no comparable timings" in text

    def test_streaming_regression_flagged(self):
        # BENCH_PR8.json entries record no new_s; the diff compares the
        # stream suite's gated fields instead.
        old = bench.load_report(ROOT / "BENCH_PR8.json")
        new = copy.deepcopy(old)
        entry = new["suites"]["smoke"]["stream_len48"]
        entry["time_to_first_estimate_s"] *= 2
        diff = bench.diff_reports(old, new)
        smoke = diff["suites"]["smoke"]["benchmarks"]["stream_len48"]
        assert smoke["status"] == "regressed"
        ttfe = smoke["timings"]["time_to_first_estimate_s"]
        assert ttfe["ratio"] == pytest.approx(2.0)
        assert smoke["timings"]["finalize_s"]["ratio"] == pytest.approx(1.0)
        full = diff["suites"]["full"]["benchmarks"]
        assert all(e["status"] == "ok" for e in full.values())
        text = bench.render_diff(diff, "old.json", "new.json")
        assert "stream_len48.time_to_first_estimate_s" in text
        assert "REGRESSED" in text

    def test_threshold_disabled_reports_without_flagging(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(1.0))
        benches = bench.diff_reports(old, new, threshold=0)["suites"]["full"][
            "benchmarks"
        ]
        assert benches["a"]["status"] == "ok"
        assert benches["a"]["timings"]["new_s"]["ratio"] == pytest.approx(10.0)

    def test_render_diff_highlights_regressions(self):
        old = self._report(a=_result(0.1))
        new = self._report(a=_result(0.5))
        text = bench.render_diff(
            bench.diff_reports(old, new), "old.json", "new.json"
        )
        assert "REGRESSED" in text
        clean = bench.render_diff(
            bench.diff_reports(old, old), "old.json", "new.json"
        )
        assert "no regressions" in clean


class TestEquivalenceCheck:
    @pytest.mark.parametrize(
        "case, field, value",
        [
            ("denoise", "max_abs_diff", 10 * EQUIVALENCE_TOLERANCE),
            ("simulate", "max_rel_diff", 10 * EQUIVALENCE_TOLERANCE),
            ("extract_batch", "max_omega_diff", 10 * EQUIVALENCE_TOLERANCE),
            ("train", "train_agreement", 0.99),
            ("serve", "predictions_identical", False),
        ],
    )
    def test_disagreement_fails(self, case, field, value):
        results = copy.deepcopy(
            bench.load_report(ROOT / "BENCH_PR4.json")["suites"]["smoke"]
        )
        results[case][field] = value
        failures = SUITE.check(results, "smoke")
        assert len(failures) == 1
        assert failures[0].startswith(case)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode must be one of"):
        SUITE.run("warp-speed")


def test_render_report_mentions_regressions():
    results = {"denoise": _result(0.5)}
    text = SUITE.report("smoke", results, [("denoise.new_s", 5.0)])
    assert "REGRESSION" in text
    clean = SUITE.report("smoke", results)
    assert "no regressions" in clean
