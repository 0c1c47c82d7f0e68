"""Gate logic of the precision benchmark suite.

Mirrors ``test_perfbench.py``: the benchmarks themselves run in CI via
``repro bench --suite precision --smoke``; these tests pin the suite's gate
semantics (accuracy floor, allocation-peak check, full-mode kernel
speedup floor) without paying for a benchmark run -- plus one real
smoke-sized run of the ring-buffer benchmark, whose tracemalloc
measurement is the satellite deliverable.
"""

import pytest

from repro.experiments.precisionbench import (
    _SIZES,
    MIN_KERNEL_SPEEDUP,
    SUITE,
    bench_ring_buffer,
    check,
)


def _result(speedup=2.0):
    return {"new_s": 0.1, "baseline_s": 0.1 * speedup, "speedup": speedup}


def _accuracy(f32=0.95, f64=0.95):
    return {
        **_result(),
        "accuracy_float32": f32,
        "accuracy_float64": f64,
        "accuracy_ok": f32 >= f64,
    }


def _ring(ring_peak=100, list_peak=1000):
    return {
        **_result(),
        "ring_peak_bytes": ring_peak,
        "list_peak_bytes": list_peak,
        "peak_ratio": ring_peak / list_peak,
        "peak_ok": ring_peak < list_peak,
    }


class TestGates:
    def test_clean_results_pass(self):
        results = {
            "denoise": _result(1.5),
            "simulate": _result(1.4),
            "gram": _result(3.0),
            "identify_accuracy": _accuracy(),
            "ring_buffer": _ring(),
        }
        assert check(results, "full") == []
        assert check(results, "smoke") == []

    def test_accuracy_drop_fails_both_modes(self):
        results = {"identify_accuracy": _accuracy(f32=0.90, f64=0.95)}
        for mode in ("smoke", "full"):
            failures = check(results, mode)
            assert len(failures) == 1
            assert "accuracy" in failures[0]

    def test_allocation_peak_not_below_list_fails(self):
        results = {"ring_buffer": _ring(ring_peak=2000, list_peak=1000)}
        failures = check(results, "smoke")
        assert len(failures) == 1
        assert "allocation peak" in failures[0]

    def test_kernel_speedup_floor_gated_in_full_only(self):
        # Smoke workloads are too small for stable ratios; the 1.3x
        # floor is a property of the committed full-suite numbers.
        results = {"denoise": _result(1.1)}
        assert check(results, "smoke") == []
        failures = check(results, "full")
        assert len(failures) == 1
        assert f"{MIN_KERNEL_SPEEDUP:.1f}x floor" in failures[0]

    def test_every_kernel_is_held_to_the_floor(self):
        results = {
            "denoise": _result(1.0),
            "simulate": _result(1.0),
            "gram": _result(1.0),
        }
        assert len(check(results, "full")) == 3


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode must be one of"):
        SUITE.run("turbo")


def test_render_report_mentions_failures():
    results = {"identify_accuracy": _accuracy(f32=0.5, f64=1.0)}
    failures = check(results, "smoke")
    text = SUITE.report("smoke", results, [], failures)
    assert "GATE FAILED" in text
    assert "accuracy: float64 1.000, float32 0.500" in text
    clean = SUITE.report("smoke", {"ring_buffer": _ring()})
    assert "all gates passed" in clean
    assert "alloc peak: ring 100 B vs list 1000 B" in clean


def test_ring_buffer_benchmark_measures_lower_peak():
    """The committed claim, measured live at smoke size: window assembly
    out of the ring arena allocates strictly less than np.stack over a
    row list."""
    result = bench_ring_buffer(_SIZES["smoke"])
    assert result["peak_ok"]
    assert result["ring_peak_bytes"] < result["list_peak_bytes"]
    assert result["windows"] > 0
