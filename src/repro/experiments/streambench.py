"""The ``stream`` suite of ``repro bench``: streaming vs batch latency.

The batch pipeline cannot produce *anything* before the full trace is
captured and denoised, so its identify latency is proportional to the
trace length.  The streaming path
(:class:`repro.core.streaming.StreamingExtractor`) emits its first
Omega-bar estimate after one denoise window (``stream_window_size``
packets) and pays a bounded per-packet cost after that, so what this
bench measures per trace length is:

* ``time_to_first_estimate_s`` -- compute from the first *target*
  packet until ``estimate()`` first reports a finite Omega-bar.  The
  baseline trace is captured (empty beaker) before the target session
  starts, so the streaming path has digested it off the critical path
  by then; its ingest cost is reported separately as
  ``baseline_ingest_s``.  The batch number it is compared against is
  likewise the compute after all packets are present;
* ``last_window_ms`` -- the worst single-packet step (push + poll),
  i.e. the bounded incremental latency;
* ``finalize_s`` -- tail window + quality gate + classify at the end;
* ``batch_identify_s`` -- the cold full-trace ``identify`` the
  streaming path replaces.

Every run also verifies the acceptance contract (:func:`check`): the
finalized streaming prediction equals the batch prediction on the same
session.  The committed report is ``BENCH_PR8.json``; the baseline
gate fails a run whose time-to-first-estimate or finalize time exceeds
three times the committed value (looser than the perf suite's 2x
because the gated quantities are millisecond-scale).
"""

from __future__ import annotations

import time
from functools import partial

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.collector import DataCollector, SessionConfig
from repro.engine.cache import StageCache
from repro.experiments.bench import Suite, best_of, lab_split, violations
from repro.experiments.datasets import standard_scene

#: Per-suite workload sizes.  Smoke is sized for CI; full is the
#: committed reference workload sweeping trace lengths so the
#: trace-proportional batch latency is visible against the bounded
#: streaming one.
_SIZES = {
    "smoke": {
        "train_repetitions": 4,
        "train_packets": 8,
        "trace_lengths": (48,),
        "repeats": 3,
    },
    "full": {
        "train_repetitions": 6,
        "train_packets": 10,
        "trace_lengths": (60, 120, 200),
        "repeats": 3,
    },
}


def _workload(sizes: dict):
    """A fitted pipeline plus a collector for test traces of any length."""
    materials, train, _ = lab_split(
        sizes["train_repetitions"], sizes["train_packets"]
    )
    wimi = WiMi(theory_reference_omegas(materials)).fit(train)
    collector = DataCollector(standard_scene("lab"), rng=1)
    return wimi, collector, default_catalog().get("pepsi")


def _stream_once(wimi: WiMi, session) -> dict:
    """One cold streaming replay; returns its timing breakdown."""
    view = wimi.clone_view(cache=StageCache())
    stream = view.streaming_extractor(
        scene=session.scene, material_name=session.material_name
    )
    t_base = time.perf_counter()
    stream.push_baseline(session.baseline)
    baseline_ingest_s = time.perf_counter() - t_base
    t0 = time.perf_counter()
    first_s = None
    first_packets = 0
    worst_step_s = 0.0
    for index, packet in enumerate(session.target.packets):
        t_step = time.perf_counter()
        stream.push_target(packet)
        estimate = stream.estimate()
        worst_step_s = max(worst_step_s, time.perf_counter() - t_step)
        if first_s is None and estimate.ready:
            first_s = time.perf_counter() - t0
            first_packets = index + 1
    t_fin = time.perf_counter()
    result = stream.finalize()
    finalize_s = time.perf_counter() - t_fin
    return {
        "baseline_ingest_s": baseline_ingest_s,
        "time_to_first_estimate_s": (
            first_s if first_s is not None else float("inf")
        ),
        "first_estimate_packets": first_packets,
        "last_window_ms": worst_step_s * 1000.0,
        "finalize_s": finalize_s,
        "stream_total_s": time.perf_counter() - t0,
        "label": result.label,
        "confidence": result.estimate.confidence,
    }


def bench_length(wimi: WiMi, collector, material, length: int,
                 repeats: int) -> dict:
    """Streaming vs batch on one trace length (best-of ``repeats``)."""
    session = collector.collect(
        material, SessionConfig(num_packets=length)
    )

    def run_batch() -> str:
        return wimi.clone_view(cache=StageCache()).identify(session)

    batch_label = run_batch()
    batch_s = best_of(run_batch, repeats)
    best = min(
        (_stream_once(wimi, session) for _ in range(max(1, repeats))),
        key=lambda attempt: attempt["time_to_first_estimate_s"],
    )
    first = best["time_to_first_estimate_s"]
    return {
        "packets": length,
        "batch_identify_s": batch_s,
        "baseline_ingest_s": best["baseline_ingest_s"],
        "time_to_first_estimate_s": first,
        "first_estimate_packets": best["first_estimate_packets"],
        "last_window_ms": best["last_window_ms"],
        "finalize_s": best["finalize_s"],
        "stream_total_s": best["stream_total_s"],
        "speedup_first_estimate": (
            batch_s / first if first > 0 else float("inf")
        ),
        "predictions_identical": best["label"] == batch_label,
        "label": best["label"],
    }


def _cases(sizes: dict):
    wimi, collector, material = _workload(sizes)
    for length in sizes["trace_lengths"]:
        yield f"stream_len{length}", partial(
            bench_length, wimi, collector, material, length, sizes["repeats"]
        )


def check(results: dict, mode: str) -> list[str]:
    """Trace lengths whose streaming label differs from the batch one."""
    return violations(results, [
        (name, lambda e: e["predictions_identical"],
         "streaming label {label!r} differs from the batch one")
        for name in results
    ])


def render(results: dict) -> list[str]:
    lines = [
        f"  {'benchmark':<16} {'batch':>9} {'1st est':>9} "
        f"{'finalize':>9} {'step max':>9} {'match':>6}"
    ]
    for name, data in results.items():
        match = "yes" if data["predictions_identical"] else "NO"
        lines.append(
            f"  {name:<16} {data['batch_identify_s']:>8.3f}s "
            f"{data['time_to_first_estimate_s']:>8.3f}s "
            f"{data['finalize_s']:>8.3f}s "
            f"{data['last_window_ms']:>7.2f}ms {match:>6}"
        )
        lines.append(
            f"    first estimate after {data['first_estimate_packets']} "
            f"packets, {data['speedup_first_estimate']:.1f}x ahead of "
            "batch"
        )
    return lines


SUITE = Suite(
    name="stream",
    title="streaming time-to-first-estimate vs batch latency",
    sizes=_SIZES,
    cases=_cases,
    output="BENCH_PR8.json",
    check=check,
    render=render,
    gated_fields=("time_to_first_estimate_s", "finalize_s"),
    max_regression=3.0,
)
