"""The ``precision`` suite of ``repro bench``: float32 vs float64 paths.

Times the float32 compute paths against the default float64 ones over
the hot kernels -- the batched wavelet denoiser, the simulator compute
pass and the shared RBF Gram -- and runs the paper's identification
scenario end to end at both precisions on the *same* captured dataset
to verify that dropping to float32 costs no accuracy.  A fifth
benchmark measures the allocation footprint of ring-buffer window
assembly against the list-of-arrays scheme it replaced, via
``tracemalloc``.

The committed report (``BENCH_PR9.json``) is both the performance
record required of the low-precision work (full-suite kernel speedups
of at least :data:`MIN_KERNEL_SPEEDUP`) and the CI gate: a run fails
on any :func:`check` violation -- float32 end-to-end accuracy
below float64, ring-buffer assembly allocating more than the list
path, or (full mode only) a kernel speedup under the floor -- and on
any ``new_s`` more than twice the committed one.

Numerical tolerances and their rationale (quantiser boundary flips,
float32 rounding, where float64 accumulation is retained) are
documented in DESIGN.md §14.

Timings here compare *precisions* of one implementation, not
implementations: ``baseline_s`` is the float64 (or list-of-arrays)
path and ``new_s`` the float32 (or ring-buffer) path.
"""

from __future__ import annotations

import time
import tracemalloc
from functools import partial

import numpy as np

from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.csi.simulator import CsiSimulator
from repro.dsp.ringbuffer import RowRingBuffer
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.experiments.bench import (
    Suite,
    best_of,
    lab_split,
    speedup_table,
)
from repro.experiments.datasets import standard_scene
from repro.experiments.runner import fit_and_score
from repro.ml.kernels import pairwise_sq_dists, rbf_from_sq_dists

#: Required full-suite float32 speedup on the three compute kernels.
#: Sized from the measured wins at the paper-realistic workloads; the
#: smoke suite is too small for stable ratios and is not held to it.
MIN_KERNEL_SPEEDUP = 1.3

#: Benchmarks whose full-suite speedup must clear the floor.
_KERNEL_BENCHMARKS = ("denoise", "simulate", "gram")

#: Per-suite workload sizes.  The full sizes are the ones the committed
#: speedups were measured at: the denoiser at the paper's 200-packet
#: session shape (larger traces fall into the double-only FFT path and
#: the win shrinks), the simulator at a realistic capture burst, the
#: Gram at a training-set scale where sgemm dominates.
_SIZES = {
    "smoke": {
        "denoise_len": 128,
        "sim_packets": 60,
        "gram_samples": 200,
        "gram_features": 16,
        "identify_repetitions": 6,
        "identify_packets": 8,
        "ring_rows": 512,
        "ring_channels": 90,
        "ring_window": 16,
        "repeats": 1,
    },
    "full": {
        "denoise_len": 200,
        "sim_packets": 300,
        "gram_samples": 800,
        "gram_features": 64,
        "identify_repetitions": 8,
        "identify_packets": 10,
        "ring_rows": 2048,
        "ring_channels": 90,
        "ring_window": 16,
        "repeats": 3,
    },
}


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def bench_denoise(sizes: dict) -> dict:
    """Batched denoiser: float32 working precision vs float64.

    Same trace-shaped workload as the perf suite's denoiser benchmark
    (packets x 90 channels); the float32 run feeds float32 input so no
    hidden upcast re-widens the intermediates.
    """
    rng = np.random.default_rng(0)
    num_samples, num_channels = sizes["denoise_len"], 90
    t = np.arange(num_samples)[:, None]
    x = 1.0 + 0.05 * np.sin(2 * np.pi * t / 64.0 + np.arange(num_channels))
    x += 0.01 * rng.standard_normal(x.shape)
    x32 = x.astype(np.float32)

    d64 = SpatiallySelectiveDenoiser(precision="float64")
    d32 = SpatiallySelectiveDenoiser(precision="float32")
    out64 = d64.denoise(x)
    out32 = d32.denoise(x32)
    scale = float(np.max(np.abs(out64)))
    baseline_s = best_of(lambda: d64.denoise(x), sizes["repeats"])
    new_s = best_of(lambda: d32.denoise(x32), sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "output_dtype": str(out32.dtype),
        "max_rel_diff": float(np.max(np.abs(out32 - out64)) / scale),
        "shape": [num_samples, num_channels],
    }


def bench_simulate(sizes: dict) -> dict:
    """Simulator compute pass: float32 vs float64 working precision.

    The RNG draw pass is float64 at either precision (same seed, same
    randomness), so the diff below is pure compute-pass rounding plus
    int8 quantiser boundary flips -- see DESIGN.md §14.
    """
    catalog = default_catalog()
    water = catalog.get("pure_water")
    scene = standard_scene("lab")
    packets = sizes["sim_packets"]

    def run(precision):
        return CsiSimulator(scene, rng=0, precision=precision).capture(
            water, packets
        )

    csi64 = run("float64").matrix()
    csi32 = run("float32").matrix()
    scale = float(np.max(np.abs(csi64)))
    baseline_s = best_of(lambda: run("float64"), sizes["repeats"])
    new_s = best_of(lambda: run("float32"), sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_rel_diff": float(np.max(np.abs(csi32 - csi64)) / scale),
        "packets": packets,
    }


def bench_gram(sizes: dict) -> dict:
    """Shared RBF Gram: float32 sgemm expansion vs float64 dgemm.

    This is the matrix :class:`repro.ml.multiclass._SharedGram` hands
    to the SMO solver (which always re-accumulates in float64); the
    benchmark times the expansion itself.
    """
    rng = np.random.default_rng(0)
    n, d = sizes["gram_samples"], sizes["gram_features"]
    x = rng.normal(size=(n, d))
    gamma = 1.0 / d

    def run(dtype):
        return rbf_from_sq_dists(pairwise_sq_dists(x, x, dtype=dtype), gamma)

    g64 = run(None)
    g32 = run(np.float32)
    baseline_s = best_of(lambda: run(None), sizes["repeats"])
    new_s = best_of(lambda: run(np.float32), sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_abs_diff": float(np.max(np.abs(g32.astype(float) - g64))),
        "shape": [n, d],
    }


def bench_identify_accuracy(sizes: dict) -> dict:
    """Paper scenario end to end at both precisions, same dataset.

    One dataset is collected once (capture is part of the benchmark
    harness, not the system under test here), then trained and scored
    twice -- ``compute_precision="float64"`` and ``"float32"`` -- so
    the only difference is the pipeline's working precision.  The CI
    gate requires float32 accuracy to be no lower than float64's.
    """
    materials, train, test = lab_split(
        sizes["identify_repetitions"], sizes["identify_packets"]
    )
    labels = [m.name for m in materials]

    def run(precision):
        config = WiMiConfig(compute_precision=precision)
        return fit_and_score(train, test, labels, materials, config=config)

    t0 = time.perf_counter()
    result64 = run("float64")
    baseline_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result32 = run("float32")
    new_s = time.perf_counter() - t0
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "accuracy_float64": result64.accuracy,
        "accuracy_float32": result32.accuracy,
        "accuracy_ok": result32.accuracy >= result64.accuracy,
        "sessions": len(train) + len(test),
    }


def _emit_list(kept: list, window: int, hop: int) -> float:
    """List-of-arrays emission: ``np.stack`` a fresh block per window."""
    total = 0.0
    for start in range(0, len(kept) - window + 1, hop):
        block = np.stack(kept[start : start + window])
        total += float(block[0, 0])
    return total


def _emit_ring(buffer: RowRingBuffer, window: int, hop: int) -> float:
    """Ring-buffer emission: every window is a zero-copy arena view."""
    total = 0.0
    for start in range(0, len(buffer) - window + 1, hop):
        block = buffer.window(start, start + window)
        total += float(block[0, 0])
    return total


def bench_ring_buffer(sizes: dict) -> dict:
    """Allocation peak of window *assembly*: arena views vs np.stack.

    Ingest is identical work in both schemes (each retains every raw
    row) and is done before tracing starts; what the streaming refactor
    changed is how a denoise window is materialised per emission.  The
    old scheme stacks ``window`` rows into a fresh block for every
    overlapping window (hop < window, as the streaming extractor runs);
    the ring buffer hands out a contiguous read-only view of its arena.
    ``tracemalloc`` therefore sees the old scheme peak at one stacked
    block per emission while the ring scheme allocates essentially
    nothing -- the "zero" in zero-copy, as a number.
    """
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(sizes["ring_rows"], sizes["ring_channels"]))
    window, hop = sizes["ring_window"], max(1, sizes["ring_window"] // 4)

    kept = [np.array(row) for row in rows]
    buffer = RowRingBuffer(rows.shape[1], dtype=rows.dtype)
    for row in rows:
        buffer.append(row)

    def traced(fn, state):
        tracemalloc.start()
        t0 = time.perf_counter()
        fn(state, window, hop)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return elapsed, peak

    baseline_s, list_peak = traced(_emit_list, kept)
    new_s, ring_peak = traced(_emit_ring, buffer)
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "ring_peak_bytes": int(ring_peak),
        "list_peak_bytes": int(list_peak),
        "peak_ratio": ring_peak / list_peak,
        "peak_ok": ring_peak < list_peak,
        "rows": int(rows.shape[0]),
        "windows": int((rows.shape[0] - window) // hop + 1),
    }


def check(results: dict, mode: str) -> list[str]:
    """Hard-gate violations in a suite run (empty list = all good).

    Always enforced: float32 end-to-end accuracy must not fall below
    float64 on the paper scenario, and ring-buffer assembly must peak
    below the list-of-arrays scheme.  Full mode additionally holds the
    three compute kernels to :data:`MIN_KERNEL_SPEEDUP`.
    """
    failures = []
    accuracy = results.get("identify_accuracy")
    if accuracy and not accuracy["accuracy_ok"]:
        failures.append(
            "float32 end-to-end accuracy "
            f"{accuracy['accuracy_float32']:.3f} fell below float64 "
            f"{accuracy['accuracy_float64']:.3f}"
        )
    ring = results.get("ring_buffer")
    if ring and not ring["peak_ok"]:
        failures.append(
            f"ring-buffer allocation peak {ring['ring_peak_bytes']} B is "
            f"not below the list-of-arrays peak {ring['list_peak_bytes']} B"
        )
    if mode == "full":
        for name in _KERNEL_BENCHMARKS:
            data = results.get(name)
            if data and data["speedup"] < MIN_KERNEL_SPEEDUP:
                failures.append(
                    f"{name} float32 speedup {data['speedup']:.2f}x is "
                    f"below the {MIN_KERNEL_SPEEDUP:.1f}x floor"
                )
    return failures


def _cases(sizes: dict):
    for name, bench in (
        ("denoise", bench_denoise),
        ("simulate", bench_simulate),
        ("gram", bench_gram),
        ("identify_accuracy", bench_identify_accuracy),
        ("ring_buffer", bench_ring_buffer),
    ):
        yield name, partial(bench, sizes)


def render(results: dict) -> list[str]:
    lines = speedup_table(results, "f32", "f64")
    accuracy = results.get("identify_accuracy")
    if accuracy:
        lines.append(
            f"  accuracy: float64 {accuracy['accuracy_float64']:.3f}, "
            f"float32 {accuracy['accuracy_float32']:.3f}"
        )
    ring = results.get("ring_buffer")
    if ring:
        lines.append(
            f"  alloc peak: ring {ring['ring_peak_bytes']} B vs list "
            f"{ring['list_peak_bytes']} B "
            f"({ring['peak_ratio']:.2f}x)"
        )
    return lines


SUITE = Suite(
    name="precision",
    title="float32 compute paths vs float64 baselines",
    sizes=_SIZES,
    cases=_cases,
    output="BENCH_PR9.json",
    check=check,
    render=render,
    gated_fields=("new_s",),
    max_regression=2.0,
)
