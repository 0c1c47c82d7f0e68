"""The ``perf`` suite of ``repro bench``: vectorised kernels vs references.

Times the hot paths this codebase vectorised -- batched wavelet
denoising, the CSI simulator, batched feature extraction, SMO training,
the end-to-end identification sweep and the online serving layer --
against their in-tree scalar references (``_reference_*``), so the
report (``BENCH_PR4.json``) carries both absolute timings and the
speedup the vectorised kernels deliver.

:func:`check` verifies on every run that the two implementations still
agree numerically, to DESIGN.md §9's scalar-reference tolerance
(:data:`EQUIVALENCE_TOLERANCE`): denoise/simulate/extract differences,
SMO prediction agreement, served labels equal to the sequential ones,
and one denoiser call per distinct packet count in the cold
``extract_batch`` (the stacked pass).  The baseline gate fails a run
whose ``new_s`` exceeds twice the committed smoke/full number.

Latency percentiles and the batching/cache dashboard of the serving
benchmark come from the same :mod:`repro.serve.metrics` instruments the
service exports at runtime -- the benchmark reads the service snapshot
rather than keeping its own sample buffers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial

import numpy as np

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.simulator import CsiSimulator
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.cache import StageCache
from repro.experiments.bench import (
    Suite,
    best_of,
    lab_split,
    speedup_table,
    stage_cache_table,
    violations,
)
from repro.experiments.datasets import standard_scene
from repro.experiments.runner import mean_accuracy_over_seeds
from repro.ml.svm import BinarySVC

#: Largest vectorised-vs-reference difference :func:`check` accepts.
EQUIVALENCE_TOLERANCE = 1e-9

#: Per-suite workload sizes.  Smoke is sized for CI (seconds overall but
#: still >= tens of milliseconds per benchmark, so a 2x gate is not
#: dominated by timer noise); full is the committed reference workload.
_SIZES = {
    "smoke": {
        "denoise_len": 128,
        "sim_packets": 60,
        "extract_repetitions": 4,
        "extract_packets": 8,
        "train_samples": 60,
        "identify_seeds": (0,),
        "identify_repetitions": 4,
        "identify_packets": 6,
        "serve_repeat": 2,
        "workers": 2,
        "repeats": 1,
    },
    "full": {
        "denoise_len": 200,
        "sim_packets": 300,
        "extract_repetitions": 6,
        "extract_packets": 10,
        "train_samples": 140,
        "identify_seeds": (0, 1),
        "identify_repetitions": 6,
        "identify_packets": 10,
        "serve_repeat": 4,
        "workers": 2,
        "repeats": 3,
    },
}


@contextmanager
def _scalar_reference_kernels():
    """Swap the vectorised hot paths for their scalar references.

    Used to emulate the pre-vectorisation pipeline for the end-to-end
    benchmarks: the simulator falls back to its per-packet loop and the
    denoiser to per-column 1-D processing.
    """
    orig_capture = CsiSimulator.capture
    orig_denoise = SpatiallySelectiveDenoiser.denoise

    def column_denoise(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._reference_denoise(x)
        out = np.empty_like(x)
        for k in range(x.shape[1]):
            out[:, k] = self._reference_denoise(x[:, k])
        return out

    CsiSimulator.capture = CsiSimulator._reference_capture
    SpatiallySelectiveDenoiser.denoise = column_denoise
    try:
        yield
    finally:
        CsiSimulator.capture = orig_capture
        SpatiallySelectiveDenoiser.denoise = orig_denoise


@contextmanager
def _counted_denoiser_calls():
    """Count ``SpatiallySelectiveDenoiser.denoise`` calls in the block."""
    calls = [0]
    original = SpatiallySelectiveDenoiser.denoise

    def counted(self, x):
        calls[0] += 1
        return original(self, x)

    SpatiallySelectiveDenoiser.denoise = counted
    try:
        yield calls
    finally:
        SpatiallySelectiveDenoiser.denoise = original


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------


def bench_denoise(sizes: dict) -> dict:
    """Batched 2-D denoiser vs the scalar per-column reference.

    Sized like a real trace: 90 channels (30 subcarriers x 3 antennas)
    over the packet counts the paper's sessions actually have -- the
    regime where per-column Python overhead dominates the scalar path.
    """
    rng = np.random.default_rng(0)
    num_samples, num_channels = sizes["denoise_len"], 90
    t = np.arange(num_samples)[:, None]
    x = 1.0 + 0.05 * np.sin(2 * np.pi * t / 64.0 + np.arange(num_channels))
    x += 0.01 * rng.standard_normal(x.shape)
    spikes = rng.random(x.shape) < 0.02
    x[spikes] += rng.standard_normal(int(spikes.sum())) * 5.0

    denoiser = SpatiallySelectiveDenoiser()
    batched = denoiser.denoise(x)
    reference = np.column_stack(
        [denoiser._reference_denoise(x[:, k]) for k in range(num_channels)]
    )
    new_s = best_of(lambda: denoiser.denoise(x), sizes["repeats"])
    baseline_s = best_of(
        lambda: [
            denoiser._reference_denoise(x[:, k]) for k in range(num_channels)
        ],
        sizes["repeats"],
    )
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_abs_diff": float(np.max(np.abs(batched - reference))),
        "shape": [num_samples, num_channels],
    }


def bench_simulate(sizes: dict) -> dict:
    """Vectorised simulator capture vs the per-packet reference loop."""
    catalog = default_catalog()
    water = catalog.get("pure_water")
    scene = standard_scene("lab")
    packets = sizes["sim_packets"]

    def run_new():
        return CsiSimulator(scene, rng=0).capture(water, packets)

    def run_reference():
        return CsiSimulator(scene, rng=0)._reference_capture(water, packets)

    new_csi = run_new().matrix()
    ref_csi = run_reference().matrix()
    scale = float(np.max(np.abs(ref_csi)))
    new_s = best_of(run_new, sizes["repeats"])
    baseline_s = best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_rel_diff": float(np.max(np.abs(new_csi - ref_csi)) / scale),
        "packets": packets,
    }


def _extract_workload(sizes: dict):
    materials, train, test = lab_split(
        sizes["extract_repetitions"], sizes["extract_packets"]
    )
    return WiMi(theory_reference_omegas(materials)).fit(train), test


def bench_extract_batch(sizes: dict) -> dict:
    """Batched extraction vs per-session extraction on scalar kernels.

    Also records how many denoiser calls the cold batch made: one per
    distinct packet count when the stacked pass works.
    """
    wimi, test = _extract_workload(sizes)

    def run_new():
        return wimi.clone_view(cache=StageCache()).extract_batch(test)

    def run_reference():
        view = wimi.clone_view(cache=StageCache())
        with _scalar_reference_kernels():
            return [view.extract(s) for s in test]

    with _counted_denoiser_calls() as calls:
        new_features = run_new()
    ref_features = run_reference()
    max_diff = max(
        abs(a.omega_mean - b.omega_mean)
        for a, b in zip(new_features, ref_features)
    )
    new_s = best_of(run_new, sizes["repeats"])
    baseline_s = best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "max_omega_diff": float(max_diff),
        "sessions": len(test),
        "denoiser_calls": calls[0],
        "packet_counts": len(
            {len(t) for s in test for t in (s.baseline, s.target)}
        ),
    }


def bench_train(sizes: dict) -> dict:
    """SMO with Gram cache + vectorised errors vs the reference loop."""
    rng = np.random.default_rng(0)
    n = sizes["train_samples"]
    half = n // 2
    x = np.vstack(
        [
            rng.normal(0.0, 1.0, size=(half, 4)),
            rng.normal(3.0, 1.0, size=(n - half, 4)),
        ]
    )
    y = np.concatenate([-np.ones(half), np.ones(n - half)])

    new_svc = BinarySVC().fit(x, y)
    ref_svc = BinarySVC()._reference_fit(x, y)
    agreement = float(np.mean(new_svc.predict(x) == ref_svc.predict(x)))
    new_s = best_of(lambda: BinarySVC().fit(x, y), sizes["repeats"])
    baseline_s = best_of(
        lambda: BinarySVC()._reference_fit(x, y), sizes["repeats"]
    )
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "train_agreement": agreement,
        "samples": n,
    }


def bench_identify(sizes: dict) -> dict:
    """End-to-end identification sweep, vectorised vs scalar kernels.

    The new path is the shipped one (vectorised simulator + batched
    denoiser + one shared stage cache across seeds); the baseline runs
    the same sweep on the scalar reference kernels without cache
    sharing, emulating the pre-vectorisation pipeline.
    """
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "vinegar")]
    seeds = list(sizes["identify_seeds"])
    kwargs = dict(
        repetitions=sizes["identify_repetitions"],
        num_packets=sizes["identify_packets"],
    )

    def run_new():
        return mean_accuracy_over_seeds(materials, seeds, **kwargs)

    def run_reference():
        with _scalar_reference_kernels():
            return [
                mean_accuracy_over_seeds(
                    materials, [s], cache=StageCache(), **kwargs
                )[0]
                for s in seeds
            ]

    new_mean, new_accs = run_new()
    run_reference()
    new_s = best_of(run_new, sizes["repeats"])
    baseline_s = best_of(run_reference, sizes["repeats"])
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "mean_accuracy": new_mean,
        "seeds": len(seeds),
    }


def bench_serve(sizes: dict) -> dict:
    """Online service throughput vs sequential cold-cache requests.

    Latency percentiles, the batch-size distribution, the request and
    cache-tier counters and the per-stage hit rates are read from the
    service's own metrics snapshot.
    """
    from repro.serve import IdentificationService, ServiceConfig

    wimi, test = _extract_workload(sizes)
    workload = [s for _ in range(sizes["serve_repeat"]) for s in test]

    t0 = time.perf_counter()
    sequential = [
        wimi.clone_view(cache=StageCache()).identify(s) for s in workload
    ]
    baseline_s = time.perf_counter() - t0

    service = IdentificationService(
        wimi, ServiceConfig(num_workers=sizes["workers"], max_batch_size=8)
    )
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        served = [h.result(timeout=60.0) for h in handles]
    new_s = time.perf_counter() - t0

    snap = service.snapshot()
    latency = snap["histograms"]["latency_ms"]
    batches = snap["histograms"]["batch_size"]
    return {
        "new_s": new_s,
        "baseline_s": baseline_s,
        "speedup": baseline_s / new_s,
        "throughput_rps": len(workload) / new_s,
        "latency_ms": {
            k: latency[k] for k in ("p50", "p95", "p99", "max")
        },
        "predictions_identical": served == sequential,
        "requests": len(workload),
        "batch_size": {
            "count": batches["count"],
            "mean": batches["mean"],
            "buckets": {str(b): n for b, n in batches["buckets"].items()},
        },
        "counters": {
            name: value for name, value in snap["counters"].items()
            if name.startswith(("requests.", "cache."))
        },
        "stage_cache": snap["stage_cache"],
    }


def _cases(sizes: dict):
    for name, bench in (
        ("denoise", bench_denoise),
        ("simulate", bench_simulate),
        ("extract_batch", bench_extract_batch),
        ("train", bench_train),
        ("identify", bench_identify),
        ("serve", bench_serve),
    ):
        yield name, partial(bench, sizes)


def check(results: dict, mode: str) -> list[str]:
    """Vectorised paths that stopped agreeing with their references."""
    tol = EQUIVALENCE_TOLERANCE
    beyond = "exceeds the scalar-reference tolerance"
    return violations(results, (
        ("denoise", lambda e: e["max_abs_diff"] <= tol,
         "max_abs_diff {max_abs_diff:.3g} " + beyond),
        ("simulate", lambda e: e["max_rel_diff"] <= tol,
         "max_rel_diff {max_rel_diff:.3g} " + beyond),
        ("extract_batch", lambda e: e["max_omega_diff"] <= tol,
         "max_omega_diff {max_omega_diff:.3g} " + beyond),
        # Reports older than the stacked denoiser pass lack the count.
        ("extract_batch",
         lambda e: e.get("denoiser_calls", 0) <= e.get("packet_counts", 1),
         "{denoiser_calls} denoiser calls for a batch of "
         "{packet_counts} packet count(s); the stacked pass needs one each"),
        ("train", lambda e: e["train_agreement"] >= 1.0,
         "SMO agrees with the reference on {train_agreement:.1%}"),
        ("serve", lambda e: e["predictions_identical"],
         "served labels differ from the sequential ones"),
    ))


def render(results: dict) -> list[str]:
    lines = speedup_table(results, "new", "baseline")
    serve = results.get("serve")
    if serve:
        latency = serve["latency_ms"]
        lines += [
            f"  serve: {serve['requests']} requests, "
            f"{serve['throughput_rps']:.1f} req/s, predictions identical: "
            f"{'yes' if serve['predictions_identical'] else 'NO'}",
            f"  serve latency ms: p50 {latency['p50']:.2f}  "
            f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}  "
            f"max {latency['max']:.2f}",
        ]
    # The committed BENCH_PR4.json predates the recorded dashboard.
    if serve and "stage_cache" in serve:
        batches, counters = serve["batch_size"], serve["counters"]
        lines += [
            f"  serve batches: {batches['count']} dispatched, mean size "
            f"{batches['mean']:.2f}, size histogram {batches['buckets']}",
            "  serve requests: " + ", ".join(
                f"{counters['requests.' + n]} {n}"
                for n in ("completed", "failed", "rejected", "retries",
                          "expired")
            ),
            "  serve cache tiers: " + ", ".join(
                f"{counters['cache.' + n]} {n.replace('_', ' ')}"
                for n in ("memory_hits", "disk_hits", "misses")
            ),
            "  serve stage cache (shared across workers):",
            *stage_cache_table(serve["stage_cache"]),
        ]
    return lines


SUITE = Suite(
    name="perf",
    title="vectorised kernels vs scalar references",
    sizes=_SIZES,
    cases=_cases,
    output="BENCH_PR4.json",
    check=check,
    render=render,
    gated_fields=("new_s",),
    max_regression=2.0,
)
