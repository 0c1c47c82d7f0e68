"""The ``warm`` suite of ``repro bench``: stage memoization and warm start.

The persistence layer claims a fresh process can answer its first
identify request without retraining, by mounting the artifact store and
loading the trained bundle from the model registry.  The
``warm_start`` case measures that claim on one deployment:

* **cold** -- a new pipeline calibrates + trains on the training
  sessions (populating the store and registry as it goes), then answers
  its first identify request.  This is the pre-PR-6 process-start cost.
* **warm** -- a second pipeline, built with a *fresh memory cache* the
  way a restarted process would be, restores everything from the
  registry and answers the same request from persisted artifacts.

The ``repeat_pass`` case identifies the same test sessions twice on
one memory cache and records per-stage executions vs hits.

:func:`check` fails the run unless both paths produce bit-identical
predictions, the warm path executes **zero** pipeline stages (every
resolution is a disk hit) for a request the cold process already
served, warm start is at least :data:`MIN_WARM_SPEEDUP` times faster,
and the repeat pass re-runs no denoiser stage.  The report is
committed as ``BENCH_PR6.json``; the workload is CI-sized already, so
``smoke`` and ``full`` run the same sizes.
"""

from __future__ import annotations

import time
from functools import partial

from repro.core.config import WiMiConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.engine import StageCounter
from repro.experiments.bench import (
    LAB_LIQUIDS,
    Suite,
    lab_split,
    stage_cache_table,
    violations,
)
from repro.persist.store import ArtifactStore

#: Smallest cold-over-warm speedup :func:`check` accepts.
MIN_WARM_SPEEDUP = 5.0

#: Default root of the artifact store and model registry.
STORE_ROOT = ".wimi-store"

#: Paper-protocol capture sizes, kept small enough for CI.  The store
#: and registry live under ``store_path``.
_SIZES = dict.fromkeys(
    ("smoke", "full"),
    {"seed": 1, "repetitions": 6, "packets": 10, "store_path": STORE_ROOT},
)


def bench_warm_start(materials, train, test, seed: int, root: str) -> dict:
    """Cold fit + first identify vs registry restore + first identify.

    ``root`` should be empty or absent for a true cold start (existing
    content makes the "cold" half warmer than a real first boot,
    understating the speedup, never overstating it).
    """
    store_path, registry_path = f"{root}/store", f"{root}/registry"
    refs = theory_reference_omegas(materials)
    config = WiMiConfig(
        artifact_store_path=store_path, model_registry_path=registry_path
    )

    # ------------------------------------------------------------- cold
    t0 = time.perf_counter()
    cold = WiMi(refs, config)
    cold.fit(train)
    fit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_first = cold.identify(test[0])
    cold_first_s = time.perf_counter() - t0
    cold_rest = cold.identify_batch(test[1:])
    cold.save_to_registry(metrics={"train_sessions": len(train)})

    # ------------------------------------------------------------- warm
    # A fresh memory cache over the now-populated store is exactly the
    # state a restarted process boots into.
    t0 = time.perf_counter()
    warm = WiMi.from_registry(registry_path)
    load_s = time.perf_counter() - t0
    counter = StageCounter()
    warm.engine.add_hook(counter)
    t0 = time.perf_counter()
    warm_first = warm.identify(test[0])
    warm_first_s = time.perf_counter() - t0
    warm_rest = warm.identify_batch(test[1:])

    cold_total_s = fit_s + cold_first_s
    warm_total_s = load_s + warm_first_s
    store_stats = ArtifactStore(store_path).stats()
    return {
        "seed": seed,
        "materials": list(LAB_LIQUIDS),
        "train_sessions": len(train),
        "test_sessions": len(test),
        "cold": {
            "fit_s": fit_s,
            "first_identify_s": cold_first_s,
            "total_s": cold_total_s,
        },
        "warm": {
            "load_s": load_s,
            "first_identify_s": warm_first_s,
            "total_s": warm_total_s,
        },
        "speedup": cold_total_s / warm_total_s if warm_total_s else 0.0,
        "predictions_identical": (
            [cold_first] + cold_rest == [warm_first] + warm_rest
        ),
        "warm_first_stage_executions": dict(counter.executions),
        "warm_disk_hits": dict(counter.disk_hits),
        "store": {
            "entries": store_stats["entries"],
            "bytes": store_stats["bytes"],
        },
    }


def bench_repeat_pass(materials, train, test) -> dict:
    """Identify the test sessions twice on one memory-only cache.

    The repeat pass must be served entirely from the stage cache: zero
    denoiser executions and the same labels.
    """
    wimi = WiMi(theory_reference_omegas(materials))
    counter = StageCounter()
    wimi.engine.add_hook(counter)
    wimi.fit(train)
    first = wimi.identify_batch(test)
    first_denoise = counter.executions.get("amplitude_denoise", 0)
    counter.reset()
    second = wimi.identify_batch(test)
    return {
        "train_sessions": len(train),
        "test_sessions": len(test),
        "first_pass_denoise_executions": first_denoise,
        "repeat_pass_denoise_executions": counter.executions.get(
            "amplitude_denoise", 0
        ),
        "predictions_identical": first == second,
        "stage_cache": wimi.cache.snapshot(),
    }


def _cases(sizes: dict):
    materials, train, test = lab_split(
        sizes["repetitions"], sizes["packets"], sizes["seed"]
    )
    yield "warm_start", partial(
        bench_warm_start, materials, train, test, sizes["seed"],
        str(sizes["store_path"]),
    )
    yield "repeat_pass", partial(bench_repeat_pass, materials, train, test)


def check(results: dict, mode: str) -> list[str]:
    """Warm-start and memoization acceptance criteria."""
    return violations(results, (
        ("warm_start", lambda e: e["predictions_identical"],
         "cold/warm predictions differ"),
        ("warm_start", lambda e: not any(
            e["warm_first_stage_executions"].values()),
         "warm process ran stages {warm_first_stage_executions}"),
        ("warm_start", lambda e: e["speedup"] >= MIN_WARM_SPEEDUP,
         "speedup {speedup:.1f}x is below the warm-start floor"),
        ("repeat_pass", lambda e: e["predictions_identical"],
         "repeat-pass predictions differ"),
        ("repeat_pass", lambda e: not e["repeat_pass_denoise_executions"],
         "repeat pass ran {repeat_pass_denoise_executions} denoiser "
         "stages"),
    ))


def render(results: dict) -> list[str]:
    lines = []
    warm_start = results.get("warm_start")
    if warm_start:
        cold, warm = warm_start["cold"], warm_start["warm"]
        executions = sum(warm_start["warm_first_stage_executions"].values())
        lines += [
            f"  warm_start (seed {warm_start['seed']}, "
            f"{warm_start['train_sessions']} train / "
            f"{warm_start['test_sessions']} test):",
            f"    cold: fit {cold['fit_s']:.3f}s + first identify "
            f"{cold['first_identify_s']:.3f}s = {cold['total_s']:.3f}s",
            f"    warm: load {warm['load_s']:.3f}s + first identify "
            f"{warm['first_identify_s']:.3f}s = {warm['total_s']:.3f}s",
            f"    speedup: {warm_start['speedup']:.1f}x  "
            "predictions identical: "
            f"{'yes' if warm_start['predictions_identical'] else 'NO'}",
            f"    warm first-identify stage executions: {executions} "
            f"(disk hits {sum(warm_start['warm_disk_hits'].values())})",
            f"    store: {warm_start['store']['entries']} entries, "
            f"{warm_start['store']['bytes']} bytes",
        ]
    repeat = results.get("repeat_pass")
    if repeat:
        lines += [
            "  repeat_pass (stage cache):",
            *stage_cache_table(repeat["stage_cache"]),
        ]
        lines.append(
            "    denoiser stage executions: first identify pass "
            f"{repeat['first_pass_denoise_executions']}, repeat pass "
            f"{repeat['repeat_pass_denoise_executions']}; predictions "
            f"identical: {'yes' if repeat['predictions_identical'] else 'NO'}"
        )
    return lines


SUITE = Suite(
    name="warm",
    title="stage memoization and registry warm start",
    sizes=_SIZES,
    cases=_cases,
    output="BENCH_PR6.json",
    check=check,
    render=render,
)
