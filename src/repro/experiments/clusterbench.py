"""The ``cluster`` suite of ``repro bench``: processes vs thread service.

Its two cases answer two questions about :mod:`repro.cluster`; the
answers are committed as ``BENCH_PR7.json``:

1. **Throughput** (``throughput``) -- on a wide re-measurement
   workload (hundreds of distinct sessions, each re-arriving in waves,
   the "many deployed links" regime), does the multi-process cluster
   beat the single-process :class:`repro.serve.IdentificationService`?
   The workload is sized so the aggregate working set exceeds one
   :class:`repro.engine.StageCache` memory tier (default 4096
   entries): the shared in-process cache evicts under LRU churn and
   recomputes every artifact on the next wave, while consistent-hash
   routing keeps each cluster worker's shard inside its own cache --
   the capacity of the sharded tier scales with workers.  Both systems
   run memory-only with identical per-worker cache capacity, batch
   policy and worker count; the speedup is architectural, not a config
   handicap.
2. **Kill survival** (``kill_survival``) -- with requests in flight,
   one worker process is SIGKILLed.  The orchestrator must restart it,
   redeliver the lost requests, and every prediction must match
   single-process serving exactly (zero lost requests).

The smoke preset (``--smoke``) shrinks the workload below the eviction
threshold so it fits CI; in that regime the shared cache never thrashes
and the cluster's IPC tax makes the speedup meaningless, so only the
correctness and survival gates of :func:`check` apply (the report
records the regime either way).
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
from functools import partial
from pathlib import Path

from repro.channel.materials import default_catalog
from repro.cluster import ClusterClient, ClusterConfig
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.engine import StageCache
from repro.experiments.bench import LAB_LIQUIDS, Suite, violations
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.serve import IdentificationService, ServiceConfig

#: Full-run workload: 150 repetitions x 3 materials = 450 distinct
#: sessions x ~13 cached artifacts each comfortably exceeds one
#: 4096-entry memory tier while each of 2 shards stays inside its own.
#: The smoke workload (12 repetitions) is below the eviction threshold
#: by design.
_SIZES = {
    mode: {"seed": 1, "workers": 2, "repetitions": reps, "packets": 6,
           "waves": 2}
    for mode, reps in (("smoke", 12), ("full", 150))
}

#: Kill phase: per-request service time floor that guarantees requests
#: are still in flight when the SIGKILL lands.
KILL_THROTTLE_S = 0.05
KILL_REQUESTS = 24


def flatten(dataset: dict) -> list:
    return [s for sessions in dataset.values() for s in sessions]


def deploy(seed: int, repetitions: int, num_packets: int, root=None):
    """``(wimi, bench sessions, root)``: a fitted pipeline saved to the
    registry under ``root`` (a fresh temp directory when None), which
    also hosts per-worker store shards."""
    catalog = default_catalog()
    materials = [catalog.get(name) for name in LAB_LIQUIDS]
    train = flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=4,
        num_packets=num_packets, seed=seed,
    ))
    bench = flatten(collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=num_packets, seed=seed + 6,
    ))
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)
    root = Path(root) if root else Path(tempfile.mkdtemp())
    wimi.save_to_registry(root / "registry", name="wimi")
    return wimi, bench, root


def bench_throughput(wimi, bench, root: Path, sizes: dict) -> dict:
    """The same re-measurement workload through the service and cluster."""
    workers = sizes["workers"]
    # Every distinct session arrives once per wave (wave k repeats only
    # after every session arrived k times, the worst case for a shared
    # LRU).
    workload = list(bench) * sizes["waves"]
    capacity = len(workload) + 8

    service = IdentificationService(
        wimi.clone_view(cache=StageCache()),
        ServiceConfig(
            queue_capacity=capacity, max_batch_size=8, num_workers=workers,
        ),
    )
    t0 = time.perf_counter()
    with service:
        handles = [service.submit(s) for s in workload]
        service_preds = [h.result(timeout=600.0) for h in handles]
    service_s = time.perf_counter() - t0
    service_counters = service.snapshot()["counters"]

    config = ClusterConfig(
        num_workers=workers, queue_capacity=capacity, max_batch_size=8,
        boot_timeout_s=120.0,
    )
    client = ClusterClient(root / "registry", config=config)
    client.start()
    t0 = time.perf_counter()
    handles = client.submit_many(workload, timeout=None)
    cluster_preds = [h.result(timeout=600.0) for h in handles]
    cluster_s = time.perf_counter() - t0
    client.stop()
    snap = client.snapshot()
    cluster_counters = snap["cluster"]["counters"]
    merged_counters = snap["merged"]["counters"]
    return {
        "seed": sizes["seed"],
        "materials": list(LAB_LIQUIDS),
        "workers": workers,
        "distinct_sessions": len(bench),
        "waves": sizes["waves"],
        "requests": len(workload),
        "num_packets": sizes["packets"],
        # ~13 cached artifacts per session vs one 4096-entry tier.
        "eviction_regime": len(bench) * 13 > 4096,
        "service": {
            "seconds": service_s,
            "requests_per_s": len(workload) / service_s,
            "memory_hits": service_counters["cache.memory_hits"],
            "misses": service_counters["cache.misses"],
        },
        "cluster": {
            "seconds": cluster_s,
            "requests_per_s": len(workload) / cluster_s,
            "memory_hits": merged_counters.get("cache.memory_hits", 0),
            "misses": merged_counters.get("cache.misses", 0),
            "completed": cluster_counters["requests.completed"],
            "failed": cluster_counters["requests.failed"],
        },
        "speedup": service_s / cluster_s if cluster_s else 0.0,
        "predictions_identical": service_preds == cluster_preds,
    }


def bench_kill_survival(wimi, bench, root: Path, sizes: dict) -> dict:
    """SIGKILL one worker mid-load; every request must still resolve."""
    kill_sessions = (bench * ((KILL_REQUESTS // len(bench)) + 1))[
        :KILL_REQUESTS
    ]
    kill_expected = [str(x) for x in wimi.identify_batch(kill_sessions)]
    kill_config = ClusterConfig(
        num_workers=sizes["workers"],
        queue_capacity=len(bench) * sizes["waves"] + 8, max_batch_size=2,
        boot_timeout_s=120.0, throttle_s=KILL_THROTTLE_S,
    )
    kill_client = ClusterClient(
        root / "registry", config=kill_config, store_root=root / "stores"
    )
    kill_client.start()
    handles = kill_client.submit_many(kill_sessions, timeout=None)
    # The throttle guarantees the load is still in flight well past
    # this point; kill shard 0's process while it serves.
    time.sleep(KILL_THROTTLE_S * 4)
    victim_pid = kill_client.orchestrator._slots[0].process.pid
    os.kill(victim_pid, signal.SIGKILL)
    kill_preds = [h.result(timeout=600.0) for h in handles]
    kc = kill_client.snapshot()["cluster"]["counters"]
    kill_client.stop()
    return {
        "requests": len(kill_sessions),
        "killed_pid": victim_pid,
        "restarts": kc["cluster.restarts"],
        "redeliveries": kc["cluster.redeliveries"],
        "completed": kc["requests.completed"],
        "failed": kc["requests.failed"],
        "duplicate_replies": kc["cluster.duplicate_replies"],
        "zero_lost": (
            kc["requests.completed"] == len(kill_sessions)
            and kc["requests.failed"] == 0
        ),
        "predictions_identical": kill_preds == kill_expected,
    }


def _cases(sizes: dict):
    with tempfile.TemporaryDirectory() as root:
        deployment = deploy(
            sizes["seed"], sizes["repetitions"], sizes["packets"], root
        )
        yield "throughput", partial(bench_throughput, *deployment, sizes)
        yield "kill_survival", partial(
            bench_kill_survival, *deployment, sizes
        )


def check(results: dict, mode: str) -> list[str]:
    """Cluster correctness and kill-survival acceptance criteria."""
    return violations(results, (
        ("throughput", lambda e: e["predictions_identical"],
         "cluster predictions diverge from single-process serving"),
        ("kill_survival", lambda e: e["restarts"] >= 1,
         "SIGKILLed worker never restarted"),
        ("kill_survival", lambda e: e["zero_lost"],
         "requests lost across the crash"),
        ("kill_survival", lambda e: e["predictions_identical"],
         "crash changed predictions"),
    ))


def render(results: dict) -> list[str]:
    lines = []
    thr = results.get("throughput")
    if thr:
        svc, cl = thr["service"], thr["cluster"]
        lines += [
            f"  throughput: {thr['requests']} requests "
            f"({thr['distinct_sessions']} distinct sessions x"
            f"{thr['waves']} waves, seed {thr['seed']}), "
            f"{thr['workers']} workers",
            f"    single-process service: {svc['seconds']:.2f}s "
            f"({svc['requests_per_s']:7.1f} req/s)  "
            f"{svc['memory_hits']} memory hits / {svc['misses']} misses",
            f"    cluster ({thr['workers']} processes): "
            f"{cl['seconds']:.2f}s ({cl['requests_per_s']:7.1f} req/s)  "
            f"{cl['memory_hits']} memory hits / {cl['misses']} misses",
            f"    speedup: {thr['speedup']:.2f}x  predictions identical: "
            f"{'yes' if thr['predictions_identical'] else 'NO'}",
        ]
        if not thr["eviction_regime"]:
            lines.append(
                "    (smoke regime: working set fits one cache; speedup "
                "not meaningful)"
            )
    kill = results.get("kill_survival")
    if kill:
        lines += [
            f"  kill_survival: {kill['requests']} requests, worker pid "
            f"{kill['killed_pid']} SIGKILLed mid-load",
            f"    restarts {kill['restarts']}, redeliveries "
            f"{kill['redeliveries']}, completed {kill['completed']}, "
            f"failed {kill['failed']}, duplicates "
            f"{kill['duplicate_replies']}",
            f"    zero lost: {'yes' if kill['zero_lost'] else 'NO'}  "
            "predictions identical: "
            f"{'yes' if kill['predictions_identical'] else 'NO'}",
        ]
    return lines


SUITE = Suite(
    name="cluster",
    title="multi-process cluster vs single-process service",
    sizes=_SIZES,
    cases=_cases,
    output="BENCH_PR7.json",
    check=check,
    render=render,
)
