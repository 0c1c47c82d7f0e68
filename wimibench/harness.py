"""WiMi benchmark workloads: set-up, measured phases, traced phases.

Every workload drives ``repro`` through its public API only, checks
every label against reference labels computed in set-up by a plain
``WiMi.identify_batch`` on a private cache, and returns one result
record.  With ``trace=False`` the record carries the end-to-end metrics
(tracing off); with ``trace=True`` it carries the per-layer metrics of a
separate traced run (see :mod:`tracing`).

Timing rule.  CPU speed on a shared host drifts by up to 2x within
seconds, so a time taken over a long phase measures the neighbours as
much as the program.  Every throughput metric is therefore timed over
many short units (a batch of 16 sessions, a burst of 16 requests) spread
across the run.  A batch, a store pass or a unit served from the
memory tier reports its fastest unit: the speed the program reaches
whenever the host's contention lapses, which it does in every run,
while the median follows the host's drift.  A cold burst through a
serving front reports its median burst: its two worker threads and the
load generator share the host's cores, so the fastest burst is an
outlier of thread scheduling.  Set-up is timed several times, spread
evenly over the run, and its median is reported.  See README.md.
"""

from __future__ import annotations

import os
import random
import shutil
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import StageCache, WiMi, default_catalog
from repro.cluster import ClusterClient
from repro.core.feature import theory_reference_omegas
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.persist import ArtifactStore
from repro.serve import IdentificationService

from loadgen import Ledger, burst, median, open_loop, percentile
from tracing import ENGINE_STAGES, TIERS, Tracer

#: Five of the paper's liquids, 20 packets per trace (paper default),
#: captured in the ``lab`` scene.
LIQUIDS = ("pure_water", "pepsi", "oil", "vinegar", "milk")
PACKETS = 20
SCENE = "lab"

#: Seed offset of the traffic deployment (the training deployment uses
#: the run's seed itself).
TRAFFIC_SEED_OFFSET = 7919

#: Open-loop traffic: about this share of requests re-measure a session
#: first sent between REPEAT_AGE_S seconds earlier (memory-tier hits);
#: the rest are sessions never seen (compute).
REPEAT_SHARE = 0.5
REPEAT_AGE_S = (1.0, 5.0)

#: The traced run's layer self times must add up to each traced unit's
#: wall-clock time within this share.
SELF_TIME_TOLERANCE = 0.05

#: Grace for cluster workers' last heartbeat before a snapshot is read.
HEARTBEAT_GRACE_S = 0.3


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, tests shrink them.

    ``burst_size`` equals the burst window: one full micro-batch (8) per
    default worker, well below the default ``queue_capacity`` (64), so a
    burst keeps every worker busy without provoking ``QueueFullError``.  The open loop
    sends ``open_rate * open_seconds`` requests: 1100 put at least ten
    samples beyond p99.
    """

    train_reps: int = 6
    setup_repeats: int = 7
    batch_size: int = 16
    batches: int = 16
    burst_size: int = 16
    burst_slices: int = 16
    open_rate: float = 40.0
    open_seconds: float = 27.5
    min_latency_samples: int = 1000


@dataclass
class Result:
    """What one run reports: metrics plus outcome accounting."""

    ledger: Ledger = field(default_factory=Ledger)
    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    checks_ok: bool = True

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def record(self) -> dict:
        return {
            "correct": self.checks_ok and self.ledger.wrong_labels == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": self.metrics,
        }


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------


def _materials():
    catalog = default_catalog()
    return [catalog.get(name) for name in LIQUIDS]


def _interleave(dataset: dict) -> list:
    """Sessions round-robin over materials, so every batch mixes them."""
    columns = list(dataset.values())
    return [s for row in zip(*columns) for s in row]


def collect_traffic(seed: int, count: int) -> list:
    """``count`` seeded sessions from one traffic deployment."""
    reps = -(-count // len(LIQUIDS))
    dataset = collect_dataset(
        _materials(), scene=standard_scene(SCENE), repetitions=reps,
        num_packets=PACKETS, seed=seed + TRAFFIC_SEED_OFFSET,
    )
    return _interleave(dataset)[:count]


class _Cluster:
    """A default-configured cluster booted from a saved registry; the
    boot time is appended to ``boots``."""

    def __init__(self, registry: Path, boots: list[float]):
        self.client = ClusterClient(registry)
        start = time.perf_counter()
        try:
            self.client.start()
        except BaseException:
            self.client.stop(drain=False)
            raise
        boots.append(time.perf_counter() - start)

    def __enter__(self) -> ClusterClient:
        return self.client

    def __exit__(self, *exc) -> None:
        self.client.stop()


@dataclass
class Deployment:
    """The fitted model (and saved registry) plus every set-up's time."""

    wimi: WiMi
    registry: Path | None
    setup_times: list[float]
    boots: list[float]

    @property
    def setup_s(self) -> float:
        return median(self.setup_times)


def _set_up_once(seed: int, sizes: Sizes, workdir: Path, cluster: bool,
                 times: list[float], boots: list[float]):
    """Collect training sessions and fit; for the cluster also save the
    registry and boot the cluster (stopped again outside the timing).
    Appends the time to ``times``; returns the model and registry."""
    materials = _materials()
    start = time.perf_counter()
    train = _interleave(collect_dataset(
        materials, scene=standard_scene(SCENE),
        repetitions=sizes.train_reps, num_packets=PACKETS, seed=seed,
    ))
    wimi = WiMi(theory_reference_omegas(materials)).fit(train)
    registry = None
    if cluster:
        registry = workdir / f"registry-{len(times)}"
        wimi.save_to_registry(registry)
        booted = _Cluster(registry, boots)
    times.append(time.perf_counter() - start)
    if cluster:
        booted.__exit__()
    return wimi, registry


class SetupClock:
    """Times set-up ``repeats`` times in all, spread evenly over the
    measured window, so ``setup_s`` is a median over the whole run
    rather than a snapshot of the host's load at its start.

    The first set-up runs at once and gives the deployment; call
    :meth:`tick` between measured units and :meth:`finish` at the end
    to run the others (same seed, same result; only the time is kept).
    """

    def __init__(self, seed: int, sizes: Sizes, workdir: Path,
                 repeats: int, cluster: bool = False):
        self._again = lambda: _set_up_once(
            seed, sizes, workdir, cluster, self.deployment.setup_times,
            self.deployment.boots)
        times, boots = [], []
        wimi, registry = _set_up_once(seed, sizes, workdir, cluster, times,
                                      boots)
        self.deployment = Deployment(wimi, registry, times, boots)
        self._left = repeats - 1
        self._due: list[float] = []

    def start(self, seconds: float) -> None:
        """Open a measured window of ``seconds``."""
        now = time.perf_counter()
        self._due = [now + seconds * k / (self._left + 1)
                     for k in range(1, self._left + 1)]

    def tick(self) -> None:
        """Run the set-ups that have fallen due."""
        while self._due and time.perf_counter() >= self._due[0]:
            self._due.pop(0)
            self._again()

    def finish(self) -> None:
        """Run the set-ups the window did not reach."""
        for _ in self._due:
            self._again()
        self._due = []


def reference_labels(wimi: WiMi, sessions: list) -> list[str]:
    """The oracle: plain batch identification on a private cache."""
    return wimi.clone_view(cache=StageCache()).identify_batch(sessions)


def _fresh(wimi: WiMi, store: Path | None = None) -> WiMi:
    """A facade over a new, empty memory cache (optionally on a store)."""
    disk = ArtifactStore(store) if store is not None else None
    return wimi.clone_view(cache=StageCache(disk_store=disk))


def _timed_batch(view: WiMi, sessions: list) -> tuple[float, list]:
    start = time.perf_counter()
    labels = view.identify_batch(sessions)
    return time.perf_counter() - start, labels


def _slices(count: int, size: int) -> list[slice]:
    return [slice(k * size, (k + 1) * size) for k in range(count)]


def _rates(result: Result, n: int, unit: str, pick,
           **times: list[float]) -> None:
    """One sessions-per-second metric per keyword, from the unit of
    ``n`` sessions that ``pick`` (``min`` or ``median``) chooses; the
    fastest and the median unit both go to the notes."""
    for name, values in times.items():
        result.metric(name, n / pick(values), "1/s")
        result.notes.append(
            f"{name}: {len(values)} {unit} of {n}, best "
            f"{n / min(values):.1f}/s, median {n / median(values):.1f}/s "
            f"(reported: {pick.__name__})"
        )


# ----------------------------------------------------------------------
# Traced-run helpers
# ----------------------------------------------------------------------


def _zero_layers(result: Result) -> None:
    """Every per-layer metric, at zero until a traced phase adds to it."""
    result.metric("core.self_s", 0, "s")
    for stage in ENGINE_STAGES.values():
        result.metric(f"engine.{stage}.self_s", 0, "s")
        for tier in TIERS:
            result.metric(f"engine.{stage}.{tier}", 0, "count")
    for layer in ("dsp.denoise", "ml.predict", "persist.put", "persist.get"):
        result.metric(f"{layer}.calls", 0, "count")
        result.metric(f"{layer}.busy_s", 0, "s")
    for op in ("put", "get"):
        result.metric(f"persist.{op}.bytes", 0, "bytes")
    for name in ("corrupt", "quarantined"):
        result.metric(f"persist.{name}", 0, "count")
    for prefix in ("serve", "cluster"):
        result.metric(f"{prefix}.submit_s", 0, "s")
        result.metric(f"{prefix}.batch_size", 0, "sessions")
    result.metric("serve.attempts", 0, "count")
    result.metric("serve.worker_busy_s", 0, "s")
    result.metric("serve.memory_hit_share", 0, "share")
    for name in ("rejected", "shed", "expired", "failed"):
        result.metric(f"serve.{name}", 0, "count")
    result.metric("cluster.boot_s", 0, "s")
    for name in ("redeliveries", "hedges", "duplicate_replies", "restarts"):
        result.metric(f"cluster.{name}", 0, "count")
    for tier in TIERS:
        result.metric(f"cluster.cache.{tier}", 0, "count")
    result.metric("open_loop.requests", 0, "count")
    result.metric("open_loop.latency_p50_ms", 0, "ms")
    result.metric("open_loop.latency_p99_ms", 0, "ms")
    result.metric("open_loop.late_p99_ms", 0, "ms")
    result.metric("trace.overhead_s", 0, "s")
    result.metric("trace.overhead_share", 0, "share")
    result.metric("trace.self_time_share", 0, "share")
    result.metric("trace.unattributed_share", 0, "share")


def _add(result: Result, name: str, value: float) -> None:
    result.metrics[name]["value"] += float(value)


def _set(result: Result, name: str, value: float) -> None:
    result.metrics[name]["value"] = float(value)


def _add_layers(result: Result, tracer: Tracer) -> None:
    """Fold one tracer's spans and tier counts into the metrics."""
    totals = tracer.layer_totals()
    if "core" in totals:
        _add(result, "core.self_s", totals["core"]["self_s"])
    for stage in ENGINE_STAGES.values():
        if f"engine.{stage}" in totals:
            _add(result, f"engine.{stage}.self_s",
                 totals[f"engine.{stage}"]["self_s"])
        for tier in TIERS:
            _add(result, f"engine.{stage}.{tier}", tracer.tiers[(stage, tier)])
    for layer in ("dsp.denoise", "ml.predict", "persist.put", "persist.get"):
        if layer in totals:
            _add(result, f"{layer}.calls", totals[layer]["calls"])
            _add(result, f"{layer}.busy_s", totals[layer]["busy_s"])
    for op in ("put", "get"):
        _add(result, f"persist.{op}.bytes", tracer.persist_bytes(op))
    for prefix in ("serve", "cluster"):
        if f"{prefix}.submit" in totals:
            _add(result, f"{prefix}.submit_s",
                 totals[f"{prefix}.submit"]["busy_s"])


def _overhead(result: Result, untraced: list[float],
              traced: list[float]) -> None:
    """Traced minus untraced time of the same unit (fastest of each)."""
    base = min(untraced)
    extra = min(traced) - base
    _set(result, "trace.overhead_s", extra)
    _set(result, "trace.overhead_share", extra / base)
    result.notes.append(
        f"tracing overhead: {extra * 1e3:+.1f} ms on {base * 1e3:.1f} ms "
        f"({extra / base:+.2%})"
    )


def _traced(tracer: Tracer | None):
    return tracer if tracer is not None else nullcontext()


def _batch_workload(result: Result, seconds: float, trace: bool,
                    unit, unit_name: str,
                    limit: int | None = None) -> tuple[list, list]:
    """Run ``unit(prefix, tracer) -> (fill_s, rescan_s)`` for ``seconds``
    (and at most ``limit`` units) and return the untraced units' times.

    Untraced and traced units alternate: per-layer metrics are the mean
    per traced unit, and the self times of the spans on this thread must
    add up to each traced unit's wall time within
    :data:`SELF_TIME_TOLERANCE`.  ``core``'s self time over the wall time
    is the share no engine stage accounts for.
    """
    fill, rescan, traced, shares, unattributed = [], [], [], [], []
    me = threading.get_ident()
    if trace:
        _zero_layers(result)
    per_round = 2 if trace else 1
    end = time.perf_counter() + seconds
    while not fill or (
        time.perf_counter() < end
        and (limit is None or (len(fill) + 1) * per_round <= limit)
    ):
        fill_s, rescan_s = unit("", None)
        fill.append(fill_s)
        rescan.append(rescan_s)
        if trace:
            tracer = Tracer()
            wall = sum(unit("traced_", tracer))
            traced.append(wall)
            shares.append(tracer.self_seconds(me) / wall)
            unattributed.append(tracer.self_seconds(me, "core") / wall)
    if not trace:
        return fill, rescan
    for entry in result.metrics.values():
        entry["value"] /= len(traced)
    _overhead(result, [f + r for f, r in zip(fill, rescan)], traced)
    share = median(shares)
    worst = max(abs(1.0 - s) for s in shares)
    _set(result, "trace.self_time_share", share)
    _set(result, "trace.unattributed_share", median(unattributed))
    result.notes.append(
        f"layer self times / wall over {len(traced)} traced units ({unit_name}): "
        f"median {share:.4f}, worst deviation {worst:.4f} "
        f"(tolerance {SELF_TIME_TOLERANCE}); core self time / wall "
        f"(unattributed) median {median(unattributed):.4f}"
    )
    if worst > SELF_TIME_TOLERANCE:
        result.checks_ok = False
        result.notes.append("FAILED: layer self times do not add up")
    return fill, rescan


def _store_pair(result: Result, wimi: WiMi, store: Path, sessions: list,
                expected: list, prefix: str,
                tracer: Tracer | None) -> tuple[float, float]:
    """Write-through pass of ``sessions`` into ``store``, then a read
    pass from a fresh facade over it; returns both times."""
    writer = _fresh(wimi, store)
    reader = _fresh(wimi, store)
    with _traced(tracer):
        write_s, written = _timed_batch(writer, sessions)
        read_s, read = _timed_batch(reader, sessions)
    result.ledger.check(f"{prefix}write_pass", written, expected)
    result.ledger.check(f"{prefix}read_pass", read, expected)
    if tracer is not None:
        counters = reader.cache.disk_store.counters()
        for name in ("corrupt", "quarantined"):
            _add(result, f"persist.{name}", counters[name])
    return write_s, read_s


# ----------------------------------------------------------------------
# batch_cold
# ----------------------------------------------------------------------


def batch_cold(seed: int, seconds: float, trace: bool, sizes: Sizes,
               workdir: Path) -> Result:
    """Offline batches on a fresh memory-only cache: every stage is
    computed, so ``dsp``, ``engine`` and ``ml`` do all the work and
    ``persist``, ``serve`` and ``cluster`` do none.  This is where
    cross-session batching must show.  Each unit identifies one batch
    of distinct sessions cold (``sessions_per_s``), then once more from
    the warm memory tier (``memory_rescan_sessions_per_s``)."""
    result = Result()
    clock = SetupClock(seed, sizes, workdir,
                       1 if trace else sizes.setup_repeats)
    deployment = clock.deployment
    sessions = collect_traffic(seed, sizes.batch_size * sizes.batches)
    expected = reference_labels(deployment.wimi, sessions)
    parts = _slices(sizes.batches, sizes.batch_size)
    turn = iter(range(1 << 30))

    def unit(prefix: str, tracer: Tracer | None) -> tuple[float, float]:
        clock.tick()
        part = parts[next(turn) % len(parts)]
        view = _fresh(deployment.wimi)
        with _traced(tracer):
            cold_s, cold = _timed_batch(view, sessions[part])
            warm_s, warm = _timed_batch(view, sessions[part])
        result.ledger.check(f"{prefix}cold_batch", cold, expected[part])
        result.ledger.check(f"{prefix}memory_rescan", warm, expected[part])
        if tracer is not None:
            _add_layers(result, tracer)
        return cold_s, warm_s

    clock.start(seconds)
    fill, rescan = _batch_workload(result, seconds, trace, unit, "batch")
    clock.finish()
    if trace:
        # store_rescan stays out of the gated workloads (see README.md),
        # so the persist layer is traced here: one batch written through
        # to an empty store and read back.
        tracer = Tracer()
        _store_pair(result, deployment.wimi, workdir / "store",
                    sessions[parts[0]], expected[parts[0]], "traced_store_",
                    tracer)
        totals = tracer.layer_totals()
        for op in ("put", "get"):
            _set(result, f"persist.{op}.calls", totals[f"persist.{op}"]["calls"])
            _set(result, f"persist.{op}.busy_s",
                 totals[f"persist.{op}"]["busy_s"])
            _set(result, f"persist.{op}.bytes", tracer.persist_bytes(op))
    else:
        result.metric("setup_s", deployment.setup_s, "s")
        _rates(result, sizes.batch_size, "batches", min,
               sessions_per_s=fill, memory_rescan_sessions_per_s=rescan)
    return result


# ----------------------------------------------------------------------
# store_rescan
# ----------------------------------------------------------------------


def store_rescan(seed: int, seconds: float, trace: bool, sizes: Sizes,
                 workdir: Path) -> Result:
    """The same kind of sessions twice over an ``ArtifactStore``: a cold
    pass that computes and writes through to the store, then a fresh
    facade that reads every stage back from disk.  Writes and reads are
    measured side by side, so a gain for one that costs the other shows.

    Its end-to-end metrics are ``setup_s``, ``store_write_sessions_per_s``
    (write-through pass) and ``store_read_sessions_per_s`` (read pass).
    Each batch is new to the store, so every entry it needs is absent,
    as in an empty store.  The run writes each batch once (one store of
    ``batches * batch_size`` sessions) and spends any time left on more
    read passes: the disk's speed depends on how many files recent runs
    created and deleted, so the write volume per run is kept fixed."""
    result = Result()
    clock = SetupClock(seed, sizes, workdir,
                       1 if trace else sizes.setup_repeats)
    deployment = clock.deployment
    sessions = collect_traffic(seed, sizes.batch_size * sizes.batches)
    expected = reference_labels(deployment.wimi, sessions)
    parts = _slices(sizes.batches, sizes.batch_size)
    store = workdir / "store"
    unwritten = iter(parts)

    def read_pass(part: slice) -> float:
        clock.tick()
        read_s, read = _timed_batch(_fresh(deployment.wimi, store),
                                    sessions[part])
        result.ledger.check("read_pass", read, expected[part])
        return read_s

    def unit(prefix: str, tracer: Tracer | None) -> tuple[float, float]:
        clock.tick()
        part = next(unwritten)
        times = _store_pair(result, deployment.wimi, store, sessions[part],
                            expected[part], prefix, tracer)
        if tracer is not None:
            _add_layers(result, tracer)
        return times

    start = time.perf_counter()
    clock.start(seconds)
    fill, rescan = _batch_workload(result, seconds, trace, unit, "pair",
                                   limit=len(parts))
    if trace:
        return result
    end = start + seconds
    written = parts[: len(fill)]
    while time.perf_counter() < end:
        rescan.append(read_pass(written[len(rescan) % len(written)]))
    clock.finish()
    result.metric("setup_s", deployment.setup_s, "s")
    _rates(result, sizes.batch_size, "passes", min,
           store_write_sessions_per_s=fill, store_read_sessions_per_s=rescan)
    return result


# ----------------------------------------------------------------------
# serve_open / cluster_open
# ----------------------------------------------------------------------


def open_loop_stream(seed: int, rate: float, seconds: float):
    """Seeded Poisson arrivals and, per arrival, which session it sends.

    Returns ``(due_s, picks, distinct)``: ``picks[i]`` indexes a pool of
    ``distinct`` sessions.  About :data:`REPEAT_SHARE` of the arrivals
    re-send a session first sent :data:`REPEAT_AGE_S` seconds earlier.
    """
    rng = random.Random(seed)
    count = max(1, round(rate * seconds))
    due_s, picks, recent = [], [], deque()
    t, fresh = 0.0, 0
    low, high = REPEAT_AGE_S
    for _ in range(count):
        t += rng.expovariate(rate)
        while recent and t - recent[0][0] > high:
            recent.popleft()
        eligible = [idx for sent, idx in recent if t - sent >= low]
        if eligible and rng.random() < REPEAT_SHARE:
            picks.append(rng.choice(eligible))
        else:
            picks.append(fresh)
            recent.append((t, fresh))
            fresh += 1
        due_s.append(t)
    return due_s, picks, fresh


@contextmanager
def _serving(kind: str, deployment: Deployment):
    """A fresh, default-configured serving front: an in-process service
    on a new memory cache, or a newly booted cluster."""
    if kind == "serve":
        service = IdentificationService(_fresh(deployment.wimi)).start()
        try:
            yield service
        finally:
            service.stop()
    else:
        with _Cluster(deployment.registry, deployment.boots) as client:
            yield client


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _serving_workload(kind: str, seed: int, seconds: float, trace: bool,
                      sizes: Sizes, workdir: Path) -> Result:
    result = Result()
    # The traced serve run also drives the cluster, so it needs the
    # registry too.
    clock = SetupClock(seed, sizes, workdir,
                       1 if trace else sizes.setup_repeats,
                       cluster=kind == "cluster" or trace)
    deployment = clock.deployment
    pool_size = sizes.burst_size * sizes.burst_slices
    if trace:
        due_s, picks, distinct = open_loop_stream(
            seed, sizes.open_rate, sizes.open_seconds)
        pool_size = max(pool_size, distinct)
    pool = collect_traffic(seed, pool_size)
    labels = reference_labels(deployment.wimi, pool)
    parts = _slices(sizes.burst_slices, sizes.burst_size)

    def bursts(prefix: str, seconds: float) -> tuple[list, list]:
        """Saturating bursts, each on sessions its front has not seen,
        then once more on the same sessions (memory tier); a fresh
        front whenever the pool's slices are used up."""
        fill, rescan = [], []
        end = time.perf_counter() + seconds
        while not fill or time.perf_counter() < end:
            with _serving(kind, deployment) as front:
                for part in parts:
                    clock.tick()
                    for phase, times in (("burst", fill),
                                         ("memory_burst", rescan)):
                        times.append(burst(
                            front.submit, pool[part], labels[part],
                            result.ledger, prefix + phase, sizes.burst_size,
                        ))
        return fill, rescan

    if not trace:
        clock.start(seconds)
        fill, rescan = bursts("", seconds)
        clock.finish()
        result.metric("setup_s", deployment.setup_s, "s")
        _rates(result, sizes.burst_size, "bursts", median,
               sessions_per_s=fill)
        _rates(result, sizes.burst_size, "bursts", min,
               memory_rescan_sessions_per_s=rescan)
        if kind == "cluster":
            result.notes.append(
                f"cluster boot median {median(deployment.boots):.3f} s")
        return result

    # Traced run: untraced vs traced bursts give the tracing overhead;
    # the open loop runs once untraced (latency) and once traced
    # (per-layer metrics), each on a fresh front.
    _zero_layers(result)
    untraced, _ = bursts("", seconds / 4)
    with Tracer():
        traced, _ = bursts("traced_", seconds / 4)
    _overhead(result, untraced, traced)
    sessions = [pool[i] for i in picks]
    expected = [labels[i] for i in picks]
    result.notes.append(
        f"open loop: {len(picks)} requests at {sizes.open_rate}/s, "
        f"{distinct} distinct sessions, {1 - distinct / len(picks):.0%} "
        f"re-measured"
    )
    with _serving(kind, deployment) as front:
        run = open_loop(front.submit, sessions, due_s, expected,
                        result.ledger, "open_loop")
    lat = run.latencies_s
    _set(result, "open_loop.requests", len(lat))
    _set(result, "open_loop.latency_p50_ms", percentile(lat, 50) * 1e3)
    _set(result, "open_loop.latency_p99_ms", percentile(lat, 99) * 1e3)
    _set(result, "open_loop.late_p99_ms",
         percentile(run.lateness_s, 99) * 1e3)
    result.notes.append(
        f"open-loop latency over {len(lat)} requests: p50 "
        f"{percentile(lat, 50) * 1e3:.1f} ms, p99 "
        f"{percentile(lat, 99) * 1e3:.1f} ms; generator lateness p50 "
        f"{percentile(run.lateness_s, 50) * 1e3:.2f} ms, p99 "
        f"{percentile(run.lateness_s, 99) * 1e3:.2f} ms, max "
        f"{max(run.lateness_s) * 1e3:.2f} ms"
    )
    if len(lat) < sizes.min_latency_samples:
        result.notes.append(
            f"WARNING: {len(lat)} latency samples; p99 needs "
            f"{sizes.min_latency_samples} for 10 samples beyond it"
        )
    _traced_open_loop(result, kind, deployment, sessions, due_s, expected)
    if kind == "serve":
        # cluster_open stays out of the gated workloads (see README.md),
        # so the same stream also goes through the cluster here.
        _traced_open_loop(result, "cluster", deployment, sessions, due_s,
                          expected)
    return result


def _traced_open_loop(result: Result, kind: str, deployment: Deployment,
                      sessions: list, due_s: list, expected: list) -> None:
    """The open loop once more on a fresh front, traced: fills the
    front's per-layer metrics."""
    with _serving(kind, deployment) as front:
        with Tracer() as tracer:
            run = open_loop(front.submit, sessions, due_s, expected,
                            result.ledger, f"traced_{kind}_open_loop")
        if kind == "cluster":
            time.sleep(HEARTBEAT_GRACE_S)
        snap = front.snapshot()
    lat = run.latencies_s
    result.notes.append(
        f"traced {kind} open loop: p50 {percentile(lat, 50) * 1e3:.1f} ms, "
        f"p99 {percentile(lat, 99) * 1e3:.1f} ms over {len(lat)} requests"
    )
    _add_layers(result, tracer)
    _set(result, f"{kind}.batch_size", _mean(h.batch_size for h in run.handles))
    if kind == "serve":
        busy = sum(s.duration for s in tracer.spans if s.layer == "core")
        _set(result, "serve.worker_busy_s", busy)
        _set(result, "serve.attempts", _mean(h.attempts for h in run.handles))
        counters = snap["counters"]
        hits = counters["cache.memory_hits"]
        lookups = hits + counters["cache.disk_hits"] + counters["cache.misses"]
        _set(result, "serve.memory_hit_share", hits / lookups if lookups else 0)
        for name in ("rejected", "shed", "expired", "failed"):
            _set(result, f"serve.{name}", counters[f"requests.{name}"])
    else:
        _set(result, "cluster.boot_s", median(deployment.boots))
        counters = snap["cluster"]["counters"]
        for name in ("redeliveries", "hedges", "duplicate_replies", "restarts"):
            _set(result, f"cluster.{name}", counters[f"cluster.{name}"])
        merged = snap["merged"]["counters"]
        for tier, counter in zip(
            TIERS, ("cache.memory_hits", "cache.disk_hits", "cache.misses")
        ):
            _set(result, f"cluster.cache.{tier}", merged.get(counter, 0))


def serve_open(seed: int, seconds: float, trace: bool, sizes: Sizes,
               workdir: Path) -> Result:
    """An in-process ``IdentificationService`` (default config).
    Saturating bursts on a fresh cache give its throughput; a
    single-threaded, seeded open-loop Poisson generator, where about
    half the requests re-measure a session seen seconds earlier
    (memory-tier hits) and half are new (compute), exercises admission,
    queue wait, micro-batching and the cache's memory tier.  The traced
    run also sends the stream through the default cluster, so the
    in-process and cluster fronts are compared on the same traffic."""
    return _serving_workload("serve", seed, seconds, trace, sizes, workdir)


def cluster_open(seed: int, seconds: float, trace: bool, sizes: Sizes,
                 workdir: Path) -> Result:
    """The ``serve_open`` bursts, session stream and offered rate, sent
    through ``ClusterClient`` with the default ``ClusterConfig`` (2
    worker processes, registry saved in set-up).  The only workload
    with the broker hop and shard routing; compare it with
    ``serve_open``."""
    return _serving_workload("cluster", seed, seconds, trace, sizes, workdir)


WORKLOADS = {
    "batch_cold": batch_cold,
    "store_rescan": store_rescan,
    "serve_open": serve_open,
    "cluster_open": cluster_open,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, sizes: Sizes = Sizes()) -> Result:
    """Run one workload in a scratch directory under ``root``."""
    workdir = root / ".wimibench_tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    try:
        return WORKLOADS[name](seed, seconds, trace, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
