"""Cluster worker process: registry warm boot + broker consume loop.

``worker_main`` is the spawn entry point (module-level, so it and its
arguments pickle across the process boundary).  Life of a worker:

1. **Warm boot.**  Restore the fitted pipeline with
   :meth:`repro.core.pipeline.WiMi.from_registry`, overriding
   ``artifact_store_path`` to this worker's own shard of the artifact
   store -- workers never share a disk tier, so there is no cross-shard
   write contention and a restarted worker finds exactly its shard's
   artifacts warm.
2. **Serve.**  Pull micro-batches from the shard's request queue with
   the same :class:`repro.serve.workers.Executor` the in-process
   service runs -- same batching policy, wall-clock deadlines, fault
   isolation, ``ServiceConfig()``-default retries and counters -- and
   answer every envelope with a :class:`repro.cluster.broker.Reply`
   whose ``error_type`` is the raised exception's class name (an
   expired envelope gets ``DeadlineExceededError``).
3. **Report.**  A daemon thread emits a :class:`Heartbeat` with a full
   :class:`repro.serve.MetricsRegistry` snapshot every interval -- the
   orchestrator uses the stream both for health checking and for
   cross-process metrics aggregation.
4. **Exit.**  A :class:`repro.cluster.broker.Shutdown` pill (FIFO
   behind all published work) ends the loop; SIGTERM/SIGINT flip the
   worker into *drain* mode via the shared
   :func:`repro.serve.signals.install_graceful_shutdown` hook -- it
   keeps serving until its queue is empty, then exits, instead of
   abandoning queued requests.

A boot failure (missing registry, corrupt bundle) is reported as a
``"failed"`` heartbeat before the process exits non-zero, so the
orchestrator can distinguish "crashed while serving" (restart) from
"cannot boot" (give the shard up after the restart budget).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass

from repro.cluster.broker import BrokerEndpoint, Heartbeat, Reply, Shutdown
from repro.core.pipeline import WiMi
from repro.serve.metrics import MetricsRegistry, StageEventRecorder
from repro.serve.service import DeadlineExceededError, ServiceConfig
from repro.serve.workers import Executor, Request, default_runner


@dataclass(frozen=True)
class WorkerBoot:
    """Everything a worker process needs to boot (picklable).

    Attributes:
        registry_path: Model registry root (shared, read-only).
        model_name: Registry model name.
        version: Registry version (None = CURRENT).
        artifact_store_path: This worker's artifact-store shard; None
            keeps whatever the restored bundle config says.
        max_batch_size: Micro-batch limit (mirrors the service knob).
        max_wait_s: Longest to hold an incomplete batch open.
        heartbeat_interval_s: Beacon period.
        throttle_s: Artificial per-request service time (benchmark /
            chaos-test hook; 0 in production).
    """

    registry_path: str
    model_name: str = "wimi"
    version: str | None = None
    artifact_store_path: str | None = None
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    heartbeat_interval_s: float = 0.1
    throttle_s: float = 0.0


class _WorkerRuntime:
    """The serving half of a worker process (testable in-process).

    ``runner(view, sessions) -> labels`` replaces the engine batch call
    (fault injection); ``boot.throttle_s`` wraps whichever runs.
    """

    def __init__(
        self,
        worker_id: str,
        shard: int,
        boot: WorkerBoot,
        endpoint: BrokerEndpoint,
        runner=None,
    ):
        self.worker_id = worker_id
        self.shard = shard
        self.boot = boot
        self.endpoint = endpoint
        self.metrics = MetricsRegistry()
        for name in ("requests.redelivered", "clock.skew_clamped"):
            self.metrics.counter(name)
        self.draining = threading.Event()
        self._pill = False
        self._runner = runner if runner is not None else default_runner
        self._handle_ms = 0.0
        overrides = (
            {"artifact_store_path": boot.artifact_store_path}
            if boot.artifact_store_path is not None
            else None
        )
        self.wimi = WiMi.from_registry(
            boot.registry_path,
            name=boot.model_name,
            version=boot.version,
            config_overrides=overrides,
        )
        self.wimi.engine.add_hook(StageEventRecorder(self.metrics))
        self._beat_seq = 0
        # Envelope stamps are wall clock by the broker contract
        # (monotonic clocks are not comparable across processes), so
        # the executor's deadlines and queue waits run on time.time.
        self.executor = Executor(
            view=self.wimi,
            runner=self._run,
            metrics=self.metrics,
            retry_policy=ServiceConfig().retry_policy(),
            sink=self._reply,
            deadline_error=DeadlineExceededError,
            max_batch_size=boot.max_batch_size,
            max_wait_s=boot.max_wait_s,
            clock=time.time,
        )

    # ------------------------------------------------------------------

    def beat(self, state: str) -> None:
        """Send one heartbeat carrying the current metrics snapshot.

        The snapshot is *source-stamped* with ``(worker_id, seq)`` --
        the worker id already encodes the incarnation epoch
        (``worker-0.1``, ``worker-0.2``, ...) -- so the orchestrator's
        :meth:`MetricsRegistry.merge` can keep the latest snapshot per
        incarnation and drop re-sent beats instead of double-counting.
        Artifact-store counters are mirrored as gauges first so
        quarantine/heal activity is visible in merged snapshots.
        """
        self._beat_seq += 1
        import os

        self._mirror_store_gauges()
        self.endpoint.send_heartbeat(
            Heartbeat(
                worker=self.worker_id,
                shard=self.shard,
                pid=os.getpid(),
                seq=self._beat_seq,
                state=state,
                metrics=self.metrics.snapshot(
                    source=self.worker_id, seq=self._beat_seq
                ),
            )
        )

    def _mirror_store_gauges(self) -> None:
        store = getattr(self.wimi.cache, "disk_store", None)
        if store is None:
            return
        counters = store.counters()
        for name in ("quarantined", "healed", "corrupt"):
            self.metrics.gauge(f"store.{name}").set(
                float(counters.get(name, 0))
            )

    def serve_forever(self) -> None:
        """Consume until a pill arrives or a signalled drain finishes."""
        while not self._pill:
            batch = self.executor.collect(self._pull)
            if batch:
                self.executor.execute(batch)
            elif self.draining.is_set():
                # Empty queue while draining: the drain is complete.
                return

    # ------------------------------------------------------------------

    def _pull(self, timeout: float):
        """The next envelope as an executor request (None = none/pill)."""
        message = self.endpoint.consume(timeout=timeout)
        if isinstance(message, Shutdown):
            # Serve what was already pulled, then stop.
            self._pill = True
            return None
        if message is None:
            return None
        if message.attempts > 0:
            self.metrics.counter("requests.redelivered").inc()
        if message.submitted_ts > time.time():
            # Cross-host clock skew (or a step between submit and
            # consume): the executor clamps the queue wait at zero;
            # counting it keeps skew diagnosable from the orchestrator's
            # merged snapshot instead of invisible.
            self.metrics.counter("clock.skew_clamped").inc()
        return Request(
            message.session, message.deadline_ts, message.submitted_ts,
            payload=message,
        )

    def _run(self, view, sessions: list) -> list[str]:
        """The runner behind the throttle; records per-session handle time.

        Handle time is measured on the monotonic clock: it never leaves
        this process, so an NTP step cannot stretch or collapse it.
        """
        if self.boot.throttle_s > 0.0:
            time.sleep(self.boot.throttle_s * len(sessions))
        started = time.monotonic()
        labels = self._runner(view, sessions)
        self._handle_ms = (time.monotonic() - started) * 1000.0 / len(sessions)
        return labels

    def _reply(self, request, outcome) -> None:
        """Executor sink: answer the envelope with a :class:`Reply`."""
        envelope = request.payload
        reply = Reply(
            request_id=envelope.request_id,
            worker=self.worker_id,
            shard=self.shard,
            attempts=envelope.attempts + request.attempts,
            batch_size=request.batch_size,
        )
        if isinstance(outcome, BaseException):
            reply.error_type = type(outcome).__name__
            reply.error = str(outcome)
        else:
            reply.label = outcome
            reply.handle_ms = self._handle_ms
            self.metrics.histogram("handle_ms").observe(self._handle_ms)
        self.endpoint.send_reply(reply)


def worker_main(
    worker_id: str,
    shard: int,
    boot: WorkerBoot,
    endpoint: BrokerEndpoint,
) -> None:
    """Spawn entry point of one cluster worker process."""
    from repro.serve.signals import install_graceful_shutdown

    try:
        runtime = _WorkerRuntime(worker_id, shard, boot, endpoint)
    except Exception as error:  # noqa: BLE001 - boot failure boundary
        import os

        endpoint.send_heartbeat(
            Heartbeat(
                worker=worker_id,
                shard=shard,
                pid=os.getpid(),
                seq=0,
                state="failed",
                metrics={
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(limit=5),
                },
            )
        )
        raise SystemExit(1)

    # SIGTERM/SIGINT flip the worker into drain mode: keep serving
    # until the shard queue is empty, then exit -- never abandon
    # queued requests.  Same hook the in-process service installs.
    install_graceful_shutdown(runtime.draining.set, resend=False)

    runtime.beat("serving")
    stop_beats = threading.Event()

    def heartbeat_loop() -> None:
        while not stop_beats.wait(boot.heartbeat_interval_s):
            state = "draining" if runtime.draining.is_set() else "serving"
            try:
                runtime.beat(state)
            except Exception:  # pragma: no cover - torn-down queue
                return

    beater = threading.Thread(
        target=heartbeat_loop, name=f"{worker_id}-heartbeat", daemon=True
    )
    beater.start()
    try:
        runtime.serve_forever()
    finally:
        stop_beats.set()
        try:
            # Final beat so the parent's last metrics snapshot includes
            # everything this worker served.
            runtime.beat("draining")
        except Exception:  # pragma: no cover - torn-down queue
            pass
