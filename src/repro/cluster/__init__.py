"""Multi-process sharded serving cluster.

PR 2 made the pipeline a *service* (one process, thread pool, shared
stage cache); this package makes it a *cluster*: N worker **processes**
consuming enveloped requests from a broker-style work queue, each
warm-booted from the model registry against its own shard of the
artifact store, supervised by an orchestrator that health-checks,
restarts crashed workers, redelivers their in-flight requests and
aggregates per-worker metrics into one dashboard.

* :mod:`repro.cluster.broker` -- message envelopes, the
  :class:`Broker` abstraction (local ``multiprocessing``-queue backend
  today, designed so an AMQP-style backend can slot in later) and the
  consistent-hash :class:`ShardRing` router;
* :mod:`repro.cluster.worker` -- the worker-process main loop:
  registry warm boot, micro-batched consumption, per-request fault
  isolation, heartbeats, SIGTERM drain;
* :mod:`repro.cluster.orchestrator` -- process supervision, health
  checks, restart + redelivery, cross-process metrics aggregation;
* :mod:`repro.cluster.client` -- :class:`ClusterClient`, the
  ``submit()/identify()`` facade mirroring
  :class:`repro.serve.IdentificationService`.

``repro bench --suite cluster`` measures the cluster against the
single-process service and commits ``BENCH_PR7.json``.
"""

from repro.cluster.broker import (
    Broker,
    Envelope,
    Heartbeat,
    LocalQueueBroker,
    Reply,
    ShardRing,
    Shutdown,
)
from repro.cluster.client import ClusterClient
from repro.cluster.orchestrator import (
    ClusterConfig,
    ClusterError,
    Orchestrator,
    RemoteError,
)
from repro.cluster.worker import WorkerBoot, worker_main

__all__ = [
    "Broker",
    "ClusterClient",
    "ClusterConfig",
    "ClusterError",
    "Envelope",
    "Heartbeat",
    "LocalQueueBroker",
    "Orchestrator",
    "RemoteError",
    "Reply",
    "ShardRing",
    "Shutdown",
    "WorkerBoot",
    "worker_main",
]
