"""Differential parity: one fault script through both serving fronts.

The in-process :class:`repro.serve.IdentificationService` and a cluster
worker runtime (driven in this process over a scripted endpoint) share
one request executor, so the same script must give every request the
same outcome, attempts and batch size, and must leave the same executor
counters behind on both paths.

The script runs as two six-request micro-batches:

1. an envelope expired before dequeue, two healthy requests, a
   ``ValueError``-poisoned co-rider (the batch falls back to isolated
   runs and the poison is retried once), a ``CorruptTraceError``
   session (never retried) and a fail-once transient (recovers on its
   retry);
2. five healthy requests plus one whose deadline lapses mid-stage (the
   batch scope fires, the others re-run isolated).
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.channel.materials import default_catalog
from repro.cluster import Envelope, Shutdown
from repro.cluster.worker import WorkerBoot, _WorkerRuntime
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.quality import CorruptTraceError
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.resilience import check_deadline, current_deadline
from repro.serve import IdentificationService, ServiceConfig
from repro.serve.workers import default_runner

WAVE = 6
#: Deadline of the request that must lapse inside the engine run.
STAGE_TIMEOUT_S = 0.3
#: Long enough that each wave fills by size, never by the wait.
FILL_WAIT_S = 10.0

COUNTERS = (
    "requests.completed", "requests.failed", "requests.expired",
    "requests.retries", "faults.total", "faults.ValueError",
    "faults.CorruptTraceError", "faults.TimeoutError",
    "faults.batch_isolated", "deadline.expired_dequeue",
    "deadline.expired_stage", "deadline.expired_retry",
)


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    catalog = default_catalog()
    materials = [catalog.get(n) for n in ("pure_water", "pepsi", "oil")]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=6,
        num_packets=6, seed=4,
    )
    sessions = [s for name in dataset for s in dataset[name]]
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(sessions[::3])
    registry = tmp_path_factory.mktemp("parity") / "registry"
    wimi.save_to_registry(registry, name="wimi")
    return wimi, sessions[1::3] + sessions[2::3], registry


class FaultScript:
    """Who does what; one instance per path (the transient fails once)."""

    def __init__(self, sessions):
        self.names = [
            "expired", "healthy-a", "poisoned", "corrupt", "transient",
            "healthy-b",
            "healthy-c", "healthy-d", "slow", "healthy-e", "healthy-f",
            "healthy-g",
        ]
        self.session = dict(zip(self.names, sessions))
        self._transient_failed = False
        self._lock = threading.Lock()

    def waves(self):
        return self.names[:WAVE], self.names[WAVE:]

    def timeout(self, name):
        return {"expired": 0.001, "slow": STAGE_TIMEOUT_S}.get(name)

    def runner(self, view, sessions):
        def has(name):
            return any(s is self.session[name] for s in sessions)

        if has("poisoned"):
            raise ValueError("poisoned co-rider")
        if has("corrupt"):
            raise CorruptTraceError("structurally broken capture")
        if has("transient"):
            with self._lock:
                failed, self._transient_failed = self._transient_failed, True
            if not failed:
                raise TimeoutError("transient backend glitch")
        if has("slow"):
            # Outlive the ambient deadline, then hit a stage boundary.
            time.sleep(max(0.0, current_deadline().remaining()) + 0.01)
            check_deadline("scripted stage")
        return default_runner(view, sessions)


def _outcome(label, error_type, attempts, batch_size):
    return (label if error_type is None else error_type, attempts, batch_size)


def _run_service(wimi, script):
    config = ServiceConfig(
        num_workers=1, max_batch_size=WAVE, max_wait_s=FILL_WAIT_S
    )
    outcomes = {}
    with IdentificationService(wimi, config, runner=script.runner) as service:
        for wave in script.waves():
            handles = {}
            for name in wave:
                handles[name] = service.submit(
                    script.session[name], timeout=script.timeout(name)
                )
                if name == "expired":
                    time.sleep(0.05)  # lapses while the batch fills
            for name, handle in handles.items():
                error = handle.exception(timeout=60.0)
                outcomes[name] = _outcome(
                    None if error else handle.result(),
                    type(error).__name__ if error else None,
                    handle.attempts, handle.batch_size,
                )
        snap = service.snapshot()
    return outcomes, snap


def _run_cluster_worker(registry, script):
    def envelope(name):
        timeout = script.timeout(name)
        if name == "expired":
            timeout = -1.0  # already past when consumed
        return Envelope(
            name, script.session[name], 0,
            deadline_ts=None if timeout is None else time.time() + timeout,
        )

    first, second = script.waves()
    # Envelopes are stamped when consumed, as if just published; None
    # closes the first micro-batch before the second wave arrives.
    messages = [*first, None, *second]
    replies = []

    def consume(timeout=None):
        if not messages:
            return Shutdown()
        name = messages.pop(0)
        return None if name is None else envelope(name)

    endpoint = SimpleNamespace(
        consume=consume, send_reply=replies.append,
        send_heartbeat=lambda beat: None,
    )
    boot = WorkerBoot(
        registry_path=str(registry), max_batch_size=WAVE,
        max_wait_s=FILL_WAIT_S,
    )
    runtime = _WorkerRuntime("w0", 0, boot, endpoint, runner=script.runner)
    runtime.serve_forever()
    outcomes = {
        r.request_id: _outcome(r.label, r.error_type, r.attempts, r.batch_size)
        for r in replies
    }
    return outcomes, runtime.metrics.snapshot()


@pytest.fixture(scope="module")
def both_paths(deployment):
    wimi, sessions, registry = deployment
    service = _run_service(wimi, FaultScript(sessions))
    cluster = _run_cluster_worker(registry, FaultScript(sessions))
    return service, cluster


def test_per_request_outcomes_match(deployment, both_paths):
    (served, _), (clustered, _) = both_paths
    assert served == clustered
    wimi, sessions, _ = deployment
    script = FaultScript(sessions)
    healthy = [n for n in script.names if n.startswith("healthy")]
    healthy.append("transient")
    expected = wimi.identify_batch([script.session[n] for n in healthy])
    for name, label in zip(healthy, expected):
        assert served[name][0] == str(label)
    assert served["expired"] == ("DeadlineExceededError", 0, None)
    assert served["slow"][0] == "DeadlineExceededError"
    assert served["poisoned"] == ("ValueError", 3, WAVE - 1)
    assert served["corrupt"] == ("CorruptTraceError", 2, WAVE - 1)
    assert served["transient"][1] == 3  # batch, failed isolated, retry


def test_executor_counters_match(both_paths):
    (_, served), (_, clustered) = both_paths
    for name in COUNTERS:
        assert served["counters"][name] == clustered["counters"][name], name
    counters = served["counters"]
    # Every request resolved exactly once, expiries counted as failures.
    assert counters["requests.completed"] + counters["requests.failed"] == 12
    assert counters["requests.expired"] == 2
    assert counters["deadline.expired_dequeue"] == 1
    assert counters["deadline.expired_stage"] == 1
    assert counters["requests.retries"] == 2
    assert counters["faults.batch_isolated"] == 1
    assert counters["faults.total"] == 5


def test_batch_size_histogram_counts_engine_batches(both_paths):
    (_, served), (_, clustered) = both_paths
    served_batches = served["histograms"]["batch_size"]
    clustered_batches = clustered["histograms"]["batch_size"]
    assert served_batches["count"] == clustered_batches["count"] == 2
    # Live sessions only: the expired envelope never reached the engine.
    assert served_batches["min"] == clustered_batches["min"] == WAVE - 1
