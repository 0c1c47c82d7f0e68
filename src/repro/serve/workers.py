"""The request executor shared by the in-process and cluster fronts.

One :class:`Executor` serves one engine view.  It pulls its own
micro-batch from a transport (the first request blocks, then the batch
fills until ``max_batch_size`` or ``max_wait_s``), drops requests that
expired while queued, runs the rest through one engine batch call and
reports every outcome to a *sink*.  The in-process service gives each
worker thread an executor over its own
:class:`repro.core.pipeline.WiMi` view (via ``WiMi.clone_view``) pulling
from the service's bounded inbox; a cluster worker process gives its one
executor the shard's broker endpoint.  Both therefore count the same
things under the same names.

Fault isolation is per request: a batch whose engine call raises falls
back to request-at-a-time execution, so a poisoned session fails only
itself and the co-scheduled sessions still resolve.  Each failing
request is retried under a :class:`repro.resilience.RetryPolicy`
(budget-capped exponential backoff with full jitter) before its error
is reported; the executor itself survives any request failure.

Deadlines live on the executor's clock -- :func:`time.monotonic` in
process, wall clock for cross-process envelopes -- and are enforced at
three drop points, each with its own ``deadline.expired_*`` counter:
*dequeue* (expired while queued), *stage* (the engine's per-stage
:func:`repro.resilience.check_deadline` guard fired mid-pipeline -- via
the ambient ``deadline_scope`` installed around every engine call, the
tightest member deadline for a batch), and *retry* (expired between
attempts).  ``requests.expired`` aggregates all of them.

Counter definitions:

* ``requests.completed`` / ``requests.failed`` -- every request the
  executor resolves with a label / with an error, expiries included;
* ``faults.total`` plus ``faults.<ClassName>`` for every raised fault,
  and ``faults.batch_isolated`` whenever a whole batch fell back to
  request-at-a-time execution;
* the ``batch_size`` histogram records the live sessions handed to the
  engine -- the number each request's outcome carries as its batch
  size.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.pipeline import WiMi
from repro.resilience import (
    Deadline,
    DeadlineExpiredError,
    RetryPolicy,
    deadline_scope,
)
from repro.serve.metrics import BATCH_SIZE_BUCKETS, MetricsRegistry

#: How long the first pull of a batch blocks before the caller gets
#: control back to check for shutdown (seconds).
_IDLE_POLL_S = 0.02

#: Counters the executor owns, created up front so snapshots carry them
#: under zero traffic.
_COUNTERS = (
    "requests.completed", "requests.failed", "requests.expired",
    "requests.retries", "deadline.expired_dequeue", "deadline.expired_stage",
    "deadline.expired_retry", "faults.total", "faults.batch_isolated",
)


def default_runner(view: WiMi, sessions: list) -> list[str]:
    """The production batch path: one engine batch identify call."""
    return view.identify_batch(sessions)


def register_instruments(metrics: MetricsRegistry) -> None:
    """Create the executor-owned instruments in ``metrics``."""
    for name in _COUNTERS:
        metrics.counter(name)
    metrics.histogram("queue_wait_ms")
    metrics.histogram("batch_size", BATCH_SIZE_BUCKETS)


class Request:
    """One queued session as the executor sees it.

    Args:
        session: The capture session to identify.
        deadline: Expiry instant on the executor's clock (None = none).
        submitted_at: Submit instant on the executor's clock.
        payload: The transport's own handle on the request (a
            :class:`repro.serve.RequestHandle`, an ``Envelope``); the
            sink resolves through it.
    """

    __slots__ = (
        "session", "deadline", "submitted_at", "payload", "attempts",
        "batch_size",
    )

    def __init__(
        self,
        session,
        deadline: float | None,
        submitted_at: float,
        payload,
    ):
        self.session = session
        self.deadline = deadline
        self.submitted_at = submitted_at
        self.payload = payload
        #: Engine runs this request took part in.
        self.attempts = 0
        #: Live sessions in the last engine batch it ran in (None until
        #: it reaches the engine).
        self.batch_size: int | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class Executor:
    """Micro-batch collection and fault-isolated execution for one view.

    Args:
        view: The engine view the runner executes on.
        runner: ``runner(view, sessions) -> labels``.
        metrics: Registry receiving every executor-owned instrument.
        retry_policy: Budget, backoff and retryability of isolated runs.
        sink: ``sink(request, outcome)``, called exactly once per
            request with its label (``str``) or its error.
        deadline_error: Exception type reported for expired requests.
        max_batch_size: Most requests in one engine batch.
        max_wait_s: Longest to hold an incomplete batch open.
        clock: "Now" on the clock request deadlines and submit stamps
            use.
    """

    def __init__(
        self,
        view: WiMi,
        runner: Callable[[WiMi, list], list[str]],
        metrics: MetricsRegistry,
        retry_policy: RetryPolicy,
        sink: Callable[[Request, object], None],
        deadline_error: type[Exception],
        max_batch_size: int,
        max_wait_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.view = view
        self.runner = runner
        self.metrics = metrics
        self.retry_policy = retry_policy
        self.sink = sink
        self.deadline_error = deadline_error
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.clock = clock
        register_instruments(metrics)

    # ------------------------------------------------------------------

    def collect(self, pull: Callable[[float], Request | None]) -> list:
        """One micro-batch from ``pull(timeout) -> Request | None``.

        The first pull waits :data:`_IDLE_POLL_S`; the batch then fills
        until ``max_batch_size`` or ``max_wait_s`` (measured on the
        monotonic clock -- it never leaves this process), or until
        ``pull`` comes back empty.
        """
        first = pull(_IDLE_POLL_S)
        if first is None:
            return []
        batch = [first]
        fill_until = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = fill_until - time.monotonic()
            if remaining <= 0:
                break
            request = pull(remaining)
            if request is None:
                break
            batch.append(request)
        return batch

    def execute(self, batch: list[Request]) -> None:
        """Run one batch with per-request fault isolation."""
        now = self.clock()
        live = []
        for request in batch:
            self.metrics.histogram("queue_wait_ms").observe(
                max(0.0, now - request.submitted_at) * 1000.0
            )
            if request.expired(now):
                self._expire(
                    request, "dequeue",
                    "deadline passed while the request was queued",
                )
            else:
                live.append(request)
        if not live:
            return
        self.metrics.histogram("batch_size").observe(len(live))
        self.metrics.gauge("inflight").inc(len(live))
        try:
            for request in live:
                request.attempts += 1
                request.batch_size = len(live)
            try:
                with deadline_scope(self._scope(live)):
                    labels = self.runner(
                        self.view, [request.session for request in live]
                    )
                if len(labels) != len(live):
                    raise RuntimeError(
                        f"runner returned {len(labels)} labels for "
                        f"{len(live)} sessions"
                    )
            except DeadlineExpiredError as exc:
                # The earliest deadline in the batch lapsed mid-pipeline.
                # Requests that are themselves expired fail here; the
                # rest re-run isolated under their own deadlines.
                now = self.clock()
                for request in live:
                    if request.expired(now):
                        self._expire(request, "stage", str(exc))
                    else:
                        self._run_isolated(request)
                return
            except Exception as exc:
                # Batch path failed: isolate the fault by running each
                # request on its own (with its remaining retry budget).
                self._record_fault(exc)
                self.metrics.counter("faults.batch_isolated").inc()
                for request in live:
                    self._run_isolated(request)
                return
            for request, label in zip(live, labels):
                self._resolve(request, str(label))
        finally:
            self.metrics.gauge("inflight").dec(len(live))

    def _run_isolated(self, request: Request) -> None:
        """One request, attempted until success or budget exhaustion.

        The first isolated attempt is *not* counted against the retry
        budget -- the batch attempt may have failed because of a
        different (poisoned) co-rider.  Errors the policy classifies as
        non-retryable (by default :class:`CorruptTraceError` -- a
        structurally broken capture is deterministic) short-circuit the
        budget: retrying them would only delay the rejection.
        """
        error: BaseException | None = None
        for retry in range(self.retry_policy.budget + 1):
            if request.expired(self.clock()):
                self._expire(
                    request, "retry", "deadline passed during retries"
                )
                return
            if retry > 0:
                self.metrics.counter("requests.retries").inc()
                self.retry_policy.sleep(retry - 1)
            request.attempts += 1
            try:
                with deadline_scope(self._scope([request])):
                    labels = self.runner(self.view, [request.session])
            except DeadlineExpiredError as exc:
                # No point retrying: the deadline will not un-expire.
                self._expire(request, "stage", str(exc))
                return
            except Exception as exc:  # noqa: BLE001 -- isolation boundary
                error = exc
                self._record_fault(exc)
                if not self.retry_policy.is_retryable(exc):
                    break
            else:
                self._resolve(request, str(labels[0]))
                return
        assert error is not None
        self._fail(request, error)

    # ------------------------------------------------------------------

    def _scope(self, requests: list[Request]) -> Deadline | None:
        """The ambient deadline for an engine run: its *earliest* member
        deadline, on the executor's clock.

        When it fires mid-pipeline a batch falls back to isolated
        execution, where each request runs under its own deadline -- so
        a short-deadline co-rider cannot silently extend (max) nor a
        long-deadline one silently truncate (nothing) the others.
        """
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        if not deadlines:
            return None
        return Deadline(min(deadlines), self.clock)

    def _resolve(self, request: Request, label: str) -> None:
        self.metrics.counter("requests.completed").inc()
        self.sink(request, label)

    def _fail(self, request: Request, error: BaseException) -> None:
        self.metrics.counter("requests.failed").inc()
        self.sink(request, error)

    def _expire(self, request: Request, point: str, message: str) -> None:
        self.metrics.counter(f"deadline.expired_{point}").inc()
        self.metrics.counter("requests.expired").inc()
        self._fail(request, self.deadline_error(message))

    def _record_fault(self, error: BaseException) -> None:
        """Count one raised fault under its exception type."""
        self.metrics.counter("faults.total").inc()
        self.metrics.counter(f"faults.{type(error).__name__}").inc()
