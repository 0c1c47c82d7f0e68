"""Traffic generation and outcome accounting for the serving workloads.

Both generators run on the calling thread only (one generator thread),
drive any object with a service-shaped ``submit(session) -> handle``
(``IdentificationService`` or ``ClusterClient``) and time every request
from outside the program: a request's latency runs from the moment it
was *due* to the moment the generator saw its label, so a stall that
delays later sends is charged to those requests.  ``RequestHandle``
timings are deliberately not used (they start at admission).
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.serve import ServeError

#: Longest the generator waits for any single outstanding request.
RESULT_TIMEOUT_S = 60.0

#: While several requests are outstanding, the generator re-checks all
#: of them at least this often, so a request that finishes before an
#: older one is seen within this many seconds.
POLL_S = 0.005


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


@dataclass
class Phase:
    """Outcome counts of one measured phase."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)


class Ledger:
    """Attempted / succeeded / failed per phase, checked against the
    reference labels computed in set-up."""

    def __init__(self):
        self.phases: dict[str, Phase] = {}

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def check(self, name: str, labels, expected) -> int:
        """Count each label against its reference; returns mismatches."""
        phase = self.phase(name)
        if len(labels) != len(expected):
            raise ValueError(
                f"{name}: {len(labels)} labels for {len(expected)} sessions"
            )
        wrong = sum(1 for got, want in zip(labels, expected) if got != want)
        phase.attempted += len(labels)
        phase.succeeded += len(labels) - wrong
        phase.failed += wrong
        if wrong:
            phase.errors["wrong_label"] += wrong
        return wrong

    def fail(self, name: str, error: BaseException) -> None:
        """One operation that raised instead of returning a label."""
        phase = self.phase(name)
        phase.attempted += 1
        phase.failed += 1
        phase.errors[type(error).__name__] += 1

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())

    @property
    def wrong_labels(self) -> int:
        return sum(p.errors["wrong_label"] for p in self.phases.values())

    def lines(self) -> list[str]:
        out = []
        for name, p in self.phases.items():
            errors = ",".join(f"{k}={v}" for k, v in sorted(p.errors.items()))
            out.append(
                f"phase {name}: attempted={p.attempted} "
                f"succeeded={p.succeeded} failed={p.failed}"
                + (f" errors[{errors}]" if errors else "")
            )
        return out


def _settle(handle, expected: str, ledger: Ledger, phase: str) -> None:
    """Wait for one handle and count its outcome."""
    try:
        label = handle.result(timeout=RESULT_TIMEOUT_S)
    except (ServeError, TimeoutError) as exc:
        ledger.fail(phase, exc)
    else:
        ledger.check(phase, [label], [expected])


def burst(submit, sessions, expected, ledger: Ledger, phase: str,
          window: int) -> float:
    """Saturating closed loop: keep ``window`` requests outstanding.

    ``window`` stays below the service's queue capacity, so the burst
    saturates the workers without provoking ``QueueFullError``.
    Returns the makespan in seconds.
    """
    outstanding: deque = deque()
    start = time.perf_counter()
    for session, want in zip(sessions, expected):
        while len(outstanding) >= window:
            _settle(*outstanding.popleft(), ledger, phase)
        try:
            outstanding.append((submit(session), want))
        except ServeError as exc:
            ledger.fail(phase, exc)
    while outstanding:
        _settle(*outstanding.popleft(), ledger, phase)
    return time.perf_counter() - start


@dataclass
class OpenLoopResult:
    latencies_s: list[float]
    lateness_s: list[float]
    handles: list


def open_loop(submit, sessions, due_s, expected, ledger: Ledger,
              phase: str) -> OpenLoopResult:
    """Send ``sessions[i]`` at ``start + due_s[i]`` regardless of replies.

    Between sends the generator blocks on the oldest outstanding handle
    (at most until the next send is due, or :data:`POLL_S` while others
    are also outstanding) and then sweeps every outstanding handle, so
    each completion is seen within a few milliseconds of its label.
    """
    latencies: list[float] = []
    lateness: list[float] = []
    handles = []
    outstanding: list = []  # (due_abs, handle, expected)
    start = time.perf_counter() + 0.01
    i, n = 0, len(sessions)
    while i < n or outstanding:
        now = time.perf_counter()
        if i < n and now >= start + due_s[i]:
            due = start + due_s[i]
            lateness.append(now - due)
            try:
                outstanding.append((due, submit(sessions[i]), expected[i]))
            except ServeError as exc:
                ledger.fail(phase, exc)
            i += 1
            continue
        wait = (start + due_s[i] - now) if i < n else RESULT_TIMEOUT_S
        if len(outstanding) > 1:
            wait = min(wait, POLL_S)
        if outstanding:
            try:
                outstanding[0][1].exception(timeout=max(wait, 0.0))
            except TimeoutError:
                pass
        else:
            time.sleep(max(wait, 0.0))
        now = time.perf_counter()
        still = []
        for due, handle, want in outstanding:
            if not handle.done():
                if now - due > RESULT_TIMEOUT_S:
                    ledger.fail(phase, TimeoutError("no reply"))
                else:
                    still.append((due, handle, want))
                continue
            handles.append(handle)
            error = handle.exception(timeout=0)
            if error is not None:
                ledger.fail(phase, error)
                continue
            latencies.append(now - due)
            ledger.check(phase, [handle.result(timeout=0)], [want])
        outstanding = still
    return OpenLoopResult(latencies, lateness, handles)
