"""Run one WiMi benchmark workload and print its result record.

Usage (from the repository root)::

    python3 wimibench/run.py --workload batch_cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with ``--trace 1`` they are the per-layer
metrics of a separate traced run.  The program under test is imported
from ``src/`` next to this directory; without it the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from multiprocessing import resource_tracker, util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


#: How long a child may take to end on its own before it is killed.
CHILD_GRACE_S = 10.0


def _children() -> list[int]:
    """Process ids of this process's children (Linux ``/proc``)."""
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def reap_children() -> list[int]:
    """Stop and wait for every process the run started; returns the
    ids of those that had to be killed.

    The cluster's ``multiprocessing`` queues start a resource-tracker
    process that lives until its parent is gone; left to itself it
    would outlive the run as an unreaped orphan.  So ``multiprocessing``
    runs its exit-time clean-up now (which releases the queues'
    semaphores and joins its worker processes), and then the tracker is
    stopped and waited for.  Any other child still running is given
    :data:`CHILD_GRACE_S` to end, then killed, and waited for.
    """
    util._exit_function()
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    while (pids := _unreaped()) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return pids


def _unreaped() -> list[int]:
    """Reap every child that has ended; return those still running."""
    running = []
    for pid in _children():
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        if not done:
            running.append(pid)
    return running


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A polite kill still stops the cluster and removes scratch state.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        result = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT
        )
    finally:
        for pid in reap_children():
            print(f"warning: killed leftover child process {pid}",
                  file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in result.notes + result.ledger.lines():
        print(f"# {line}")
    for name, entry in result.metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result.record()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
