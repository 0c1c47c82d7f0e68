"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

Usage (from the repository root)::

    python3 wimibench/steady.py                      # 10 seeds x every workload
    python3 wimibench/steady.py --workloads serve_open --runs 5
    python3 wimibench/steady.py --runs 10 --holdout 3

Each run is ``run.py --workload W --seed S --seconds <run_seconds>`` with
tracing off, one after another.  For every end-to-end metric the tool
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median`` against the metric's bound from
BENCHMARK.json; a spread should stay below a third of its bound.
``setup_s`` is held only to its bound, not to a third of it.  Metrics
without a bound (those of workloads not in BENCHMARK.json) are printed
and not judged.  Seeds run from 1 to ``--runs``; ``--holdout`` adds runs
on seeds never used while tuning (from 1000 up) and checks that their
median stays within each bound of the tuning median.  Exits non-zero
when a run fails or is incorrect, a spread reaches a third of its bound
(the whole bound for ``setup_s``), or a held-out median misses its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOLDOUT_FIRST_SEED = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run of ``run.py``; returns its result record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--holdout", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True

    for workload in args.workloads.split(","):
        records = []
        for seed in range(1, args.runs + 1):
            record = run_once(workload, seed, seconds)
            records.append(record)
            status = "ok" if record["correct"] and not record["failed"] \
                else "FAILED"
            values = " ".join(
                f"{name}={entry['value']:.4g}"
                for name, entry in record["metrics"].items()
            )
            print(
                f"{workload} seed {seed}: {status} "
                f"attempted={record['attempted']} failed={record['failed']} "
                f"{values}",
                flush=True,
            )
            ok &= status == "ok"
        held = [
            run_once(workload, HOLDOUT_FIRST_SEED + k, seconds)
            for k in range(args.holdout)
        ]
        for record in held:
            ok &= record["correct"] and not record["failed"]
        print(f"\n{workload}: {len(records)} runs, {seconds} s each")
        print(f"  {'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}  verdict")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            mid, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            if bound is None:
                print(f"  {name:28s} {mid:11.4g} {q1:11.4g} {q3:11.4g} "
                      f"{rel:7.1%} {'-':>6s}  no bound")
                continue
            if rel > bound:
                verdict = "OVER BOUND"
                ok = False
            elif name == "setup_s" or rel < bound / 3:
                verdict = "ok"
            else:
                verdict = "WIDE (over bound/3)"
                ok = False
            if held:
                held_mid = statistics.median(
                    r["metrics"][name]["value"] for r in held
                )
                shift = held_mid / mid - 1.0
                holds = abs(shift) <= bound
                ok &= holds
                verdict += f"; held-out {shift:+.1%} " + (
                    "ok" if holds else "MISSES BOUND")
            print(f"  {name:28s} {mid:11.4g} {q1:11.4g} {q3:11.4g} "
                  f"{rel:7.1%} {bound:6.2f}  {verdict}")
        print(flush=True)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
