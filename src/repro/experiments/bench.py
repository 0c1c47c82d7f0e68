"""One benchmark harness behind ``repro bench`` and ``repro bench-compare``.

Every in-tree benchmark is a :class:`Suite` declared next to its
workloads (the ``*bench`` modules and ``robustness``) and registered in
:data:`SUITES`.  This module holds everything they share: best-of-N
timing, running a suite's cases, report I/O, the baseline gate and the
report diff.  A run fails when the suite's :attr:`Suite.check` names a
failure -- the correctness gates CI relies on -- or when a gated
timing regressed beyond ``max_regression`` times the committed
baseline's.

Every suite writes the same report layout::

    {"schema": 1, "benchmark": NAME, "suites": {MODE: {CASE: {...}}}}

Modes (``smoke``/``full``) are stored side by side, so a smoke run
merges into a committed report without clobbering its full-suite
numbers, and a smoke run is only ever compared against committed
smoke numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.channel.materials import default_catalog
from repro.experiments.datasets import (
    collect_dataset,
    split_dataset,
    standard_scene,
)

#: The liquids every serving, streaming and warm-start workload deploys.
LAB_LIQUIDS = ("pure_water", "pepsi", "oil")

#: ``bench-compare`` default: flag a timing that grew (or shrank) by
#: more than this factor between the two reports.
DEFAULT_DIFF_THRESHOLD = 1.25


def best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def lab_split(repetitions: int, num_packets: int, seed: int = 0):
    """``(materials, train, test)``: :data:`LAB_LIQUIDS` captured in
    the lab scene, split per material."""
    materials = [default_catalog().get(name) for name in LAB_LIQUIDS]
    dataset = collect_dataset(
        materials, scene=standard_scene("lab"), repetitions=repetitions,
        num_packets=num_packets, seed=seed,
    )
    return (materials, *split_dataset(dataset))


def violations(results: dict, rules) -> list[str]:
    """Messages of the ``(case, holds(entry), message)`` rules that fail.

    ``message`` is formatted with the case entry's fields; rules on a
    case the results do not record are skipped.
    """
    return [
        f"{case}: {message.format(**results[case])}"
        for case, holds, message in rules
        if case in results and not holds(results[case])
    ]


def speedup_table(results: dict, new: str, old: str) -> list[str]:
    """``new_s`` vs ``baseline_s`` and their speedup, one row per case."""
    lines = [f"  {'benchmark':<18} {new:>9} {old:>9} {'speedup':>8}"]
    for name, data in results.items():
        lines.append(
            f"  {name:<18} {data['new_s']:>8.3f}s {data['baseline_s']:>8.3f}s "
            f"{data['speedup']:>7.2f}x"
        )
    return lines


def stage_cache_table(stage_cache: dict) -> list[str]:
    """Per-stage executions, memory/disk hits and hit rate, one row each
    (a :meth:`repro.engine.StageCache.snapshot`)."""
    return [
        f"    {stage:<22} {s['misses']:>6d} exec {s['memory_hits']:>7d} mem "
        f"{s['disk_hits']:>5d} disk {s['hit_rate']:>8.1%}"
        for stage, s in sorted(stage_cache.items())
    ]


@dataclass(frozen=True)
class Suite:
    """One registered benchmark suite.

    Attributes:
        name: The ``--suite`` value; also stamped into the report.
        title: One-line description (heading of the rendered report).
        sizes: Workload sizes per mode (``smoke``/``full``).  A run may
            override the keys a mode declares (e.g. ``seed``,
            ``workers``, ``store_path`` from the command line); any
            other override is an error.
        cases: ``cases(sizes)`` yields ``(case name, thunk)`` pairs;
            each thunk returns the case's JSON-ready result entry.
            Cases sharing setup (a fitted deployment) build it in the
            generator before the first yield.
        output: Default report path: the committed artifact, which is
            also the default baseline.
        check: ``check(results, mode)`` -> failure messages (empty when
            every correctness gate holds).
        render: ``render(results)`` -> report lines for the case data.
        gated_fields: Timing fields the baseline gate compares per case.
        max_regression: Default gate factor (``<= 0`` disables it).
    """

    name: str
    title: str
    sizes: dict[str, dict]
    cases: Callable[[dict], Iterable[tuple[str, Callable[[], dict]]]]
    output: str
    check: Callable[[dict, str], list[str]]
    render: Callable[[dict], list[str]]
    gated_fields: tuple[str, ...] = ()
    max_regression: float = 0.0

    def sizes_for(self, mode: str, **overrides) -> dict:
        """The ``mode`` workload sizes with ``overrides`` applied.

        Raises ValueError for an unknown mode or an override the mode
        does not declare (a perf run takes no ``seed``), so a setting
        the workload would ignore fails instead of being misreported.
        """
        if mode not in self.sizes:
            raise ValueError(
                f"mode must be one of {sorted(self.sizes)}, got {mode!r}"
            )
        unknown = sorted(set(overrides) - set(self.sizes[mode]))
        if unknown:
            raise ValueError(
                f"suite {self.name!r} has no setting "
                + ", ".join(repr(key) for key in unknown)
            )
        return {**self.sizes[mode], **overrides}

    def run(self, mode: str, progress=None, **overrides) -> dict:
        """Run every case at :meth:`sizes_for` sizes; returns
        ``{case: entry}``."""
        sizes = self.sizes_for(mode, **overrides)
        results = {}
        for name, case in self.cases(sizes):
            if progress is not None:
                progress(name)
            results[name] = case()
        return results

    def report(
        self,
        mode: str,
        results: dict,
        regressions: list[tuple[str, float]] = (),
        failures: list[str] = (),
    ) -> str:
        """Human-readable summary of one run, gate verdicts last."""
        lines = [f"bench {self.name} -- {mode} suite: {self.title}"]
        lines += self.render(results)
        lines += [f"  GATE FAILED: {failure}" for failure in failures]
        lines += [
            f"  REGRESSION: {name} is {ratio:.2f}x slower than the "
            "committed baseline"
            for name, ratio in regressions
        ]
        if not failures and not regressions:
            lines.append(
                "  all gates passed"
                + (", no regressions vs committed baseline"
                   if self.gated_fields else "")
            )
        return "\n".join(lines)


@functools.cache
def _registry() -> dict[str, Suite]:
    modules = (
        "perfbench", "streambench", "precisionbench", "warmbench",
        "clusterbench", "soakbench", "robustness",
    )
    suites = [
        importlib.import_module(f"repro.experiments.{module}").SUITE
        for module in modules
    ]
    return {suite.name: suite for suite in suites}


def __getattr__(name: str):
    # ``SUITES`` is built on first use: the suite modules import this
    # one for Suite and best_of, so they cannot be imported while it is
    # still loading.
    if name == "SUITES":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def gated_fields() -> tuple[str, ...]:
    """Every timing field some registered suite gates, in suite order."""
    return tuple(
        dict.fromkeys(f for s in _registry().values() for f in s.gated_fields)
    )


# ----------------------------------------------------------------------
# Report I/O and the baseline gate
# ----------------------------------------------------------------------


def load_report(path: str | Path) -> dict | None:
    """The report at ``path``, or None when absent/unreadable/old-layout."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return report if isinstance(report.get("suites"), dict) else None


def write_report(
    path: str | Path, name: str, mode: str, results: dict
) -> dict:
    """Merge ``results`` into the report at ``path`` as ``mode``; return it."""
    report = load_report(path) or {"schema": 1, "suites": {}}
    report["benchmark"] = name
    report["suites"][mode] = results
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def compare_to_baseline(
    results: dict,
    baseline: dict | None,
    mode: str,
    fields: Iterable[str],
    max_regression: float,
) -> list[tuple[str, float]]:
    """``("case.field", ratio)`` for gated timings beyond ``max_regression``.

    Empty when there is no baseline (first run), the gate is disabled
    (``max_regression <= 0``), or nothing regressed.  Cases or fields
    the baseline's ``mode`` suite does not record are not compared.
    """
    if baseline is None or max_regression <= 0:
        return []
    committed = baseline["suites"].get(mode, {})
    regressions = []
    for name, current in results.items():
        reference = committed.get(name)
        if isinstance(reference, dict):
            regressions += [
                (f"{name}.{field}", t["ratio"])
                for field, t in _timings(reference, current, fields).items()
                if t["ratio"] > max_regression
            ]
    return regressions


def _timings(old: dict, new: dict, fields: Iterable[str]) -> dict:
    """``{field: {"old", "new", "ratio"}}`` for timings both record."""
    timings = {}
    for field in fields:
        a, b = old.get(field), new.get(field)
        if all(isinstance(v, (int, float)) for v in (a, b)) and a > 0:
            timings[field] = {"old": a, "new": b, "ratio": b / a}
    return timings


def execute(
    name: str,
    smoke: bool = False,
    output: str | None = None,
    baseline: str | None = None,
    max_regression: float | None = None,
    progress=None,
    **overrides,
) -> tuple[bool, str]:
    """Run, record and gate one suite; returns ``(passed, report text)``.

    ``output``/``baseline``/``max_regression`` default to the suite's
    declared ones.  The baseline is read before the output is written,
    so the two may be the same file.
    """
    suite = _registry()[name]
    mode = "smoke" if smoke else "full"
    output = output or suite.output
    committed = load_report(baseline or suite.output)
    results = suite.run(mode, progress=progress, **overrides)
    write_report(output, suite.name, mode, results)
    regressions = compare_to_baseline(
        results,
        committed,
        mode,
        suite.gated_fields,
        suite.max_regression if max_regression is None else max_regression,
    )
    failures = suite.check(results, mode)
    text = suite.report(mode, results, regressions, failures)
    text += f"\n  report written to {output}"
    return not (regressions or failures), text


# ----------------------------------------------------------------------
# Report diff (``repro bench-compare``)
# ----------------------------------------------------------------------


def diff_reports(
    old: dict, new: dict, threshold: float = DEFAULT_DIFF_THRESHOLD
) -> dict:
    """Structured diff of two reports in the shared layout.

    For every mode and case present in both reports the diff carries,
    per timing field some registered suite gates,
    the old and new values and their ratio, plus the ``speedup`` delta
    when both entries record one.  Modes and cases on one side only are
    labelled ``added``/``removed``.  A case is ``regressed`` when any
    field's ratio exceeds ``threshold``, else ``improved`` when any is
    below ``1/threshold``, else ``ok``; ``threshold <= 0`` reports the
    ratios without flagging.
    """
    fields = gated_fields()
    suites: dict[str, dict] = {}
    old_suites, new_suites = old["suites"], new["suites"]
    for mode in sorted(set(old_suites) | set(new_suites)):
        a, b = old_suites.get(mode), new_suites.get(mode)
        if a is None or b is None:
            suites[mode] = {
                "status": "removed" if b is None else "added",
                "benchmarks": {},
            }
            continue
        benches: dict[str, dict] = {}
        for name in sorted(set(a) | set(b)):
            ea, eb = a.get(name), b.get(name)
            if ea is None or eb is None:
                benches[name] = {
                    "status": "removed" if eb is None else "added"
                }
                continue
            benches[name] = _diff_entry(ea, eb, threshold, fields)
        suites[mode] = {"status": "both", "benchmarks": benches}
    return {"threshold": threshold, "suites": suites}


def _diff_entry(ea: dict, eb: dict, threshold: float, fields) -> dict:
    timings = _timings(ea, eb, fields)
    ratios = [t["ratio"] for t in timings.values()]
    entry: dict = {"status": "ok", "timings": timings}
    if threshold > 0 and any(r > threshold for r in ratios):
        entry["status"] = "regressed"
    elif threshold > 0 and any(r < 1.0 / threshold for r in ratios):
        entry["status"] = "improved"
    if "speedup" in _timings(ea, eb, ("speedup",)):
        entry.update(
            old_speedup=ea["speedup"], new_speedup=eb["speedup"],
            speedup_delta=eb["speedup"] - ea["speedup"],
        )
    return entry


def render_diff(diff: dict, old_path: str, new_path: str) -> str:
    """Human-readable rendering of a :func:`diff_reports` result."""
    threshold = diff["threshold"]
    lines = [f"bench-compare -- {old_path} vs {new_path}"]
    regressed = 0
    for mode, suite in diff["suites"].items():
        if suite["status"] != "both":
            where = new_path if suite["status"] == "added" else old_path
            lines.append(f"  {mode}: suite only in {where}")
            continue
        lines.append(f"  {mode} suite:")
        lines.append(
            f"    {'benchmark':<40} {'old':>9} {'new':>9} {'ratio':>7} "
            f"{'speedup':>15}"
        )
        for name, entry in suite["benchmarks"].items():
            if entry["status"] in ("added", "removed"):
                lines.append(
                    f"    {name:<40} ({entry['status']} in {new_path})"
                )
                continue
            if not entry["timings"]:
                lines.append(f"    {name:<40} (no comparable timings)")
                continue
            speedups = (
                f"{entry['old_speedup']:>6.2f}x->{entry['new_speedup']:.2f}x"
                if "old_speedup" in entry
                else ""
            )
            for field, t in entry["timings"].items():
                label = name if field == "new_s" else f"{name}.{field}"
                flag = ""
                if threshold > 0 and t["ratio"] > threshold:
                    flag = "  <-- REGRESSED"
                    regressed += 1
                elif threshold > 0 and t["ratio"] < 1.0 / threshold:
                    flag = "  (improved)"
                lines.append(
                    f"    {label:<40} {t['old']:>8.4f}s {t['new']:>8.4f}s "
                    f"{t['ratio']:>6.2f}x {speedups:>15}{flag}"
                )
    lines.append(
        f"  {regressed} regression(s) beyond {threshold:.2f}x"
        if regressed
        else f"  no regressions beyond {threshold:.2f}x"
    )
    return "\n".join(lines)


def compare_files(
    old_path: str, new_path: str, threshold: float = DEFAULT_DIFF_THRESHOLD
) -> tuple[bool, str]:
    """Diff two report files; returns ``(no regression, rendered diff)``
    (or ``(False, message)`` naming the unreadable reports)."""
    old, new = load_report(old_path), load_report(new_path)
    missing = [p for p, r in ((old_path, old), (new_path, new)) if r is None]
    if missing:
        return False, (
            "bench-compare: not a readable benchmark report: "
            + ", ".join(missing)
        )
    diff = diff_reports(old, new, threshold)
    regressed = any(
        entry["status"] == "regressed"
        for suite in diff["suites"].values()
        for entry in suite["benchmarks"].values()
    )
    return not regressed, render_diff(diff, old_path, new_path)
