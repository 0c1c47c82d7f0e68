"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    python -m pytest wimibench -q

They live beside the benchmark, outside ``tests/`` and ``benchmarks/``,
so neither the tier-1 suite nor the benchmarks smoke step collects them.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: End-to-end metrics of the workload that BENCHMARK.json does not gate;
#: the gated ones print exactly BENCHMARK.json's.
STORE_METRICS = {
    "setup_s": "s",
    "store_write_sessions_per_s": "1/s",
    "store_read_sessions_per_s": "1/s",
}

TINY = harness.Sizes(
    train_reps=2, setup_repeats=2, batch_size=5, batches=2,
    burst_size=6, burst_slices=2, open_rate=20.0, open_seconds=1.5,
    min_latency_samples=10,
)


def _run(workload: str, trace: bool, tmp_path: Path) -> harness.Result:
    return harness.run_workload(workload, 3, 0.5, trace, tmp_path, TINY)


def test_spec_names_and_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["command"] == ["python3", "wimibench/run.py"]
    assert SPEC["paths"] == ["wimibench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_record(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    record = json.loads(json.dumps(result.record()))
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    if trace:
        wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    elif workload == "store_rescan":
        wanted = STORE_METRICS
    else:
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(record["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        entry = record["metrics"][name]
        assert entry["unit"] == unit
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    assert not (tmp_path / ".wimibench_tmp").exists()


def test_traced_layers_cover_the_batch(tmp_path):
    metrics = _run("batch_cold", True, tmp_path).metrics
    assert metrics["dsp.denoise.calls"]["value"] > 0
    assert metrics["ml.predict.calls"]["value"] > 0
    assert metrics["engine.amplitude_denoise.compute"]["value"] > 0
    assert metrics["persist.put.calls"]["value"] > 0
    assert metrics["persist.get.bytes"]["value"] > 0
    share = metrics["trace.self_time_share"]["value"]
    assert abs(1 - share) <= harness.SELF_TIME_TOLERANCE
    assert 0 < metrics["trace.unattributed_share"]["value"] < 0.5


def test_self_time_counts_only_the_calling_thread():
    class Slow:
        def call(self, inner: bool) -> None:
            if inner:
                Slow().call(False)
            else:
                threading.Event().wait(0.02)

    tracer = tracing.Tracer()
    tracer._wrap(Slow, "call", "core")
    with tracer:
        Slow().call(True)
        other = threading.Thread(target=Slow().call, args=(False,))
        other.start()
        other.join()
    assert len(tracer.spans) == 3
    root = next(s for s in tracer.spans if s.parent is None
                and s.thread == threading.get_ident())
    mine = tracer.self_seconds(threading.get_ident())
    assert mine == pytest.approx(root.duration)
    assert tracer.self_seconds(other.ident) >= 0.02
    assert Slow.call.__name__ == "call"


def test_traced_serve_run_covers_service_and_cluster(tmp_path):
    metrics = _run("serve_open", True, tmp_path).metrics
    assert metrics["serve.worker_busy_s"]["value"] > 0
    assert metrics["serve.batch_size"]["value"] >= 1
    assert metrics["cluster.boot_s"]["value"] > 0
    assert metrics["cluster.cache.compute"]["value"] > 0
    assert metrics["open_loop.requests"]["value"] > 0


def test_setup_clock_spreads_its_repeats(tmp_path):
    clock = harness.SetupClock(3, TINY, tmp_path, repeats=3)
    assert len(clock.deployment.setup_times) == 1
    clock.start(60.0)
    clock.tick()
    assert len(clock.deployment.setup_times) == 1
    clock.finish()
    assert len(clock.deployment.setup_times) == 3


def test_wrong_label_counts_as_failed(tmp_path, monkeypatch):
    honest = harness.reference_labels

    def tampered(wimi, sessions):
        labels = honest(wimi, sessions)
        labels[0] = "not-a-liquid"
        return labels

    monkeypatch.setattr(harness, "reference_labels", tampered)
    record = _run("batch_cold", False, tmp_path).record()
    assert record["correct"] is False
    assert record["failed"] >= 1


def test_ledger_counts_errors_and_mismatches():
    ledger = loadgen.Ledger()
    ledger.check("phase", ["water", "oil"], ["water", "milk"])
    ledger.fail("phase", loadgen.ServeError("refused"))
    phase = ledger.phases["phase"]
    assert (phase.attempted, phase.succeeded, phase.failed) == (3, 1, 2)
    assert ledger.wrong_labels == 1


def test_open_loop_stream_is_seeded_and_mixed():
    first = harness.open_loop_stream(7, 40.0, 30.0)
    assert first == harness.open_loop_stream(7, 40.0, 30.0)
    assert first != harness.open_loop_stream(8, 40.0, 30.0)
    due_s, picks, distinct = first
    assert len(picks) == 1200 and due_s == sorted(due_s)
    assert 0.4 < 1 - distinct / len(picks) < 0.6
    sent = {}
    for due, pick in zip(due_s, picks):
        if pick in sent:
            low, high = harness.REPEAT_AGE_S
            assert low <= due - sent[pick] <= high
        else:
            sent[pick] = due


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert loadgen.percentile(values, 50) == 500
    assert loadgen.percentile(values, 99) == 990
    assert loadgen.percentile([3.0], 99) == 3.0


def test_run_leaves_no_child_process():
    """The ``multiprocessing`` resource tracker and any other child are
    stopped and reaped before ``run.py`` returns."""
    script = (
        "import json, multiprocessing, subprocess, sys\n"
        "sys.path.insert(0, 'wimibench')\n"
        "import run\n"
        "run.CHILD_GRACE_S = 0.5\n"
        "multiprocessing.get_context('spawn').Queue().put(1)\n"
        "subprocess.Popen(['sleep', '60'])\n"
        "before = run._children()\n"
        "killed = run.reap_children()\n"
        "print(json.dumps([before, killed, run._children()]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    before, killed, after = json.loads(done.stdout.splitlines()[-1])
    # The tracker ends on its own; only the sleeping child is killed.
    assert len(before) == 2 and len(killed) == 1 and after == []
    assert "Traceback" not in done.stderr


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "wimibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "wimibench/run.py", "--workload", "batch_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
