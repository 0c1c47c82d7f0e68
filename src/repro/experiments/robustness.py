"""Accuracy-under-fault sweeps: how gracefully does WiMi degrade?

The paper's evaluation assumes clean captures; a deployed sniffer does
not get that luxury.  This module measures identification accuracy when
the *test* sessions are damaged by the :mod:`repro.csi.faults`
injectors while training stays clean -- the realistic asymmetry, since
the feature database is built once under supervision but identification
runs unattended.

Two sweeps, mirroring the acceptance scenarios of the robustness PR:

* :func:`packet_loss_sweep` -- accuracy vs. dropped-packet rate.
* :func:`antenna_dropout_sweep` -- accuracy with one RX chain dead
  (NaN or zeroed), per antenna, exercising the fallback-pair path.

A session the quality gate rejects (:class:`CorruptTraceError`) counts
as *wrong*: a deployment that refuses to answer has not identified the
target.  Rejections and degraded-but-answered sessions are reported
separately so the sweep distinguishes "still accurate", "accurate via
fallbacks" and "refused".

Scenarios are self-contained picklable payloads run through
:func:`repro.experiments.runner.parallel_map`, so ``workers > 1``
spreads a sweep across processes bit-identically to the serial path.

Both sweeps are the cases of the ``robustness`` suite of ``repro
bench`` (committed as ``ROBUSTNESS_PR5.json``; CI-sized already, so
``smoke`` and ``full`` run the same sizes), gated by :func:`check`.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence

from repro.channel.materials import default_catalog
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.faults import AntennaDropout, PacketLoss, TraceFault
from repro.csi.faults import inject_session
from repro.csi.quality import CorruptTraceError, DegradedTraceWarning
from repro.experiments.bench import Suite
from repro.experiments.datasets import collect_dataset, split_dataset
from repro.experiments.runner import parallel_map

#: A small, well-separated material set keeps the sweep fast while the
#: clean-capture point still sits at or near 100% accuracy, so any drop
#: is attributable to the injected fault rather than task difficulty.
DEFAULT_MATERIALS = ("pure_water", "pepsi", "vinegar")

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.2, 0.3)
DEFAULT_REPETITIONS = 8
DEFAULT_PACKETS = 16
DEFAULT_TRAIN_FRACTION = 0.5

#: Largest accuracy drop :func:`check` accepts between a packet-loss
#: point and the loss-free one; 12 test sessions, so one miss passes.
MAX_LOSS_ACCURACY_DROP = 0.1

_SIZES = dict.fromkeys(("smoke", "full"), {
    "seed": 1, "workers": 2, "repetitions": DEFAULT_REPETITIONS,
    "packets": DEFAULT_PACKETS,
})


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one fault scenario over one deployment's test split.

    Attributes:
        sweep: Which sweep produced this point.
        scenario: Human-readable fault description (e.g. ``loss=0.2``).
        parameter: The swept value (loss rate, or ``antenna:mode``).
        total: Test sessions evaluated.
        correct: Sessions identified as their true material.
        rejected: Sessions the quality gate refused
            (:class:`CorruptTraceError`); counted as wrong.
        degraded: Sessions answered *through* the degradation path
            (fallback pair / subcarrier exclusion engaged).
    """

    sweep: str
    scenario: str
    parameter: float | str
    total: int
    correct: int
    rejected: int
    degraded: int

    @property
    def accuracy(self) -> float:
        """Fraction of test sessions answered correctly (rejects count)."""
        return self.correct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "accuracy": round(self.accuracy, 4)}


def _scenario_task(payload: tuple) -> ScenarioResult:
    """Picklable worker: one fault scenario, end to end.

    Collects its own deployment (deterministic in ``seed``), fits on the
    clean train split, injects ``faults`` into every test session under
    a per-session seed, and scores.  Fully self-contained so
    :func:`parallel_map` can ship it to a spawn-context process.
    """
    (sweep, scenario, parameter, material_names, faults, seed,
     repetitions, num_packets, train_fraction) = payload
    catalog = default_catalog()
    materials = [catalog.get(name) for name in material_names]
    dataset = collect_dataset(
        materials,
        repetitions=repetitions,
        num_packets=num_packets,
        seed=seed,
    )
    train, test = split_dataset(dataset, train_fraction)
    wimi = WiMi(theory_reference_omegas(materials))
    wimi.fit(train)

    correct = rejected = degraded = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedTraceWarning)
        for index, session in enumerate(test):
            faulty = (
                inject_session(session, faults, seed=1000 * seed + index)
                if faults
                else session
            )
            try:
                features = wimi.extract(faulty)
            except CorruptTraceError:
                rejected += 1
                continue
            quality = features.quality
            if quality is not None and quality.is_degraded:
                degraded += 1
            if wimi.identify_measurement(features) == session.material_name:
                correct += 1
    return ScenarioResult(
        sweep=sweep,
        scenario=scenario,
        parameter=parameter,
        total=len(test),
        correct=correct,
        rejected=rejected,
        degraded=degraded,
    )


def _payload(
    sweep: str,
    scenario: str,
    parameter: float | str,
    faults: tuple[TraceFault, ...],
    materials: Sequence[str],
    seed: int,
    repetitions: int,
    num_packets: int,
    train_fraction: float,
) -> tuple:
    return (
        sweep, scenario, parameter, tuple(materials), faults, seed,
        repetitions, num_packets, train_fraction,
    )


def packet_loss_sweep(
    rates: Sequence[float] = DEFAULT_LOSS_RATES,
    materials: Sequence[str] = DEFAULT_MATERIALS,
    seed: int = 0,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Accuracy vs. dropped-packet rate on the test sessions."""
    payloads = [
        _payload(
            "packet_loss",
            f"loss={rate:g}",
            float(rate),
            (PacketLoss(rate),) if rate > 0 else (),
            materials, seed, repetitions, num_packets, train_fraction,
        )
        for rate in rates
    ]
    return parallel_map(_scenario_task, payloads, workers=workers)


def antenna_dropout_sweep(
    materials: Sequence[str] = DEFAULT_MATERIALS,
    modes: Sequence[str] = ("nan", "zero"),
    seed: int = 0,
    repetitions: int = DEFAULT_REPETITIONS,
    num_packets: int = DEFAULT_PACKETS,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    workers: int = 1,
) -> list[ScenarioResult]:
    """Accuracy with one RX chain dead, per antenna and failure mode.

    The ``none`` scenario anchors the sweep; each other point kills one
    specific antenna on every test session (same chain on baseline and
    target, as a broken RX cable would), forcing identification through
    the fallback antenna-pair path.
    """
    payloads = [
        _payload(
            "antenna_dropout", "none", "none", (),
            materials, seed, repetitions, num_packets, train_fraction,
        )
    ]
    for mode in modes:
        for antenna in range(3):
            payloads.append(
                _payload(
                    "antenna_dropout",
                    f"antenna={antenna},mode={mode}",
                    f"{antenna}:{mode}",
                    (AntennaDropout(antenna=antenna, mode=mode),),
                    materials, seed, repetitions, num_packets,
                    train_fraction,
                )
            )
    return parallel_map(_scenario_task, payloads, workers=workers)


def _sweep(sweep, sizes: dict) -> dict:
    points = sweep(
        seed=sizes["seed"],
        repetitions=sizes["repetitions"],
        num_packets=sizes["packets"],
        workers=sizes["workers"],
    )
    return {
        "materials": list(DEFAULT_MATERIALS),
        "points": [point.to_dict() for point in points],
    }


def _cases(sizes: dict):
    yield "packet_loss", partial(_sweep, packet_loss_sweep, sizes)
    yield "antenna_dropout", partial(_sweep, antenna_dropout_sweep, sizes)


def check(results: dict, mode: str) -> list[str]:
    """The part of the sweep table that holds today, as a gate.

    No packet-loss point may fall more than
    :data:`MAX_LOSS_ACCURACY_DROP` below the loss-free point or reject
    a session.  The dead-antenna rows (33-67% accuracy, the
    degraded-gamma fallback) are recorded but ungated until that
    fallback is fixed.
    """
    points = results.get("packet_loss", {}).get("points", [])
    anchor = next((p for p in points if p["parameter"] == 0.0), None)
    failures = []
    for point in points:
        drop = anchor["accuracy"] - point["accuracy"]
        if drop > MAX_LOSS_ACCURACY_DROP:
            failures.append(
                f"packet_loss {point['scenario']}: accuracy "
                f"{point['accuracy']:.1%} is {drop:.1%} below loss=0"
            )
        if point["rejected"]:
            failures.append(
                f"packet_loss {point['scenario']}: {point['rejected']} "
                "session(s) rejected"
            )
    return failures


def render(results: dict) -> list[str]:
    lines = ["  clean training, faulty test captures:"]
    for sweep, data in results.items():
        lines.append(f"  {sweep}:")
        for point in data["points"]:
            lines.append(
                f"    {point['scenario']:<22} accuracy "
                f"{point['accuracy']:>6.1%}  ({point['correct']}/"
                f"{point['total']} correct, {point['rejected']} rejected, "
                f"{point['degraded']} degraded)"
            )
    return lines


#: Gates the packet-loss sweep only (see :func:`check`).
SUITE = Suite(
    name="robustness",
    title="accuracy-under-fault sweeps (packet loss, dead antenna)",
    sizes=_SIZES,
    cases=_cases,
    output="ROBUSTNESS_PR5.json",
    check=check,
    render=render,
)
