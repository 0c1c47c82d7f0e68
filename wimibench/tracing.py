"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public calls into each layer of ``repro`` -- from
this file, never from inside the program -- for the duration of a
``with`` block, and restores the originals on exit.  Every wrapped call
records a span (layer, start, end, parent) on a per-thread stack;
spans stay in memory and are aggregated once the traced phase ends.

A layer's self time is its span durations minus the time covered by its
child spans.  Children are found on the opening thread's stack only, so
on one thread the self times of its spans sum to the durations of that
thread's root spans -- which is what the harness checks against the
phase's wall-clock time.  Time inside ``WiMi.identify_batch`` that no
engine stage covers stays in ``core``'s self time: the unattributed
share.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict

from repro.cluster import ClusterClient
from repro.core.database import DatabaseClassifier
from repro.core.pipeline import WiMi
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine import PipelineEngine, StageCache
from repro.persist import ArtifactStore
from repro.serve import IdentificationService

#: ``PipelineEngine`` method -> stage name (the name ``StageCache``
#: resolves under and the one the per-layer metrics use).
ENGINE_STAGES = {
    "trace_quality": "trace_quality",
    "phase_calibration": "phase_calibration",
    "amplitude_denoise": "amplitude_denoise",
    "observables": "observables",
    "select_subcarriers": "subcarrier_selection",
    "extract_feature": "feature_extraction",
    "classify": "classify",
}

TIERS = ("memory", "disk", "compute")


class Span:
    """One timed call; ``child_s`` accumulates nested spans' durations."""

    __slots__ = ("layer", "start", "end", "parent", "child_s", "thread")

    def __init__(self, layer: str, start: float, parent):
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Record spans around the layer entry points while active.

    Patching is class-level, so calls from service worker threads are
    traced too; cluster worker processes are separate interpreters and
    are observed through ``ClusterClient.snapshot()`` instead.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.tiers: Counter = Counter()
        self._tiers_lock = threading.Lock()
        self.persist_paths: dict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._saved: list[tuple[type, str, object]] = []

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: type, attr: str, make) -> None:
        original = owner.__dict__[attr]
        patched = make(original)
        patched.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, patched)

    def _wrap(self, owner: type, attr: str, layer: str, after=None) -> None:
        self._patch(owner, attr, lambda original: self._spanned(
            original, layer, after))

    def _spanned(self, original, layer: str, after):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(layer, time.perf_counter(), parent)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- per-layer hooks -----------------------------------------------

    def _tier_counter(self, original):
        # Counts only: no span, so cache bookkeeping stays in the
        # calling stage's self time.
        tiers, lock = self.tiers, self._tiers_lock

        def counted(cache, stage, key, compute):
            artifact, tier = original(cache, stage, key, compute)
            with lock:
                tiers[(stage, tier)] += 1
            return artifact, tier

        return counted

    def _persist_after(self, op: str):
        def record(args, result):
            store, stage, key = args[0], args[1], args[2]
            if (result is not None) if op == "get" else result:
                self.persist_paths[op].append(store.path_for(stage, key))
        return record

    def __enter__(self) -> "Tracer":
        self._wrap(WiMi, "identify_batch", "core")
        for method, stage in ENGINE_STAGES.items():
            self._wrap(PipelineEngine, method, f"engine.{stage}")
        self._patch(StageCache, "resolve_tier", self._tier_counter)
        self._wrap(SpatiallySelectiveDenoiser, "denoise", "dsp.denoise")
        self._wrap(DatabaseClassifier, "predict", "ml.predict")
        self._wrap(ArtifactStore, "put", "persist.put",
                   after=self._persist_after("put"))
        self._wrap(ArtifactStore, "get", "persist.get",
                   after=self._persist_after("get"))
        self._wrap(IdentificationService, "submit", "serve.submit")
        self._wrap(ClusterClient, "submit", "cluster.submit")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "busy_s", "self_s"}}`` over every span."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = totals[span.layer]
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += span.self_s
        return totals

    def self_seconds(self, thread: int, layer: str | None = None) -> float:
        """Self time of the spans opened on ``thread`` (all layers, or
        only ``layer``).  Over all layers this equals the durations of
        the thread's root spans; spans on other threads are left out, as
        they run concurrently with the thread's own."""
        return sum(
            span.self_s for span in self.spans
            if span.thread == thread and layer in (None, span.layer)
        )

    def persist_bytes(self, op: str) -> int:
        """Bytes of the store entries written (``put``) or read (``get``).

        Sizes are read from disk after the traced phase, so the ``stat``
        calls never fall inside a span.
        """
        total = 0
        for path in self.persist_paths[op]:
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                pass
        return total
