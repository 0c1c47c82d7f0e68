"""Unit tests: stage-graph artifacts, keying and the stage cache."""

import numpy as np
import pytest

from repro.channel.environment import make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import default_catalog
from repro.core.config import WiMiConfig
from repro.csi.collector import DataCollector
from repro.csi.simulator import SimulationScene
from repro.engine import (
    ALL_STAGES,
    AMPLITUDE_DENOISE,
    CLASSIFY,
    FEATURE_EXTRACTION,
    PHASE_CALIBRATION,
    PhaseArtifact,
    StageCache,
    StageCounter,
    StageEvent,
    config_fingerprint,
    session_fingerprint,
    stage_graph,
    trace_fingerprint,
)

CATALOG = default_catalog()


@pytest.fixture(scope="module")
def sessions():
    scene = SimulationScene(
        geometry=LinkGeometry(),
        environment=make_environment("lab"),
        target=CylinderTarget(lateral_offset=0.02),
    )
    collector = DataCollector(scene, rng=11)
    return collector.collect_many(CATALOG.get("pepsi"), 2)


class TestFingerprints:
    def test_trace_fingerprint_is_content_hash(self, sessions):
        a, b = sessions
        assert trace_fingerprint(a.baseline) == trace_fingerprint(a.baseline)
        assert trace_fingerprint(a.baseline) != trace_fingerprint(a.target)
        assert trace_fingerprint(a.target) != trace_fingerprint(b.target)

    def test_trace_fingerprint_pinned_on_object(self, sessions):
        trace = sessions[0].baseline
        fp = trace_fingerprint(trace)
        assert getattr(trace, "_engine_fingerprint") == fp

    def test_session_fingerprint_distinguishes_sessions(self, sessions):
        a, b = sessions
        assert session_fingerprint(a) == session_fingerprint(a)
        assert session_fingerprint(a) != session_fingerprint(b)

    def test_config_fingerprint_empty_fields(self):
        assert config_fingerprint(WiMiConfig(), ()) == "-"

    def test_config_fingerprint_only_declared_fields(self):
        base = WiMiConfig()
        clf_changed = base.with_overrides(classifier="knn")
        wavelet_changed = base.with_overrides(wavelet_name="haar")
        fields = AMPLITUDE_DENOISE.config_fields
        # Classifier choice must not invalidate denoise artifacts...
        assert config_fingerprint(base, fields) == config_fingerprint(
            clf_changed, fields
        )
        # ...but a denoiser knob must.
        assert config_fingerprint(base, fields) != config_fingerprint(
            wavelet_changed, fields
        )


class TestStageGraph:
    def test_all_stages_declared_once(self):
        names = [spec.name for spec in ALL_STAGES]
        assert len(names) == len(set(names)) == 8

    def test_edges_reference_known_stages(self):
        graph = stage_graph()
        for stage, inputs in graph.items():
            for upstream in inputs:
                assert upstream in graph, f"{stage} consumes unknown {upstream}"

    def test_chain_shape(self):
        graph = stage_graph()
        assert graph[PHASE_CALIBRATION.name] == ()
        assert AMPLITUDE_DENOISE.name in graph["observables"]
        assert FEATURE_EXTRACTION.name in graph[CLASSIFY.name]


class TestStageCache:
    def test_resolve_miss_then_hit(self):
        cache = StageCache()
        calls = []
        value, hit = cache.resolve("s", "k", lambda: calls.append(1) or 42)
        assert (value, hit) == (42, False)
        value, hit = cache.resolve("s", "k", lambda: calls.append(1) or 99)
        assert (value, hit) == (42, True)
        assert len(calls) == 1
        assert cache.stats["s"].hits == 1
        assert cache.stats["s"].misses == 1
        assert cache.stats["s"].hit_rate == 0.5

    def test_keys_are_per_stage(self):
        cache = StageCache()
        cache.store("a", "k", 1)
        cache.store("b", "k", 2)
        assert cache.lookup("a", "k") == (1, True)
        assert cache.lookup("b", "k") == (2, True)

    def test_lru_eviction(self):
        cache = StageCache(max_entries=2)
        cache.store("s", "k1", 1)
        cache.store("s", "k2", 2)
        cache.lookup("s", "k1")  # refresh k1; k2 becomes LRU
        cache.store("s", "k3", 3)
        assert ("s", "k1") in cache
        assert ("s", "k2") not in cache
        assert ("s", "k3") in cache

    def test_invalidate_stage(self):
        cache = StageCache()
        cache.store("a", "k1", 1)
        cache.store("a", "k2", 2)
        cache.store("b", "k1", 3)
        assert cache.invalidate_stage("a") == 2
        assert len(cache) == 1
        assert ("b", "k1") in cache

    def test_clear_resets_stats(self):
        cache = StageCache()
        cache.resolve("s", "k", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.snapshot() == {}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            StageCache(max_entries=0)

    def test_snapshot_is_plain_data(self):
        cache = StageCache()
        cache.resolve("s", "k", lambda: 1)
        cache.resolve("s", "k", lambda: 1)
        snap = cache.snapshot()
        assert snap == {
            "s": {
                "hits": 1,
                "memory_hits": 1,
                "disk_hits": 0,
                "misses": 1,
                "hit_rate": 0.5,
            }
        }


class TestStageCounter:
    def test_counts_executions_and_hits(self):
        counter = StageCounter()
        counter(StageEvent(stage="s", key="k", cache_hit=False,
                           tier="compute"))
        counter(StageEvent(stage="s", key="k", cache_hit=True, tier="memory"))
        counter(StageEvent(stage="s", key="k", cache_hit=True, tier="memory"))
        assert counter.executions == {"s": 1}
        assert counter.hits == {"s": 2}
        assert counter.total("s") == 3
        counter.reset()
        assert counter.total("s") == 0


class TestArtifactImmutability:
    def test_cached_arrays_are_read_only(self):
        artifact = PhaseArtifact(
            key="k", pair=(0, 1), theta_wrapped=np.zeros(4)
        )
        with pytest.raises(ValueError):
            artifact.theta_wrapped[0] = 1.0
