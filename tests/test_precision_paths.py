"""Reduced-precision compute paths and zero-copy buffer management.

Covers the precision plumbing (dtype resolution, config validation,
cache-key separation), the ring-buffer window arena, the denoiser's
reusable per-thread workspaces (allocation-churn fix), and that the
float32 classifier path leaves predictions unchanged.  End-to-end
float32-vs-float64 equivalence lives in ``test_perf_equivalence.py``;
codec dtype preservation in ``test_persist_serialize.py``.
"""

import threading

import numpy as np
import pytest

from repro.core.config import WiMiConfig
from repro.core.database import DatabaseClassifier, MaterialDatabase
from repro.csi.simulator import CsiSimulator
from repro.dsp.precision import (
    PRECISIONS,
    complex_dtype,
    precision_of,
    real_dtype,
    unit_phasor,
    validate_precision,
)
from repro.dsp.ringbuffer import RowRingBuffer
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser
from repro.engine.artifacts import array_fingerprint
from repro.engine.stages import (
    AMPLITUDE_DENOISE,
    CLASSIFY,
    OBSERVABLES,
    STREAM_WINDOW_DENOISE,
)
from repro.experiments.datasets import standard_scene
from repro.ml.multiclass import OneVsOneSVC

RNG = np.random.default_rng(7)


class TestPrecisionHelpers:
    def test_validate_accepts_both_names(self):
        for name in PRECISIONS:
            assert validate_precision(name) == name

    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="precision"):
            validate_precision("float16")

    def test_dtype_resolution(self):
        assert real_dtype(None) == np.float64
        assert real_dtype("float64") == np.float64
        assert real_dtype("float32") == np.float32
        assert complex_dtype(None) == np.complex128
        assert complex_dtype("float64") == np.complex128
        assert complex_dtype("float32") == np.complex64

    def test_precision_of(self):
        assert precision_of(np.float32) == "float32"
        assert precision_of(np.complex64) == "float32"
        assert precision_of(np.float64) == "float64"
        assert precision_of(np.int64) == "float64"

    def test_config_validates_precision(self):
        assert WiMiConfig().compute_precision == "float64"
        assert WiMiConfig(compute_precision="float32")
        with pytest.raises(ValueError, match="compute_precision"):
            WiMiConfig(compute_precision="half")


class TestUnitPhasor:
    def test_float64_is_bitwise_exp(self):
        phase = RNG.normal(size=(5, 7))
        out = unit_phasor(phase)
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.exp(1j * phase))

    def test_float32_matches_exp_within_rounding(self):
        phase = RNG.normal(size=(5, 7)).astype(np.float32)
        out = unit_phasor(phase)
        assert out.dtype == np.complex64
        exact = np.exp(1j * phase.astype(np.float64))
        assert np.max(np.abs(out - exact)) < 5e-7
        assert np.allclose(np.abs(out), 1.0, atol=5e-7)


class TestRowRingBuffer:
    def test_append_and_window_views(self):
        buffer = RowRingBuffer(channels=4, capacity=2)
        rows = RNG.normal(size=(10, 4))
        for row in rows:
            buffer.append(row)
        assert len(buffer) == 10
        window = buffer.window(3, 8)
        assert window.flags.c_contiguous
        assert not window.flags.writeable
        assert np.array_equal(window, rows[3:8])
        assert np.array_equal(buffer.rows(), rows)

    def test_window_is_zero_copy(self):
        buffer = RowRingBuffer(channels=3, capacity=16)
        for row in RNG.normal(size=(8, 3)):
            buffer.append(row)
        view = buffer.window(2, 6)
        assert view.base is not None  # a view, not a fresh array

    def test_append_copies_the_row(self):
        buffer = RowRingBuffer(channels=3)
        row = np.ones(3)
        buffer.append(row)
        row[:] = 99.0  # caller may reuse its row afterwards
        assert np.array_equal(buffer.window(0, 1)[0], np.ones(3))

    def test_old_views_survive_growth(self):
        buffer = RowRingBuffer(channels=2, capacity=2)
        first = buffer.append(np.array([1.0, 2.0]))
        buffer.append(np.array([3.0, 4.0]))
        for k in range(20):  # force several grows
            buffer.append(np.array([float(k), 0.0]))
        assert np.array_equal(first, [1.0, 2.0])

    def test_dtype_is_respected(self):
        buffer = RowRingBuffer(channels=2, dtype=np.float32)
        stored = buffer.append(np.array([1.0, 2.0]))
        assert buffer.dtype == np.float32
        assert stored.dtype == np.float32

    def test_shape_and_range_errors(self):
        buffer = RowRingBuffer(channels=3)
        with pytest.raises(ValueError, match="row shape"):
            buffer.append(np.zeros(4))
        buffer.append(np.zeros(3))
        with pytest.raises(IndexError, match="out of range"):
            buffer.window(0, 2)
        with pytest.raises(ValueError, match="channels"):
            RowRingBuffer(channels=0)


class TestDenoiserPrecision:
    def _trace(self, dtype=np.float64):
        t = np.arange(64)[:, None]
        x = 1.0 + 0.05 * np.sin(2 * np.pi * t / 16.0 + np.arange(6))
        x += 0.01 * np.random.default_rng(0).standard_normal(x.shape)
        return x.astype(dtype)

    def test_float32_output_dtype_and_agreement(self):
        x = self._trace()
        out64 = SpatiallySelectiveDenoiser(precision="float64").denoise(x)
        out32 = SpatiallySelectiveDenoiser(precision="float32").denoise(
            x.astype(np.float32)
        )
        assert out64.dtype == np.float64
        assert out32.dtype == np.float32
        scale = float(np.max(np.abs(out64)))
        assert np.max(np.abs(out32 - out64)) / scale < 1e-3

    def test_scalar_path_matches_without_workspace_reuse_artifacts(self):
        # Back-to-back warm calls must not leak state between calls.
        x = self._trace()[:, 0]
        denoiser = SpatiallySelectiveDenoiser()
        first = denoiser._reference_denoise(x)
        second = denoiser._reference_denoise(x)
        assert np.array_equal(first, second)

    def test_workspaces_are_thread_local(self):
        x = self._trace()
        denoiser = SpatiallySelectiveDenoiser()
        expected = denoiser.denoise(x)
        results = {}

        def worker(name):
            results[name] = [denoiser.denoise(x) for _ in range(5)]

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for outs in results.values():
            for out in outs:
                assert np.array_equal(out, expected)

    def test_denoiser_survives_pickling(self):
        import pickle

        x = self._trace()
        denoiser = SpatiallySelectiveDenoiser(precision="float32")
        denoiser.denoise(x.astype(np.float32))
        clone = pickle.loads(pickle.dumps(denoiser))
        assert np.array_equal(
            clone.denoise(x.astype(np.float32)),
            denoiser.denoise(x.astype(np.float32)),
        )


class TestCacheKeySeparation:
    def test_precision_is_a_stage_config_field(self):
        # float32 and float64 runs of the same trace must never share a
        # cached artifact: the working precision is part of the key of
        # every stage whose output depends on it.
        for stage in (
            AMPLITUDE_DENOISE,
            STREAM_WINDOW_DENOISE,
            OBSERVABLES,
            CLASSIFY,
        ):
            assert "compute_precision" in stage.config_fields

    def test_array_fingerprint_separates_dtypes(self):
        x64 = RNG.normal(size=(8, 3))
        x32 = x64.astype(np.float32)
        assert array_fingerprint(x64) != array_fingerprint(x32)
        # Same float32 window hashed twice is stable.
        assert array_fingerprint(x32) == array_fingerprint(x32.copy())


class TestClassifierPrecision:
    def _blobs(self):
        rng = np.random.default_rng(0)
        x = np.vstack(
            [rng.normal(c, 0.6, size=(20, 4)) for c in (0.0, 3.0, 6.0)]
        )
        y = np.array(sum(([label] * 20 for label in "abc"), []))
        return x, y

    def test_float32_gram_predictions_match_float64(self):
        x, y = self._blobs()
        p64 = OneVsOneSVC(precision="float64").fit(x, y).predict(x)
        p32 = OneVsOneSVC(precision="float32").fit(x, y).predict(x)
        assert np.array_equal(p64, p32)

    def _database(self):
        x, y = self._blobs()
        db = MaterialDatabase()
        for vector, label in zip(x, y):
            db.add_vector(label, vector)
        return db, x

    def test_database_classifier_state_round_trips_precision(self):
        db, x = self._database()
        clf = DatabaseClassifier(precision="float32").fit(db)
        restored = DatabaseClassifier.from_state(*clf.to_state())
        assert restored.precision == "float32"
        assert np.array_equal(restored.predict(x), clf.predict(x))

    def test_older_state_without_precision_defaults_float64(self):
        db, _ = self._database()
        meta, arrays = DatabaseClassifier().fit(db).to_state()
        meta.pop("precision")
        assert DatabaseClassifier.from_state(meta, arrays).precision == (
            "float64"
        )


class TestSimulatorPrecision:
    def test_float32_capture_close_to_float64(self):
        scene = standard_scene("lab")
        from repro.channel.materials import default_catalog

        water = default_catalog().get("pure_water")
        m64 = CsiSimulator(scene, rng=0, precision="float64").capture(
            water, 40
        ).matrix()
        m32 = CsiSimulator(scene, rng=0, precision="float32").capture(
            water, 40
        ).matrix()
        # Tolerance rationale (DESIGN.md §14): pure float32 rounding is
        # ~5e-6 relative, but the int8 quantiser flips a boundary here
        # and there; one quantisation step is ~0.8% of the peak.
        scale = float(np.max(np.abs(m64)))
        assert np.max(np.abs(m32 - m64)) / scale < 0.02

    def test_emitted_trace_is_always_complex128(self):
        scene = standard_scene("lab")
        from repro.channel.materials import default_catalog

        water = default_catalog().get("pure_water")
        trace = CsiSimulator(scene, rng=0, precision="float32").capture(
            water, 8
        )
        assert trace.matrix().dtype == np.complex128

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            CsiSimulator(standard_scene("lab"), rng=0, precision="double")
