"""Stacked many-trace denoising: differential and stage-accounting tests.

``WiMi.extract_batch`` denoises every trace its cache lacks in one
stacked denoiser pass: the ``(M, K*A)`` columns of all traces with the
same packet count go through one ``SpatiallySelectiveDenoiser.denoise``
call.  Every denoiser step is per column, so the stacked result must equal
per-trace denoising bit for bit, and the stage accounting (executions,
tier hits, disk write-through, deadline) must be that of per-trace calls.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.materials import default_catalog
from repro.core.amplitude import AmplitudeProcessor
from repro.core.feature import theory_reference_omegas
from repro.core.pipeline import WiMi
from repro.csi.model import CsiTrace
from repro.dsp.stats import mad_axis, sorted_median
from repro.dsp.wavelet import available_wavelets, get_wavelet, iswt, swt
from repro.dsp.wavelet_denoise import (
    SpatiallySelectiveDenoiser,
    _reference_remove_outliers,
    remove_outliers,
)
from repro.engine import StageCache, StageCounter
from repro.experiments.datasets import collect_dataset, standard_scene
from repro.persist import ArtifactStore
from repro.resilience.deadline import (
    Deadline,
    DeadlineExpiredError,
    deadline_scope,
)

_CATALOG = default_catalog()
_MATERIALS = [_CATALOG.get(n) for n in ("pure_water", "oil", "milk")]


@contextmanager
def _denoiser_calls():
    """Record the column count of every ``denoise`` call in the block."""
    widths: list[int] = []
    original = SpatiallySelectiveDenoiser.denoise

    def counted(self, x):
        widths.append(np.asarray(x).shape[1] if np.ndim(x) == 2 else 1)
        return original(self, x)

    SpatiallySelectiveDenoiser.denoise = counted
    try:
        yield widths
    finally:
        SpatiallySelectiveDenoiser.denoise = original


def _trace(seed: int, packets: int, nan_rate: float = 0.0,
           dead: bool = False, subcarriers: int = 5,
           antennas: int = 3) -> CsiTrace:
    rng = np.random.default_rng(seed)
    shape = (packets, subcarriers, antennas)
    amplitude = 1.0 + 0.05 * rng.standard_normal(shape)
    spikes = rng.random(shape) < 0.05
    amplitude[spikes] *= 4.0
    phase = rng.uniform(-np.pi, np.pi, shape)
    matrix = amplitude * np.exp(1j * phase)
    if nan_rate:
        matrix[rng.random(shape) < nan_rate] = np.nan
    if dead:
        matrix[:, rng.integers(subcarriers), rng.integers(antennas)] = np.nan
    return CsiTrace.from_matrix(matrix)


_TRACE_SPECS = st.lists(
    st.tuples(
        st.integers(0, 2**16),                       # seed
        st.sampled_from([1, 2, 3, 4, 5, 8, 13, 20]),  # packets
        st.sampled_from([0.0, 0.1]),                 # NaN rate
        st.booleans(),                               # fully dead column
        st.integers(1, 4),                           # subcarriers
        st.integers(2, 3),                           # antennas
    ),
    min_size=1,
    max_size=6,
)


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestStackedEqualsPerTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=_TRACE_SPECS,
        precision=st.sampled_from(["float64", "float32"]),
        denoise=st.booleans(),
        repeat=st.booleans(),
    )
    def test_many_traces_match_one_at_a_time(
        self, specs, precision, denoise, repeat
    ):
        traces = [_trace(*spec) for spec in specs]
        if repeat:
            # A duplicate object and a duplicate by content.
            traces += [traces[0], CsiTrace.from_matrix(traces[-1].matrix())]
        amp = AmplitudeProcessor(
            SpatiallySelectiveDenoiser(precision=precision), denoise=denoise
        )
        stacked = amp.compute_clean_amplitudes_many(traces)
        assert len(stacked) == len(traces)
        for trace, cube in zip(traces, stacked):
            assert _identical(cube, amp.compute_clean_amplitudes(trace))

    def test_one_denoise_call_per_packet_count(self):
        traces = [_trace(k, packets) for k, packets in
                  enumerate([20, 20, 8, 20, 8, 3])]
        amp = AmplitudeProcessor()
        with _denoiser_calls() as widths:
            amp.compute_clean_amplitudes_many(traces)
        # 3 x 20-packet and 2 x 8-packet traces of 15 columns each; the
        # 3-packet trace is too short for the wavelet stage.
        assert sorted(widths) == [30, 45]

    def test_dead_column_stays_nan_and_finite_columns_unaffected(self):
        dead = _trace(1, 20, dead=True)
        clean = _trace(2, 20)
        amp = AmplitudeProcessor()
        dead_cube, clean_cube = amp.compute_clean_amplitudes_many(
            [dead, clean]
        )
        assert np.isnan(dead_cube).any()
        assert np.isfinite(clean_cube).all()
        assert _identical(clean_cube, amp.compute_clean_amplitudes(clean))


class TestTransformIsPerColumn:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        packets=st.sampled_from([8, 13, 20, 37]),
        channels=st.integers(1, 9),
        extra=st.integers(1, 40),
        name=st.sampled_from(available_wavelets()),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_columns_independent_of_block_width(
        self, seed, packets, channels, extra, name, dtype
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((packets, channels)).astype(dtype)
        block = np.concatenate(
            [rng.standard_normal((packets, extra)).astype(dtype), x], axis=1
        )
        wavelet = get_wavelet(name)
        approx, details = swt(x, wavelet, dtype=dtype)
        wide_approx, wide_details = swt(block, wavelet, dtype=dtype)
        assert _identical(wide_approx[:, extra:].copy(), approx)
        for detail, wide in zip(details, wide_details):
            assert _identical(wide[:, extra:].copy(), detail)
        assert _identical(
            iswt(wide_approx, wide_details, wavelet, dtype=dtype)[
                :, extra:
            ].copy(),
            iswt(approx, details, wavelet, dtype=dtype),
        )


# ----------------------------------------------------------------------
# Vectorised survivor median and contiguous MAD
# ----------------------------------------------------------------------


def _spiky_columns(seed: int, packets: int, channels: int,
                   dtype=np.float64) -> np.ndarray:
    """Gaussian columns, some with a few far-out spikes.

    The noise is continuous, so no sample sits within rounding of the
    3-sigma boundary (where summation order could flip the screen).
    """
    rng = np.random.default_rng(seed)
    x = 1.0 + 0.1 * rng.standard_normal((packets, channels))
    for c in range(channels):
        count = rng.integers(0, 3)
        rows = rng.choice(packets, size=count, replace=False)
        x[rows, c] += rng.uniform(5.0, 50.0, size=count) * rng.choice(
            [-1.0, 1.0], size=count
        )
    return x.astype(dtype)


class TestVectorisedRemoveOutliers:
    @pytest.mark.parametrize("packets, spikes, survivors", [
        (20, 1, 19),  # odd survivor count
        (21, 1, 20),  # even survivor count
        (40, 2, 38),
        (41, 2, 39),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_survivor_parity(self, packets, spikes, survivors, dtype):
        rng = np.random.default_rng(packets)
        x = 1.0 + 0.1 * rng.standard_normal((packets, 3))
        x[:spikes, :] += 40.0 + np.arange(spikes)[:, None]
        x = x.astype(dtype)
        cleaned, mask = remove_outliers(x)
        assert (packets - mask.sum(axis=0) == survivors).all()
        for c in range(x.shape[1]):
            ref_cleaned, ref_mask = _reference_remove_outliers(x[:, c])
            assert np.array_equal(mask[:, c], ref_mask)
            assert _identical(cleaned[:, c].copy(), ref_cleaned)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        packets=st.integers(11, 48),
        channels=st.integers(1, 12),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_matches_reference_per_column(self, seed, packets, channels,
                                          dtype):
        x = _spiky_columns(seed, packets, channels, dtype)
        cleaned, mask = remove_outliers(x)
        assert cleaned.dtype == x.dtype
        for c in range(channels):
            ref_cleaned, ref_mask = _reference_remove_outliers(x[:, c])
            assert np.array_equal(mask[:, c], ref_mask)
            assert _identical(cleaned[:, c].copy(), ref_cleaned)

    def test_constant_and_nan_columns_untouched(self):
        x = _spiky_columns(3, 20, 3)
        x[:, 0] = 2.0
        x[4, 1] = np.nan
        cleaned, mask = remove_outliers(x)
        assert not mask[:, :2].any()
        assert np.array_equal(cleaned[:, :2], x[:, :2], equal_nan=True)


class TestSortedMedian:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 30),
        channels=st.integers(1, 8),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_mad_axis_matches_np_median(self, seed, rows, channels, dtype):
        x = np.random.default_rng(seed).standard_normal(
            (rows, channels)
        ).astype(dtype)
        expected = np.median(
            np.abs(x - np.median(x, axis=0, keepdims=True)), axis=0
        )
        assert _identical(mad_axis(x, axis=0), expected)

    def test_nan_row_gives_nan(self):
        ranked = np.sort(np.array([[1.0, np.nan, 3.0], [1.0, 2.0, 4.0]]))
        assert np.isnan(sorted_median(ranked)[0])
        assert sorted_median(ranked)[1] == 2.0

    def test_leading_count(self):
        ranked = np.array([[1.0, 2.0, 3.0, 10.0], [1.0, 5.0, 7.0, 9.0]])
        assert sorted_median(ranked, np.array([3, 2])).tolist() == [2.0, 3.0]


# ----------------------------------------------------------------------
# Stage accounting through WiMi.identify_batch
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment():
    refs = theory_reference_omegas(_MATERIALS)
    scene = standard_scene("lab")
    train = collect_dataset(_MATERIALS, scene, repetitions=3,
                            num_packets=20, seed=5)
    wimi = WiMi(refs).fit([s for g in train.values() for s in g])
    traffic = collect_dataset(_MATERIALS, scene, repetitions=6,
                              num_packets=20, seed=5 + 7919)
    test = [s for group in zip(*traffic.values()) for s in group][:16]
    return wimi, test


def _counted_view(wimi: WiMi, cache: StageCache | None = None):
    view = wimi.clone_view(cache=cache if cache is not None else StageCache())
    counter = StageCounter()
    view.engine.add_hook(counter)
    return view, counter


class TestStageAccounting:
    def test_cold_batch_counts_match_per_trace_warmup(self, deployment):
        wimi, test = deployment
        view, counter = _counted_view(wimi)
        with _denoiser_calls() as widths:
            labels = view.identify_batch(test)
        # The per-trace warm-up the stacked pass replaced.
        reference, expected = _counted_view(wimi)
        for session in test:
            reference.engine.amplitude_denoise(session.baseline)
            reference.engine.amplitude_denoise(session.target)
        assert labels == [reference.identify(s) for s in test]
        assert counter.executions == expected.executions
        assert counter.hits == expected.hits
        assert counter.executions["amplitude_denoise"] == 2 * len(test)
        assert widths == [2 * len(test) * 90]

    def test_repeated_session_denoised_once(self, deployment):
        wimi, test = deployment
        batch = [test[0], test[1], test[0]]
        view, counter = _counted_view(wimi)
        with _denoiser_calls() as widths:
            labels = view.identify_batch(batch)
        assert labels[0] == labels[2]
        assert widths == [4 * 90]
        assert counter.executions["amplitude_denoise"] == 4
        assert counter.hits["amplitude_denoise"] >= 2

    def test_disk_resident_traces_are_read_not_recomputed(
        self, deployment, tmp_path
    ):
        wimi, test = deployment
        store = tmp_path / "store"
        expected = wimi.clone_view(
            cache=StageCache(disk_store=ArtifactStore(store))
        ).identify_batch(test)
        view, counter = _counted_view(
            wimi, StageCache(disk_store=ArtifactStore(store))
        )
        with _denoiser_calls() as widths:
            labels = view.identify_batch(test)
        assert labels == expected
        assert widths == []
        assert counter.executions.get("amplitude_denoise", 0) == 0
        assert counter.disk_hits["amplitude_denoise"] == 2 * len(test)

    def test_lapsed_deadline_raises_before_stacked_pass(self, deployment):
        wimi, test = deployment
        view, counter = _counted_view(wimi)
        with _denoiser_calls() as widths:
            with deadline_scope(Deadline.after(-1.0)):
                with pytest.raises(DeadlineExpiredError,
                                   match="amplitude_denoise"):
                    view.identify_batch(test)
        assert widths == []
        assert counter.executions == {}
