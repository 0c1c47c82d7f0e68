"""Single-pass (streaming) statistics and windowed amplitude denoising.

WiMi's capture regime is one packet every ~10 ms, but the batch pipeline
buffers a whole trace before the first DSP stage runs.  This module holds
the incremental primitives that let feature extraction run *while* the
trace is still arriving:

* :class:`RunningCircularStats` -- element-wise circular mean/variance
  accumulated as resultant vectors, one packet at a time.  Mirrors the
  NaN-masking semantics of :func:`repro.dsp.stats.circular_mean_axis`
  with ``ignore_nan=True``: a non-finite reading is excluded from its
  element's mean, an element with no finite reading at all is NaN.
* :class:`RunningVariance` -- Welford's online mean/variance.
* :class:`RollingMad` -- median absolute deviation over a sliding window
  of recent samples (a bounded-memory noise-level diagnostic).
* :class:`OverlapWindowDenoiser` -- the Sec. III-C outlier + wavelet
  denoiser applied to fixed-size packet windows as they complete, with
  overlap-add recombination.  Each window mirrors the per-trace
  treatment of ``AmplitudeProcessor.compute_clean_amplitudes`` (median
  imputation of non-finite samples, dead-in-window columns restored to
  NaN, windows shorter than 4 packets get outlier rejection only).

Determinism contract: every accumulator ingests exactly one packet per
``add``/window step, so the final state after a stream is a function of
the packet *sequence* alone -- feeding the same packets in chunks of 1,
7 or all-at-once produces bit-identical results (the chunk-invariance
property ``tests/test_streaming.py`` pins).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.dsp.precision import complex_dtype
from repro.dsp.stats import mad
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser, denoise_columns


class RunningCircularStats:
    """Element-wise circular mean/variance accumulated one sample at a time.

    Holds a complex resultant-vector sum and a finite-sample count per
    element.  ``add`` is O(shape) per call and the state is independent
    of how calls were batched upstream.

    ``precision`` sets the resultant accumulator's dtype (complex128 by
    default; ``"float32"`` accumulates in complex64 -- unit vectors sum
    to at most ``count``, so float32 mantissas stay exact far beyond
    any realistic stream length).  The count stays int64 either way.
    """

    def __init__(
        self, shape: tuple[int, ...] | int, precision: str = "float64"
    ):
        self._resultant = np.zeros(shape, dtype=complex_dtype(precision))
        self._count = np.zeros(shape, dtype=np.int64)
        #: Total samples offered (including ones masked per element).
        self.num_samples = 0

    @property
    def shape(self) -> tuple[int, ...]:
        """Element shape of the accumulated statistics."""
        return self._resultant.shape

    def add(self, angles_rad: np.ndarray) -> None:
        """Accumulate one sample of angles (radians), NaN-aware."""
        angles = np.asarray(angles_rad, dtype=float)
        if angles.shape != self._resultant.shape:
            raise ValueError(
                f"sample shape {angles.shape} does not match accumulator "
                f"shape {self._resultant.shape}"
            )
        mask = np.isfinite(angles)
        unit = np.exp(1j * np.where(mask, angles, 0.0))
        self._resultant += np.where(mask, unit, 0.0)
        self._count += mask
        self.num_samples += 1

    def counts(self) -> np.ndarray:
        """Finite-sample count per element."""
        return self._count.copy()

    def mean(self) -> np.ndarray:
        """Circular mean direction per element; NaN where no finite sample."""
        safe = np.where(self._count > 0, self._count, 1)
        return np.where(
            self._count > 0,
            np.angle(self._resultant / safe),
            math.nan,
        )

    def resultant_length(self) -> np.ndarray:
        """Mean resultant length ``R`` in [0, 1]; NaN where empty.

        ``R`` near 1 means the accumulated angles are tightly
        concentrated -- the streaming confidence signal.
        """
        safe = np.where(self._count > 0, self._count, 1)
        return np.where(
            self._count > 0,
            np.abs(self._resultant / safe),
            math.nan,
        )

    def circular_variance(self) -> np.ndarray:
        """Circular variance ``1 - R`` per element."""
        return 1.0 - self.resultant_length()


class RunningVariance:
    """Welford's online mean and sample variance of a scalar series.

    Non-finite samples are ignored (they would permanently poison the
    moments); ``count`` reflects only the accepted samples.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Accumulate one sample (non-finite values are skipped)."""
        value = float(value)
        if not math.isfinite(value):
            return
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """Running mean (NaN before the first finite sample)."""
        return self._mean if self.count > 0 else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (``n - 1`` denominator; NaN below 2 samples)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation (NaN below 2 samples)."""
        variance = self.variance
        return math.sqrt(variance) if math.isfinite(variance) else math.nan


class RollingMad:
    """Median absolute deviation over a sliding window of recent samples.

    Bounded memory: only the last ``window`` finite samples are kept.
    """

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._values: deque[float] = deque(maxlen=window)

    def add(self, value: float) -> None:
        """Accumulate one sample (non-finite values are skipped)."""
        value = float(value)
        if math.isfinite(value):
            self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def value(self) -> float:
        """MAD of the current window (NaN while empty)."""
        if not self._values:
            return math.nan
        return mad(np.asarray(self._values))


class OverlapWindowDenoiser:
    """Windowed overlap-add variant of the Sec. III-C amplitude denoiser.

    Windows of ``window_size`` consecutive packets start every ``hop``
    packets; each window is denoised independently as soon as its last
    packet arrives, and overlapping window outputs are averaged per
    sample.  At stream end a tail window covering the final packets is
    emitted so every packet is denoised at least once.

    The window schedule depends only on the total packet count, so the
    overlap-add result is a pure function of the packet sequence
    (chunk-size invariant), and each window's output is content-hashable
    for the stage cache.
    """

    def __init__(
        self,
        denoiser: SpatiallySelectiveDenoiser | None = None,
        window_size: int = 8,
        hop: int = 4,
    ):
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if not 1 <= hop <= window_size:
            raise ValueError(
                f"hop must be in [1, window_size={window_size}], got {hop}"
            )
        self.denoiser = (
            denoiser if denoiser is not None else SpatiallySelectiveDenoiser()
        )
        self.window_size = window_size
        self.hop = hop

    def complete_starts(self, num_rows: int) -> list[int]:
        """Start indices of every complete window within ``num_rows``."""
        return list(
            range(0, max(num_rows - self.window_size, 0) + 1, self.hop)
        ) if num_rows >= self.window_size else []

    def tail_start(self, num_rows: int) -> int | None:
        """Start of the finalize-time tail window, or None if covered.

        The tail window spans the last ``window_size`` packets (the whole
        stream when shorter) whenever the complete-window schedule leaves
        trailing packets uncovered.
        """
        if num_rows == 0:
            return None
        starts = self.complete_starts(num_rows)
        covered_end = starts[-1] + self.window_size if starts else 0
        if covered_end >= num_rows:
            return None
        return max(num_rows - self.window_size, 0)

    def window_starts(self, num_rows: int) -> list[int]:
        """All window starts for a finished stream of ``num_rows`` packets."""
        starts = self.complete_starts(num_rows)
        tail = self.tail_start(num_rows)
        if tail is not None:
            starts.append(tail)
        return starts

    def denoise_window(self, rows: np.ndarray) -> np.ndarray:
        """Denoise one ``(window, channels)`` slab of raw amplitude rows.

        :func:`~repro.dsp.wavelet_denoise.denoise_columns` on the window:
        the per-trace treatment of
        ``AmplitudeProcessor.compute_clean_amplitudes`` scaled down to
        one window.  No amplitude clipping here -- the consumer clips
        once after overlap-add, like the batch path clips once per cube.
        """
        return denoise_columns(rows, self.denoiser)

    @staticmethod
    def accumulate(
        den_sum: np.ndarray,
        weight: np.ndarray,
        start: int,
        window_out: np.ndarray,
    ) -> None:
        """Overlap-add one denoised window into the running buffers.

        NaN outputs (dead-in-window columns) contribute nothing; a
        sample is NaN in the final result only if *every* window that
        covered it said NaN (``weight`` stays 0 there).
        """
        stop = start + window_out.shape[0]
        finite = np.isfinite(window_out)
        region = den_sum[start:stop]
        region[finite] += window_out[finite]
        weight[start:stop] += finite

    @staticmethod
    def resolve(den_sum: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Final denoised samples: overlap-average, NaN where uncovered.

        Dtype-preserving: the int64 weights are cast to ``den_sum``'s
        dtype before dividing so a float32 accumulation resolves to
        float32 (overlap counts are tiny integers, exactly
        representable either way; float64 results are bit-unchanged).
        """
        positive = weight > 0
        safe = np.where(positive, weight, 1).astype(den_sum.dtype)
        return np.where(positive, den_sum / safe, math.nan)

    def denoise(self, series: np.ndarray) -> np.ndarray:
        """Offline reference: full windowed overlap-add over a series.

        Produces exactly what the incremental path converges to after
        its tail window -- the equivalence target of the streaming
        tests.  ``series`` is ``(time, channels)``.
        """
        series = np.asarray(series, dtype=float)
        if series.ndim != 2:
            raise ValueError(
                f"expected (time, channels) series, got shape {series.shape}"
            )
        den_sum = np.zeros_like(series)
        weight = np.zeros(series.shape, dtype=np.int64)
        for start in self.window_starts(series.shape[0]):
            out = self.denoise_window(
                series[start:start + self.window_size]
            )
            self.accumulate(den_sum, weight, start, out)
        return self.resolve(den_sum, weight)
