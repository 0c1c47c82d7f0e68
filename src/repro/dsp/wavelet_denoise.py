"""Spatially-selective wavelet denoiser (paper Sec. III-C, Eq. 8-13).

The paper's amplitude denoiser rests on one observation: across wavelet
scales, *useful signal* coefficients are strongly correlated while
*impulse-noise* coefficients are not (Eq. 8-10 prove the noise power in a
scale decays with the scale).  Multiplying the coefficients of adjacent
scales therefore amplifies signal locations relative to noise -- the
spatially-selective filtering of Xu, Weaver, Healy & Lu (1994), the
paper's reference [24].

Algorithm, per wavelet scale ``l`` (undecimated transform so every scale
has full length):

1. ``Corr_l = W_l * W_{l+1}``                                  (Eq. 11)
2. ``NCorr_l = Corr_l * sqrt(PW_l / PCorr_l)``                 (Eq. 12)
3. positions with ``|NCorr_l| >= |W_l|`` are signal: move those
   coefficients into the output and zero them in the work buffer (Eq. 13;
   note the paper's printed equation and its prose contradict each other
   -- we implement the original reference's convention, where *high
   cross-scale correlation marks signal to keep*)
4. repeat 1-3 until the residual power ``PW_l`` drops to the noise
   threshold estimated by the robust median rule (reference [24]).

Everything left in the work buffers when iteration stops is treated as
noise and discarded; the inverse transform of the extracted coefficients
is the denoised signal.

Batched operation
-----------------
Every entry point accepts either a 1-D series ``(time,)`` or a 2-D
``(time, channels)`` array.  In the 2-D form the wavelet transform runs
along axis 0 for all channels at once, and the extract-and-repeat loop
of each scale iterates over the channels still active only (each channel
stops at its own threshold and drops out of the working set), so one
call denoises every (subcarrier, antenna) column of a CSI trace.  Every
step -- outlier screening, survivor median, transform, loop, stopping
threshold -- is per column, so a block that concatenates the columns of
many traces (see :func:`denoise_columns`) denoises each trace exactly as
a call on its own columns would, bit for bit: ``WiMi.extract_batch``
denoises a whole batch in one call per packet count.  Per-channel results
equal the corresponding 1-D call to within floating-point summation
order (<= 1e-9; see ``tests/test_perf_equivalence.py``).  The original
scalar implementations are kept as ``_reference_*`` for the equivalence
tests and the perf suite's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.precision import real_dtype, validate_precision
from repro.dsp.stats import (
    finite_median,
    robust_sigma,
    robust_sigma_axis,
    sorted_median,
)
from repro.dsp.wavelet import (
    Wavelet,
    _reference_iswt,
    _reference_swt,
    get_wavelet,
    iswt,
    max_swt_level,
    swt,
)


def _as_float_array(x: np.ndarray) -> np.ndarray:
    """Coerce to a floating array, preserving float32/float64.

    Historically every entry point forced float64; preserving an
    explicit float32 input lets the low-precision pipeline keep its
    working dtype through the outlier step without changing any float64
    caller (integer and exotic inputs still promote to float64).
    """
    x = np.asarray(x)
    if x.dtype == np.float32 or x.dtype == np.float64:
        return x
    return x.astype(float)


def _reference_remove_outliers(
    x: np.ndarray, num_sigmas: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Original strictly-1-D :func:`remove_outliers` (equivalence ref)."""
    x = _as_float_array(x)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("expected a non-empty signal")
    if num_sigmas <= 0:
        raise ValueError(f"num_sigmas must be positive, got {num_sigmas}")
    mu = float(np.mean(x))
    sigma = float(np.std(x))
    if sigma == 0.0:
        return x.copy(), np.zeros(x.shape, dtype=bool)
    mask = np.abs(x - mu) > num_sigmas * sigma
    cleaned = x.copy()
    if mask.any():
        survivors = x[~mask]
        fill = float(np.median(survivors)) if survivors.size else mu
        cleaned[mask] = fill
    return cleaned, mask


def remove_outliers(
    x: np.ndarray, num_sigmas: float = 3.0
) -> tuple[np.ndarray, np.ndarray]:
    """Paper's first denoising step: 3-sigma outlier rejection.

    Samples outside ``[mu - k sigma, mu + k sigma]`` are replaced by the
    median of the surviving samples (the paper "filters out" the outliers;
    replacing keeps the series aligned in time, which the wavelet stage
    needs).

    ``x`` may be 1-D or 2-D ``(time, channels)``; in the 2-D form every
    channel column is screened against its own mean/std.

    Returns:
        ``(cleaned, outlier_mask)``.  ``cleaned`` keeps a float32
        input's dtype (other dtypes promote to float64 as before).
    """
    x = _as_float_array(x)
    if x.ndim == 1:
        return _reference_remove_outliers(x, num_sigmas)
    if x.ndim != 2:
        raise ValueError(
            f"expected a 1-D or 2-D (time, channels) signal, "
            f"got shape {x.shape}"
        )
    if x.size == 0:
        raise ValueError("expected a non-empty signal")
    if num_sigmas <= 0:
        raise ValueError(f"num_sigmas must be positive, got {num_sigmas}")
    mu = np.mean(x, axis=0)
    sigma = np.std(x, axis=0)
    cleaned = x.copy()
    mask = np.zeros(x.shape, dtype=bool)
    screened = sigma > 0.0
    mask[:, screened] = (
        np.abs(x[:, screened] - mu[screened])
        > num_sigmas * sigma[screened]
    )
    hit = np.nonzero(mask.any(axis=0))[0]
    if hit.size:
        fill = _survivor_median(x[:, hit], mask[:, hit], mu[hit])
        cleaned[:, hit] = np.where(mask[:, hit], fill[None, :], x[:, hit])
    return cleaned, mask


def _survivor_median(
    x: np.ndarray, outliers: np.ndarray, fallback: np.ndarray
) -> np.ndarray:
    """Per-column median of the samples ``outliers`` leaves, ``(channels,)``.

    Outliers sort to the end of each column as +inf, so the survivors
    are the leading ranks; see :func:`~repro.dsp.stats.sorted_median`.
    A column without survivors gets ``fallback``.  Screened columns are
    finite (a non-finite column has NaN sigma and is never screened).
    """
    ranked = np.sort(
        np.ascontiguousarray(np.where(outliers, np.inf, x).T), axis=-1
    )
    count = x.shape[0] - outliers.sum(axis=0)
    median = sorted_median(ranked, np.maximum(count, 1))
    return np.where(count > 0, median, fallback)


def denoise_columns(
    columns: np.ndarray, denoiser: "SpatiallySelectiveDenoiser"
) -> np.ndarray:
    """Denoise a ``(time, channels)`` block the way the pipeline does.

    The wavelet convolution would smear a single NaN over a whole
    series, so non-finite samples are first imputed with their column's
    finite median.  A fully dead column has no median to impute from: it
    is denoised as zeros and restored to NaN afterwards, so quality
    gating -- not silent garbage -- decides its fate.  Blocks shorter than
    4 rows get outlier rejection only.  The block keeps the denoiser's
    working precision throughout.

    Every step is per column, so a block that concatenates the columns of
    many traces (or windows) of one length gives each of them exactly
    what a block of its own columns would.
    """
    dtype = real_dtype(denoiser.precision)
    columns = np.asarray(columns, dtype=dtype)
    if columns.ndim != 2:
        raise ValueError(
            f"expected (time, channels) columns, got shape {columns.shape}"
        )
    if columns.size == 0:
        raise ValueError("expected a non-empty signal")
    finite = np.isfinite(columns)
    dead = None
    if not finite.all():
        medians = finite_median(columns, axis=0)
        fill = np.where(np.isfinite(medians), medians, 0.0).astype(dtype)
        columns = np.where(finite, columns, fill[None, :])
        dead = ~finite.any(axis=0)
    if columns.shape[0] < 4:
        cleaned, _ = remove_outliers(columns, denoiser.outlier_sigmas)
    else:
        cleaned = denoiser.denoise(columns)
    if dead is not None and dead.any():
        cleaned = np.where(dead[None, :], np.nan, cleaned)
    return cleaned


@dataclass
class SpatiallySelectiveDenoiser:
    """The paper's two-step amplitude denoiser as a reusable object.

    Attributes:
        wavelet_name: Filter bank to use (default db2 -- short enough for
            the paper's 20-packet windows).
        levels: SWT depth (clamped to what the signal length allows).
        outlier_sigmas: Threshold of the outlier-rejection pre-step.
        max_iterations: Safety bound on the extract-and-repeat loop.
        precision: Working precision of the transform and the
            extract-and-repeat loop: ``"float64"`` (default,
            bit-compatible with the scalar references) or ``"float32"``
            (half the memory traffic on the batched hot path).

    Thread-safety: one denoiser instance is shared by every serving
    worker thread (``WiMi.clone_view`` shares the amplitude processor);
    ``denoise`` keeps all of its working buffers local to the call.
    """

    wavelet_name: str = "db2"
    levels: int = 3
    outlier_sigmas: float = 3.0
    max_iterations: int = 20
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        validate_precision(self.precision)
        self._dtype = real_dtype(self.precision)
        # Fail fast on unknown wavelet names.
        self._wavelet: Wavelet = get_wavelet(self.wavelet_name)

    # ------------------------------------------------------------------

    def denoise(self, x: np.ndarray) -> np.ndarray:
        """Full pipeline: outlier rejection, then correlation filtering.

        Accepts 1-D ``(time,)`` or 2-D ``(time, channels)`` input; the
        2-D form denoises every channel in one batched pass.
        """
        cleaned, _ = remove_outliers(
            np.asarray(x, dtype=self._dtype), self.outlier_sigmas
        )
        return self.correlation_filter(cleaned)

    def correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Eq. 8-13 cross-scale correlation filtering (no outlier step)."""
        x = np.asarray(x, dtype=self._dtype)
        if x.ndim not in (1, 2):
            raise ValueError(
                f"expected a 1-D or 2-D (time, channels) signal, "
                f"got shape {x.shape}"
            )
        limit = max_swt_level(x.shape[0], self._wavelet)
        if limit == 0:
            # Too short to transform: nothing to do.
            return x.copy()
        levels = min(self.levels, limit)
        approx, details = swt(x, self._wavelet, levels, dtype=self._dtype)
        new_details = self._filter_details(details)
        return iswt(approx, new_details, self._wavelet, dtype=self._dtype)

    # ------------------------------------------------------------------

    def _filter_details(self, details: list[np.ndarray]) -> list[np.ndarray]:
        """Extract signal coefficients scale by scale.

        ``details[l]`` is correlated with ``details[l+1]``; the coarsest
        scale has no neighbour and pairs with itself (plain magnitude
        comparison), which reduces to keeping its strongest coefficients.
        2-D coefficient arrays run every channel through
        :meth:`_extract_scale`.
        """
        if details[0].ndim == 1:
            return self._filter_details_1d(details)
        last = len(details) - 1
        return [
            self._extract_scale(
                detail,
                details[l + 1] if l < last else None,
                self._noise_threshold(detail),
            )
            for l, detail in enumerate(details)
        ]

    def _extract_scale(
        self,
        detail: np.ndarray,
        neighbour: np.ndarray | None,
        threshold: np.ndarray,
    ) -> np.ndarray:
        """Extract-and-repeat on one ``(time, channels)`` scale.

        Each pass works on the channels still active only: a channel
        leaves the working set once its residual power is down to its
        threshold or no coefficient of it is signal any more (the batched
        equivalent of the scalar ``break``), so the passes shrink as
        channels converge instead of running every channel until the
        slowest one stops.  ``neighbour`` is the next-coarser scale (left
        unchanged while this one is filtered), or None for the coarsest
        scale, which pairs with its own residual.
        """
        work = detail.copy()
        out = np.zeros_like(detail)
        live = np.arange(detail.shape[1])
        for _ in range(self.max_iterations):
            w = work[:, live]
            keep = np.sum(w ** 2, axis=0) > threshold[live]
            live, w = live[keep], w[:, keep]
            if not live.size:
                break
            pair = w if neighbour is None else neighbour[:, live]
            mask = self._signal_mask(w, pair)
            keep = mask.any(axis=0)
            live, w, mask = live[keep], w[:, keep], mask[:, keep]
            if not live.size:
                break
            out[:, live] += np.where(mask, w, 0.0)
            work[:, live] = np.where(mask, 0.0, w)
        return out

    def _filter_details_1d(
        self, details: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Scalar (1-D) extract-and-repeat loop."""
        work = [d.copy() for d in details]
        out = [np.zeros_like(d) for d in details]
        num_levels = len(details)
        for l in range(num_levels):
            neighbour_idx = l + 1 if l + 1 < num_levels else l
            threshold = self._noise_threshold(details[l])
            for _ in range(self.max_iterations):
                power = float(np.sum(work[l] ** 2))
                if power <= threshold:
                    break
                mask = self._signal_mask(work[l], work[neighbour_idx])
                if not mask.any():
                    break
                out[l][mask] += work[l][mask]
                work[l][mask] = 0.0
        return out

    @staticmethod
    def _signal_mask(w_l: np.ndarray, w_next: np.ndarray) -> np.ndarray:
        """Positions where cross-scale correlation dominates (signal)."""
        corr = w_l * w_next  # Eq. 11
        if w_l.ndim == 1:
            p_w = float(np.sum(w_l ** 2))
            p_corr = float(np.sum(corr ** 2))
            if p_corr == 0.0 or p_w == 0.0:
                return np.zeros(w_l.shape, dtype=bool)
            ncorr = corr * np.sqrt(p_w / p_corr)  # Eq. 12
            return np.abs(ncorr) >= np.abs(w_l)  # Eq. 13 (reference conv.)
        p_w = np.sum(w_l ** 2, axis=0)
        p_corr = np.sum(corr ** 2, axis=0)
        valid = (p_corr > 0.0) & (p_w > 0.0)
        # dtype-matched scale: a float64 zeros() here would NEP-50
        # promote the whole float32 ncorr product back to float64.
        scale = np.zeros(p_w.shape, dtype=p_w.dtype)
        scale[valid] = np.sqrt(p_w[valid] / p_corr[valid])
        ncorr = corr * scale[None, :]
        return (np.abs(ncorr) >= np.abs(w_l)) & valid[None, :]

    @staticmethod
    def _noise_threshold(detail: np.ndarray) -> float | np.ndarray:
        """Residual-power stopping threshold from the robust median rule.

        The noise std-dev in a detail band is estimated as
        ``MAD / 0.6745``; iteration stops once the remaining band power is
        what pure noise of that level would carry.  For 2-D coefficients
        the threshold is per channel.
        """
        if detail.ndim == 1:
            sigma = robust_sigma(detail)
            return detail.size * sigma * sigma
        sigma = robust_sigma_axis(detail, axis=0)
        return detail.shape[0] * sigma * sigma

    # ------------------------------------------------------------------
    # Scalar reference path (pre-vectorization), for equivalence tests
    # and the perf suite's baseline.
    # ------------------------------------------------------------------

    def _reference_denoise(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`denoise`."""
        cleaned, _ = _reference_remove_outliers(x, self.outlier_sigmas)
        return self._reference_correlation_filter(cleaned)

    def _reference_correlation_filter(self, x: np.ndarray) -> np.ndarray:
        """Original strictly-1-D :meth:`correlation_filter`."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
        limit = max_swt_level(x.size, self._wavelet)
        if limit == 0:
            return x.copy()
        levels = min(self.levels, limit)
        approx, details = _reference_swt(x, self._wavelet, levels)
        new_details = self._filter_details_1d(details)
        return _reference_iswt(approx, new_details, self._wavelet)


def wavelet_denoise(
    x: np.ndarray,
    wavelet_name: str = "db2",
    levels: int = 3,
    outlier_sigmas: float = 3.0,
) -> np.ndarray:
    """Convenience wrapper around :class:`SpatiallySelectiveDenoiser`."""
    denoiser = SpatiallySelectiveDenoiser(
        wavelet_name=wavelet_name, levels=levels, outlier_sigmas=outlier_sigmas
    )
    return denoiser.denoise(x)
