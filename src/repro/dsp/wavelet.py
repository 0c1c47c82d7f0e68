"""Orthogonal wavelet transforms from scratch.

Implements, with plain NumPy:

* orthonormal wavelet filter banks (Haar, Daubechies db2-db4, Symlet sym4),
* the periodized decimated DWT (:func:`dwt` / :func:`idwt`) and its
  multi-level form (:func:`wavedec` / :func:`waverec`),
* the undecimated / stationary transform (:func:`swt` / :func:`iswt`,
  "algorithme a trous") needed by the paper's correlation denoiser, where
  every scale keeps the full signal length so adjacent-scale products
  (Eq. 11) are well defined.

Conventions: the scaling (lowpass) filter ``h`` is normalised to unit
energy (``sum(h) = sqrt(2)``); the wavelet (highpass) filter is the
quadrature mirror ``g[n] = (-1)^n h[L-1-n]``.  Signals are extended
periodically, which gives exact perfect reconstruction for even lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# ----------------------------------------------------------------------
# Filter banks
# ----------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)

#: Scaling-filter coefficients, unit-energy normalisation.
_SCALING_FILTERS: dict[str, tuple[float, ...]] = {
    "haar": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "db2": (
        0.48296291314469025,
        0.836516303737469,
        0.22414386804185735,
        -0.12940952255092145,
    ),
    "db3": (
        0.3326705529509569,
        0.8068915093133388,
        0.4598775021193313,
        -0.13501102001039084,
        -0.08544127388224149,
        0.035226291882100656,
    ),
    "db4": (
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ),
    "sym4": (
        0.03222310060404270,
        -0.012603967262037833,
        -0.09921954357684722,
        0.29785779560527736,
        0.8037387518059161,
        0.49761866763201545,
        -0.02963552764599851,
        -0.07576571478927333,
    ),
}


@dataclass(frozen=True)
class Wavelet:
    """An orthonormal wavelet defined by its scaling filter."""

    name: str
    dec_lo: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        """Filter length."""
        return self.dec_lo.size

    @property
    def dec_hi(self) -> np.ndarray:
        """Highpass (wavelet) analysis filter, quadrature mirror of lo."""
        h = self.dec_lo
        signs = np.array([(-1.0) ** n for n in range(h.size)])
        return signs * h[::-1]


def get_wavelet(name: str) -> Wavelet:
    """Look up a wavelet by name (haar, db2, db3, db4, sym4)."""
    try:
        coeffs = _SCALING_FILTERS[name]
    except KeyError:
        known = ", ".join(sorted(_SCALING_FILTERS))
        raise KeyError(f"unknown wavelet {name!r}; known: {known}") from None
    return Wavelet(name=name, dec_lo=np.array(coeffs, dtype=float))


def available_wavelets() -> list[str]:
    """Names of all built-in wavelets."""
    return sorted(_SCALING_FILTERS)


# ----------------------------------------------------------------------
# Decimated DWT (periodized)
# ----------------------------------------------------------------------


def _even_length(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Pad ``x`` to even length by repeating the last sample."""
    n = x.size
    if n % 2 == 0:
        return x, n
    return np.concatenate([x, x[-1:]]), n


def dwt(x: np.ndarray, wavelet: Wavelet) -> tuple[np.ndarray, np.ndarray]:
    """One level of the periodized DWT.

    Returns ``(approx, detail)``, each of length ``ceil(len(x)/2)``.
    For even input lengths the transform is orthonormal, so
    ``idwt(approx, detail)`` reconstructs ``x`` exactly.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"dwt expects a 1-D signal, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"signal too short for dwt: length {x.size}")
    x, _ = _even_length(x)
    n = x.size
    h = wavelet.dec_lo
    g = wavelet.dec_hi
    filt_len = h.size
    k = np.arange(n // 2)[:, None]
    idx = (2 * k + np.arange(filt_len)[None, :]) % n
    windows = x[idx]
    return windows @ h, windows @ g


def idwt(
    approx: np.ndarray,
    detail: np.ndarray,
    wavelet: Wavelet,
    output_length: int | None = None,
) -> np.ndarray:
    """Inverse of :func:`dwt` (adjoint of the orthonormal analysis).

    ``output_length`` trims the result when the forward transform padded
    an odd-length signal.
    """
    approx = np.asarray(approx, dtype=float)
    detail = np.asarray(detail, dtype=float)
    if approx.shape != detail.shape:
        raise ValueError(
            f"approx/detail length mismatch: {approx.size} vs {detail.size}"
        )
    n = 2 * approx.size
    h = wavelet.dec_lo
    g = wavelet.dec_hi
    filt_len = h.size
    x = np.zeros(n)
    k = np.arange(approx.size)[:, None]
    idx = (2 * k + np.arange(filt_len)[None, :]) % n
    np.add.at(x, idx, approx[:, None] * h[None, :])
    np.add.at(x, idx, detail[:, None] * g[None, :])
    if output_length is not None:
        if not 0 <= output_length <= n:
            raise ValueError(
                f"output_length {output_length} incompatible with {n}"
            )
        x = x[:output_length]
    return x


@dataclass
class WaveletDecomposition:
    """Multi-level DWT coefficients plus reconstruction bookkeeping.

    ``details[0]`` is the finest scale.  ``lengths[i]`` records the
    pre-padding signal length at each level so :func:`waverec` can undo
    odd-length padding exactly.
    """

    approx: np.ndarray
    details: list[np.ndarray]
    lengths: list[int]
    wavelet: Wavelet

    @property
    def levels(self) -> int:
        """Number of decomposition levels."""
        return len(self.details)


def max_dwt_level(signal_length: int, wavelet: Wavelet) -> int:
    """Deepest useful level: halving until shorter than the filter."""
    if signal_length < wavelet.length:
        return 0
    return int(math.floor(math.log2(signal_length / (wavelet.length - 1))))


def wavedec(
    x: np.ndarray, wavelet: Wavelet, level: int | None = None
) -> WaveletDecomposition:
    """Multi-level periodized DWT.

    ``level`` defaults to (and is clamped at) :func:`max_dwt_level`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"wavedec expects a 1-D signal, got shape {x.shape}")
    limit = max_dwt_level(x.size, wavelet)
    if limit == 0:
        raise ValueError(
            f"signal of length {x.size} too short for wavelet "
            f"{wavelet.name!r} (filter length {wavelet.length})"
        )
    if level is None:
        level = limit
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    level = min(level, limit)

    details: list[np.ndarray] = []
    lengths: list[int] = []
    current = x
    for _ in range(level):
        lengths.append(current.size)
        approx, detail = dwt(current, wavelet)
        details.append(detail)
        current = approx
    return WaveletDecomposition(
        approx=current, details=details, lengths=lengths, wavelet=wavelet
    )


def waverec(decomposition: WaveletDecomposition) -> np.ndarray:
    """Invert :func:`wavedec` exactly."""
    current = decomposition.approx
    for detail, length in zip(
        reversed(decomposition.details), reversed(decomposition.lengths)
    ):
        padded = length + (length % 2)
        current = idwt(current, detail, decomposition.wavelet, padded)[:length]
    return current


# ----------------------------------------------------------------------
# Undecimated (stationary) transform -- "algorithme a trous"
# ----------------------------------------------------------------------


#: Above this signal length the periodized a-trous correlation switches
#: from roll-accumulation (O(n * filter_length) per level) to the FFT
#: product (O(n log n) independent of the dilated filter span).
FFT_LENGTH_THRESHOLD = 4096


def _reference_atrous_correlate(
    x: np.ndarray, filt: np.ndarray, hole: int
) -> np.ndarray:
    """Scalar (1-D, index-matrix) periodic correlation -- kept as the
    bit-equivalence reference for the axis-aware kernels."""
    n = x.size
    idx = (np.arange(n)[:, None] + hole * np.arange(filt.size)[None, :]) % n
    return x[idx] @ filt


def _reference_atrous_adjoint(
    y: np.ndarray, filt: np.ndarray, hole: int
) -> np.ndarray:
    """Scalar adjoint of :func:`_reference_atrous_correlate`."""
    n = y.size
    idx = (np.arange(n)[:, None] - hole * np.arange(filt.size)[None, :]) % n
    return y[idx] @ filt


def _upsampled_filter_spectrum(
    filt: np.ndarray, hole: int, n: int
) -> np.ndarray:
    """Real FFT of the hole-upsampled filter, periodized to length ``n``."""
    f_up = np.zeros(n)
    np.add.at(f_up, (hole * np.arange(filt.size)) % n, filt)
    return np.fft.rfft(f_up)


def _atrous_correlate(x: np.ndarray, filt: np.ndarray, hole: int) -> np.ndarray:
    """Periodic correlation with the filter upsampled by ``hole``.

    Axis-aware: ``x`` may be 1-D ``(time,)`` or 2-D ``(time, channels)``;
    the correlation always runs along axis 0, so one call filters every
    channel column.  Long signals go through the FFT identity
    ``corr(x, f) = irfft(rfft(x) * conj(rfft(f_up)))``.
    """
    n = x.shape[0]
    if n >= FFT_LENGTH_THRESHOLD:
        spectrum = np.conj(_upsampled_filter_spectrum(filt, hole, n))
        if x.ndim == 2:
            spectrum = spectrum[:, None]
        out = np.fft.irfft(np.fft.rfft(x, axis=0) * spectrum, n=n, axis=0)
        # numpy's FFT always computes in double precision; hand float32
        # callers their working dtype back (no-op copy=False for float64).
        return out.astype(x.dtype, copy=False)
    # Index-matrix gather + matmul, the same tap-summation order as the
    # scalar reference: each output element is one K-tap dot product, so
    # the 1-D result is bit-identical to _reference_atrous_correlate.
    # The denoiser's extract-and-repeat loop compares coefficients
    # exactly, so ulp-level reassociation here would flip its masks.
    idx = (np.arange(n)[:, None] + hole * np.arange(filt.size)[None, :]) % n
    if x.ndim == 1:
        return x[idx] @ filt
    return _tap_sum(x, idx, filt)


def _atrous_adjoint(y: np.ndarray, filt: np.ndarray, hole: int) -> np.ndarray:
    """Adjoint of :func:`_atrous_correlate` (periodic convolution)."""
    n = y.shape[0]
    if n >= FFT_LENGTH_THRESHOLD:
        spectrum = _upsampled_filter_spectrum(filt, hole, n)
        if y.ndim == 2:
            spectrum = spectrum[:, None]
        out = np.fft.irfft(np.fft.rfft(y, axis=0) * spectrum, n=n, axis=0)
        return out.astype(y.dtype, copy=False)
    # Same bit-exactness contract as _atrous_correlate's short path.
    idx = (np.arange(n)[:, None] - hole * np.arange(filt.size)[None, :]) % n
    if y.ndim == 1:
        return y[idx] @ filt
    return _tap_sum(y, idx, filt)


def _tap_sum(x: np.ndarray, idx: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """``out[t, c] = sum_k x[idx[t, k], c] * filt[k]`` in one fixed order.

    The upper half of the tap products is folded onto the lower half
    until one term is left, so a column's result does not depend on the
    columns stacked beside it; a BLAS matvec's rounding does (float32,
    6- and 8-tap banks).  For db2 in float64 the fold is the 1-D
    matvec's order, so columns equal the 1-D transform bit for bit
    (pinned by ``tests/test_perf_equivalence.py``).
    """
    terms = [x[idx[:, k]] * filt[k] for k in range(filt.size)]
    while len(terms) > 1:
        half = len(terms) // 2
        terms = [
            terms[k] + terms[k + half] for k in range(half)
        ] + terms[2 * half:]
    return terms[0]


def max_swt_level(signal_length: int, wavelet: Wavelet) -> int:
    """Deepest SWT level whose dilated filter still fits the signal."""
    level = 0
    while (2 ** level) * (wavelet.length - 1) + 1 <= signal_length:
        level += 1
    return level


def swt(
    x: np.ndarray,
    wavelet: Wavelet,
    level: int | None = None,
    dtype: np.dtype | type | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stationary wavelet transform.

    Returns ``(approx, details)`` where ``details[0]`` is the finest scale
    and every array has the input length -- which is what makes the
    adjacent-scale correlation of the paper's Eq. 11 well defined.

    ``x`` may be 1-D ``(time,)`` or 2-D ``(time, channels)``; the
    transform runs along axis 0 and 2-D input transforms every channel
    column in one call (the batched hot path of the amplitude denoiser).

    ``dtype`` is the working precision: ``None`` (default) coerces the
    input to float64 exactly as before, so existing callers -- including
    float32 callers relying on the float64 reference agreement -- are
    untouched; an explicit float32 runs the whole transform (signal and
    filter taps) in single precision.
    """
    x = np.asarray(x, dtype=float if dtype is None else dtype)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"swt expects a 1-D or 2-D (time, channels) signal, "
            f"got shape {x.shape}"
        )
    limit = max_swt_level(x.shape[0], wavelet)
    if limit == 0:
        raise ValueError(
            f"signal of length {x.shape[0]} too short for wavelet "
            f"{wavelet.name!r}"
        )
    if level is None:
        level = min(3, limit)
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    level = min(level, limit)

    h = wavelet.dec_lo.astype(x.dtype, copy=False)
    g = wavelet.dec_hi.astype(x.dtype, copy=False)
    details: list[np.ndarray] = []
    approx = x
    for lev in range(level):
        hole = 2 ** lev
        details.append(_atrous_correlate(approx, g, hole))
        approx = _atrous_correlate(approx, h, hole)
    return approx, details


def iswt(
    approx: np.ndarray,
    details: list[np.ndarray],
    wavelet: Wavelet,
    dtype: np.dtype | type | None = None,
) -> np.ndarray:
    """Inverse stationary transform (exact for orthonormal filters).

    Uses the identity ``x = (H^T a + G^T d) / 2`` level by level, which
    follows from the analysis operators satisfying
    ``H^T H + G^T G = 2 I``.

    ``dtype`` mirrors :func:`swt`: ``None`` keeps the float64 coercion,
    float32 reconstructs in single precision.
    """
    work_dtype = np.dtype(float if dtype is None else dtype)
    h = wavelet.dec_lo.astype(work_dtype, copy=False)
    g = wavelet.dec_hi.astype(work_dtype, copy=False)
    current = np.asarray(approx, dtype=work_dtype)
    for lev in reversed(range(len(details))):
        hole = 2 ** lev
        current = 0.5 * (
            _atrous_adjoint(current, h, hole)
            + _atrous_adjoint(
                np.asarray(details[lev], dtype=work_dtype), g, hole
            )
        )
    return current


# ----------------------------------------------------------------------
# Scalar reference implementations (pre-vectorization), kept for the
# bit-equivalence regression tests and the perf suite's baseline.
# ----------------------------------------------------------------------


def _reference_swt(
    x: np.ndarray, wavelet: Wavelet, level: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Strictly 1-D :func:`swt` using the original index-matrix kernels."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"swt expects a 1-D signal, got shape {x.shape}")
    limit = max_swt_level(x.size, wavelet)
    if limit == 0:
        raise ValueError(
            f"signal of length {x.size} too short for wavelet "
            f"{wavelet.name!r}"
        )
    if level is None:
        level = min(3, limit)
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    level = min(level, limit)

    h = wavelet.dec_lo
    g = wavelet.dec_hi
    details: list[np.ndarray] = []
    approx = x
    for lev in range(level):
        hole = 2 ** lev
        details.append(_reference_atrous_correlate(approx, g, hole))
        approx = _reference_atrous_correlate(approx, h, hole)
    return approx, details


def _reference_iswt(
    approx: np.ndarray, details: list[np.ndarray], wavelet: Wavelet
) -> np.ndarray:
    """Strictly 1-D :func:`iswt` using the original index-matrix kernels."""
    h = wavelet.dec_lo
    g = wavelet.dec_hi
    current = np.asarray(approx, dtype=float)
    for lev in reversed(range(len(details))):
        hole = 2 ** lev
        current = 0.5 * (
            _reference_atrous_adjoint(current, h, hole)
            + _reference_atrous_adjoint(
                np.asarray(details[lev], dtype=float), g, hole
            )
        )
    return current
