"""Amplitude Denoising Module (paper Sec. III-C).

Three stages, mirroring the paper:

1. **Outlier rejection** -- amplitudes outside ``mu +/- 3 sigma`` are
   dropped (replaced by the surviving median).
2. **Impulse-noise removal** -- the spatially-selective wavelet filter of
   Eq. 8-13 (see :mod:`repro.dsp.wavelet_denoise`), applied to each
   (subcarrier, antenna) amplitude time series.
3. **Amplitude ratio** -- close-by antennas see near-identical multipath
   and share the hardware gain, so the *ratio* of their amplitudes is far
   more stable than either amplitude alone (Fig. 8); the ratio is what
   feeds the material feature.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import validate_antenna, validate_antenna_pair
from repro.csi.model import CsiTrace, trace_fingerprint
from repro.dsp.stats import finite_mean
from repro.dsp.wavelet_denoise import SpatiallySelectiveDenoiser, denoise_columns

#: Amplitudes below this are clamped before ratios/logs (quantisation can
#: produce exact zeros).
_AMPLITUDE_EPS = 1e-9


class AmplitudeProcessor:
    """Denoises CSI amplitudes and forms inter-antenna ratios."""

    def __init__(
        self,
        denoiser: SpatiallySelectiveDenoiser | None = None,
        denoise: bool = True,
    ):
        self.denoiser = (
            denoiser if denoiser is not None else SpatiallySelectiveDenoiser()
        )
        self.denoise = denoise
        # Denoising all (subcarrier, antenna) series of a trace is the
        # pipeline's hot spot and several consumers (each antenna pair,
        # the coarse pair) ask for the same trace; memoise per trace
        # content.  Object ids would not do: CPython reuses the id of a
        # freed trace for the next one allocated.
        self._cache: dict[str, np.ndarray] = {}
        self._cache_order: list[str] = []

    # ------------------------------------------------------------------

    def clean_amplitudes(self, trace: CsiTrace) -> np.ndarray:
        """Denoised ``|H|`` series, shape ``(M, K, A)``.

        With ``denoise=False`` the raw amplitudes are returned (the
        Fig. 14 ablation).
        """
        key = trace_fingerprint(trace)
        if key in self._cache:
            return self._cache[key]
        cleaned = self.compute_clean_amplitudes(trace)
        self._cache[key] = cleaned
        self._cache_order.append(key)
        if len(self._cache_order) > 64:
            oldest = self._cache_order.pop(0)
            self._cache.pop(oldest, None)
        return cleaned

    def compute_clean_amplitudes(self, trace: CsiTrace) -> np.ndarray:
        """Uncached denoising pass over one trace, shape ``(M, K, A)``.

        The one-trace case of :meth:`compute_clean_amplitudes_many`.
        """
        return self.compute_clean_amplitudes_many([trace])[0]

    def compute_clean_amplitudes_many(
        self, traces: list[CsiTrace]
    ) -> list[np.ndarray]:
        """Uncached denoising of many traces, one ``(M, K, A)`` cube each.

        The stage-graph engine's ``amplitude_denoise`` stage calls this
        and memoizes each cube in its :class:`repro.engine.cache.StageCache`
        (keyed by the trace's *content* hash, not object identity), so
        every denoiser invocation in the engine path is observable
        through stage hooks.

        Traces with the same packet count ``M`` are denoised together:
        their ``(M, K*A)`` (subcarrier, antenna) columns are concatenated
        into one block and go through one denoiser call.  Imputation,
        dead-column restore and every denoiser step are per column, so
        each cube is bit-identical to denoising its trace alone.  With
        ``denoise=False`` the raw amplitudes are returned (the Fig. 14
        ablation).
        """
        cubes = [trace.amplitudes() for trace in traces]
        if any(cube.size == 0 for cube in cubes):
            raise ValueError("empty trace")
        if not self.denoise:
            return [np.clip(cube, _AMPLITUDE_EPS, None) for cube in cubes]
        by_length: dict[int, list[int]] = {}
        for i, cube in enumerate(cubes):
            by_length.setdefault(cube.shape[0], []).append(i)
        cleaned: dict[int, np.ndarray] = {}
        for num_packets, members in by_length.items():
            blocks = [cubes[i].reshape(num_packets, -1) for i in members]
            denoised = denoise_columns(
                np.concatenate(blocks, axis=1), self.denoiser
            )
            edges = np.cumsum([block.shape[1] for block in blocks])[:-1]
            for i, part in zip(members, np.split(denoised, edges, axis=1)):
                cleaned[i] = np.clip(
                    part.reshape(cubes[i].shape), _AMPLITUDE_EPS, None
                )
        return [cleaned[i] for i in range(len(cubes))]

    def amplitude_ratio(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Per-packet inter-antenna amplitude ratio, shape ``(M, K)``."""
        i, j = self._check_pair(trace, pair)
        cleaned = self.clean_amplitudes(trace)
        return cleaned[:, :, i] / cleaned[:, :, j]

    def averaged_amplitude_ratio(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Packet-averaged ratio per subcarrier, shape ``(K,)``.

        Averaged in the log domain, the natural scale of a ratio (the
        feature consumes ``ln`` of it anyway).  Packets that are NaN on a
        subcarrier are excluded from that subcarrier's mean; a subcarrier
        with no finite packet at all averages to NaN for the downstream
        guards to reject by name.
        """
        ratio = self.amplitude_ratio(trace, pair)
        return np.exp(finite_mean(np.log(ratio), axis=0))

    @staticmethod
    def averaged_ratio_from_clean(
        cleaned: np.ndarray, pair: tuple[int, int]
    ) -> np.ndarray:
        """:meth:`averaged_amplitude_ratio` from a precomputed clean cube.

        Lets the stage-graph engine form every antenna pair's ratio from
        one cached denoiser pass: ``cleaned`` is the ``(M, K, A)`` output
        of :meth:`compute_clean_amplitudes`.
        """
        i, j = validate_antenna_pair(pair, cleaned.shape[2])
        ratio = cleaned[:, :, i] / cleaned[:, :, j]
        return np.exp(finite_mean(np.log(ratio), axis=0))

    # ------------------------------------------------------------------
    # Diagnostics for the Fig. 8 microbenchmark
    # ------------------------------------------------------------------

    def amplitude_variance_per_subcarrier(
        self, trace: CsiTrace, antenna: int
    ) -> np.ndarray:
        """Normalised variance of raw ``|H|`` across packets, shape ``(K,)``.

        Normalised by the squared mean so antennas with different gains
        are comparable (Fig. 8 plots all curves on one axis).
        """
        amps = trace.amplitudes()
        if amps.size == 0:
            raise ValueError("empty trace")
        validate_antenna(antenna, amps.shape[2])
        series = amps[:, :, antenna]
        means = np.clip(series.mean(axis=0), _AMPLITUDE_EPS, None)
        return series.var(axis=0) / (means ** 2)

    def ratio_variance_per_subcarrier(
        self, trace: CsiTrace, pair: tuple[int, int]
    ) -> np.ndarray:
        """Normalised variance of the raw amplitude ratio, shape ``(K,)``.

        NaN-aware: degraded packets are excluded per subcarrier, and a
        subcarrier with no finite ratio scores NaN (filtered out by the
        antenna-pair selector instead of poisoning its stability score).
        """
        i, j = self._check_pair(trace, pair)
        amps = np.clip(trace.amplitudes(), _AMPLITUDE_EPS, None)
        ratio = amps[:, :, i] / amps[:, :, j]
        means = np.clip(finite_mean(ratio, axis=0), _AMPLITUDE_EPS, None)
        variance = finite_mean((ratio - means[None, :]) ** 2, axis=0)
        return variance / (means ** 2)

    # ------------------------------------------------------------------

    @staticmethod
    def _check_pair(trace: CsiTrace, pair: tuple[int, int]) -> tuple[int, int]:
        if len(trace) == 0:
            raise ValueError("empty trace")
        return validate_antenna_pair(pair, trace.num_antennas)
