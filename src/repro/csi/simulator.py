"""End-to-end CSI capture simulator.

This module replaces the paper's physical testbed (router + Intel 5300
laptop + beaker of liquid).  A :class:`SimulationScene` describes the
layout; :class:`CsiSimulator` turns it into packet streams:

1.  Build the multipath channel for the environment (LoS + reflections).
2.  When a target is present, multiply the LoS ray, per antenna and per
    subcarrier, with the penetration response of Eq. 2-4 (liquid column +
    container wall), blended with a diffracted leakage ray according to the
    beaker's size (paper Fig. 19: beakers narrower than the wavelength
    mostly diffract).
3.  Per packet, jitter the reflected rays (temporal fading), add the
    receiver noise floor, and run the hardware impairment stack (CFO/SFO/
    PBD, per-antenna noise, outliers, impulse noise, quantisation).

Bulk-gain normalisation
-----------------------
Several of the paper's liquids are so lossy at 5 GHz that a strictly
plane-wave LoS crossing ~13 cm of liquid would arrive ~150 dB down --
while the real experiments clearly kept a usable signal (surface and
creeping waves, coherent leakage, receiver AGC).  The simulator therefore
normalises the *common* (geometric-mean) gain of the penetrated LoS to
unity, applied equally to every antenna and subcarrier (toggled by
``normalize_bulk_gain``).  A factor common to all antennas and
subcarriers cancels exactly in the phase difference ``Delta-Theta`` and
the double amplitude ratio ``Delta-Psi`` (Eq. 18-19), so this
normalisation does not distort the material feature; it only keeps the
differential structure -- which is all WiMi measures -- above the noise
floor, as the real hardware evidently did.  This substitution is recorded
in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.channel.environment import Environment, make_environment
from repro.channel.geometry import CylinderTarget, LinkGeometry
from repro.channel.materials import Material
from repro.channel.multipath import MultipathChannel
from repro.channel.propagation import (
    penetration_response,
    penetration_response_array,
)
from repro.csi.impairments import HardwareProfile
from repro.csi.model import CsiTrace
from repro.csi.subcarriers import subcarrier_frequencies
from repro.dsp.precision import complex_dtype, real_dtype, validate_precision

#: Packet interval of the paper's receiver (one CSI sample every 10 ms).
PACKET_INTERVAL_S = 0.01


@dataclass(frozen=True)
class SimulationScene:
    """Everything static about one deployment.

    Attributes:
        geometry: Tx / Rx-array / target layout.
        environment: Multipath preset (hall / lab / library).
        target: The beaker, or None for a bare link.
        carrier_hz: Channel centre frequency.
        normalize_bulk_gain: Normalise the common penetrated-LoS gain to
            unity (see module docstring).  Disable only for physics unit
            tests that check raw attenuation.
        diffraction_leak_gain: Amplitude of the around-the-beaker diffracted
            ray relative to free-space LoS.
        diffraction_phase_jitter: Placement sensitivity of the creeping
            wave's phase (radians), scaled by the diffracted fraction
            ``1 - kappa``.  In the Mie regime (beaker ~ wavelength) the
            around-the-target path is hypersensitive to millimetre
            placement changes, which is what destroys identification for
            sub-wavelength beakers (paper Fig. 19).
    """

    geometry: LinkGeometry = field(default_factory=LinkGeometry)
    environment: Environment = field(default_factory=lambda: make_environment("lab"))
    target: CylinderTarget | None = None
    carrier_hz: float = 5.32e9
    normalize_bulk_gain: bool = True
    diffraction_leak_gain: float = 0.8
    diffraction_phase_jitter: float = 1.2

    def __post_init__(self) -> None:
        if self.carrier_hz <= 0:
            raise ValueError(f"carrier must be positive, got {self.carrier_hz}")
        if self.diffraction_leak_gain < 0:
            raise ValueError("diffraction_leak_gain must be >= 0")
        if self.diffraction_phase_jitter < 0:
            raise ValueError("diffraction_phase_jitter must be >= 0")


class CsiSimulator:
    """Generates CSI traces for one scene.

    One simulator instance holds one concrete multipath realisation, so
    baseline and target captures taken from the same instance see the same
    static environment -- exactly like the paper's paired measurements.

    ``precision`` is the working dtype of the vectorised compute pass
    (``WiMiConfig.compute_precision``): float32 runs the per-packet
    channel evaluation and impairment chain in complex64.  The RNG draw
    pass is always float64 in the legacy order, so a seed selects the
    same randomness at either precision, and the emitted trace is
    complex128 either way (:meth:`CsiTrace.from_matrix` coerces).
    """

    def __init__(
        self,
        scene: SimulationScene,
        profile: HardwareProfile | None = None,
        rng: np.random.Generator | int | None = None,
        channel: MultipathChannel | None = None,
        precision: str = "float64",
    ):
        validate_precision(precision)
        self.scene = scene
        self.precision = precision
        self._cdtype = complex_dtype(precision)
        self.profile = profile if profile is not None else HardwareProfile()
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        if channel is not None:
            self.channel = channel
        else:
            self.channel = scene.environment.build_channel(
                scene.geometry, self.rng
            )
        self.frequencies_hz = subcarrier_frequencies(scene.carrier_hz)

    # ------------------------------------------------------------------
    # Target physics
    # ------------------------------------------------------------------

    def target_multiplier(self, material: Material) -> np.ndarray:
        """Per-(subcarrier, antenna) complex LoS multiplier for the target.

        Combines liquid-column and container-wall penetration (Eq. 2-4),
        bulk-gain normalisation, and diffraction blending.
        """
        target = self.scene.target
        if target is None:
            raise ValueError("scene has no target; nothing to multiply")
        geometry = self.scene.geometry
        liquid_paths = geometry.liquid_path_lengths(target)
        wall_paths = geometry.wall_path_lengths(target)
        wall_material = target.wall_material

        num_ant = len(liquid_paths)
        grid = np.zeros((self.frequencies_hz.size, num_ant), dtype=complex)
        for a in range(num_ant):
            # All subcarriers of one antenna in a single array pass.
            grid[:, a] = penetration_response_array(
                material, liquid_paths[a], self.frequencies_hz
            ) * penetration_response_array(
                wall_material, wall_paths[a], self.frequencies_hz
            )

        grid = self._normalise_bulk_gain(grid)
        return self._blend_diffraction(grid, target)

    def _reference_target_multiplier(self, material: Material) -> np.ndarray:
        """Original per-(subcarrier, antenna) scalar loop (equivalence ref)."""
        target = self.scene.target
        if target is None:
            raise ValueError("scene has no target; nothing to multiply")
        geometry = self.scene.geometry
        liquid_paths = geometry.liquid_path_lengths(target)
        wall_paths = geometry.wall_path_lengths(target)
        wall_material = target.wall_material

        num_ant = len(liquid_paths)
        grid = np.zeros((self.frequencies_hz.size, num_ant), dtype=complex)
        for a in range(num_ant):
            for k, freq in enumerate(self.frequencies_hz):
                response = penetration_response(material, liquid_paths[a], freq)
                response *= penetration_response(
                    wall_material, wall_paths[a], freq
                )
                grid[k, a] = response

        grid = self._normalise_bulk_gain(grid)
        return self._blend_diffraction(grid, target)

    def _moving_target_multiplier(
        self, material: Material, motion_std_m: float
    ) -> np.ndarray:
        """One packet's multiplier with the liquid column displaced.

        Sloshing/flowing liquid shifts the effective column laterally by a
        random amount each packet; all chord lengths (and therefore both
        the differential phase and amplitude signatures) move with it.
        """
        from dataclasses import replace

        target = self.scene.target
        displaced = replace(
            target,
            lateral_offset=target.lateral_offset
            + self.rng.normal(0.0, motion_std_m),
        )
        original_scene = self.scene
        try:
            self.scene = replace(original_scene, target=displaced)
            return self.target_multiplier(material)
        finally:
            self.scene = original_scene

    def _normalise_bulk_gain(self, grid: np.ndarray) -> np.ndarray:
        """Scale the common attenuation to unit geometric mean.

        The common gain is the geometric mean of ``|grid|`` over all cells;
        rescaling it uniformly preserves every amplitude ratio and every
        phase, so the material feature is untouched (module docstring).
        """
        if not self.scene.normalize_bulk_gain:
            return grid
        mags = np.abs(grid)
        if np.any(mags == 0):
            return grid
        common = math.exp(float(np.mean(np.log(mags))))
        if common <= 0:
            return grid
        return grid / common

    def _blend_diffraction(
        self, grid: np.ndarray, target: CylinderTarget
    ) -> np.ndarray:
        """Mix penetrated and diffracted energy per the beaker size.

        A fraction ``kappa`` of the LoS energy penetrates (Eq. 2-4 applies);
        the rest creeps around the cylinder, arriving with a small extra
        free-space delay and no material signature.  For the paper's large
        beakers ``kappa ~ 1``; below one wavelength diffraction dominates
        and the feature washes out (Fig. 19).
        """
        wavelength = 299792458.0 / self.scene.carrier_hz
        kappa = target.diffraction_factor(wavelength)
        if kappa >= 0.999999:
            return grid
        geometry = self.scene.geometry
        center = geometry.target_center(target)
        tx = geometry.tx_position
        from repro.channel.geometry import chord_length

        # Placement-sensitive creeping-wave phase: per antenna, drawn once
        # per simulator instance (i.e. per placement of the beaker).
        sigma = self.scene.diffraction_phase_jitter * (1.0 - kappa)
        placement_phases = self.rng.normal(0.0, sigma, size=grid.shape[1])

        leak = np.zeros_like(grid)
        for a, rx in enumerate(geometry.rx_positions()):
            outer_chord = chord_length(tx, rx, center, target.outer_radius)
            # Detour of a creeping ray: arc instead of chord.
            extra = (math.pi / 2.0 - 1.0) * outer_chord
            phases = (
                -2.0 * math.pi * self.frequencies_hz * (extra / 299792458.0)
                + placement_phases[a]
            )
            leak[:, a] = self.scene.diffraction_leak_gain * np.exp(1j * phases)
        return kappa * grid + (1.0 - kappa) * leak

    # ------------------------------------------------------------------
    # Packet generation
    # ------------------------------------------------------------------

    def capture(
        self,
        material: Material | None,
        num_packets: int,
        label: str = "",
        motion_std_m: float = 0.0,
    ) -> CsiTrace:
        """Capture ``num_packets`` CSI packets.

        Args:
            material: Liquid in the beaker; ``None`` means no target on the
                LoS at all (bare link).  Passing :data:`repro.channel.AIR`
                with a target in the scene simulates the paper's baseline:
                the *empty* beaker standing on the LoS.
            num_packets: Number of packets (paper default: 20, Fig. 18).
            label: Trace label for bookkeeping.
            motion_std_m: Std-dev (metres) of per-packet lateral sloshing
                of the liquid column.  The paper's Discussion notes WiMi
                "can only identify the material type of a static liquid";
                this knob simulates a moving/flowing target so that
                limitation can be quantified (motion ablation bench).
                0 = the paper's static protocol.
        """
        if num_packets < 0:
            raise ValueError(f"num_packets must be >= 0, got {num_packets}")
        if motion_std_m < 0:
            raise ValueError(f"motion_std_m must be >= 0, got {motion_std_m}")
        if material is not None and self.scene.target is None:
            raise ValueError(
                "material given but the scene has no target container"
            )
        if material is not None and motion_std_m > 0:
            # The moving-target multiplier is inherently sequential (each
            # packet re-solves the displaced geometry); keep the scalar
            # per-packet path for it.
            return self._reference_capture(
                material, num_packets, label, motion_std_m
            )
        if material is None:
            multiplier: np.ndarray | complex = 1.0
        else:
            multiplier = self.target_multiplier(material)

        env = self.scene.environment
        num_paths = len(self.channel.paths)
        jitter_scales = np.array(
            [p.jitter_scale for p in self.channel.paths], dtype=float
        )
        num_ant = self.channel.num_antennas
        num_sc = self.frequencies_hz.size

        if num_packets == 0:
            return CsiTrace.from_matrix(
                np.zeros((0, num_sc, num_ant), dtype=complex),
                carrier_hz=self.scene.carrier_hz,
                packet_interval_s=PACKET_INTERVAL_S,
                label=label,
            )

        # Draw pass: consume the RNG stream packet by packet in *exactly*
        # the legacy order (jitter, gains, noise, impairments), so a seed
        # maps to the same trace as the original per-packet loop.  Every
        # draw count is data independent, which is what makes the split
        # between drawing and computing possible.
        phase_offsets = (
            np.zeros((num_packets, num_paths)) if num_paths else None
        )
        gain_factors = (
            np.zeros((num_packets, num_paths)) if num_paths else None
        )
        noise = (
            np.zeros((num_packets, num_sc, num_ant), dtype=complex)
            if env.noise_floor > 0
            else None
        )
        draws = []
        for m in range(num_packets):
            if num_paths:
                phase_offsets[m] = self.rng.normal(
                    0.0, env.temporal_jitter_rad, size=num_paths
                ) * jitter_scales
                gain_factors[m] = np.clip(
                    1.0 + self.rng.normal(0.0, env.gain_jitter, size=num_paths),
                    0.0,
                    None,
                )
            if env.noise_floor > 0:
                noise[m] = self.rng.standard_normal((num_sc, num_ant)) + 1j * (
                    self.rng.standard_normal((num_sc, num_ant))
                )
            draws.append(
                self.profile.draw_packet_impairments(num_sc, num_ant, self.rng)
            )

        # Compute pass: one broadcast evaluation over all packets, at the
        # simulator's working precision (the target physics above stays
        # float64; it is rounded once entering the channel).
        if num_paths:
            clean = self.channel.total_response_batch(
                self.frequencies_hz,
                los_multiplier=multiplier,
                phase_offsets=phase_offsets,
                gain_factors=gain_factors,
                dtype=real_dtype(self.precision),
            )
        else:
            static = self.channel.total_response(
                self.frequencies_hz, los_multiplier=multiplier
            ).astype(self._cdtype, copy=False)
            clean = np.broadcast_to(
                static[None, :, :], (num_packets, num_sc, num_ant)
            ).copy()
        if noise is not None:
            # Cast the (float64-drawn) noise once; the scalar factors are
            # weak, so a complex64 block stays complex64.
            noise = noise.astype(self._cdtype, copy=False)
            clean = clean + env.noise_floor * noise / math.sqrt(2.0)
        packets = self.profile.apply_to_packets(clean, draws)

        return CsiTrace.from_matrix(
            packets,
            carrier_hz=self.scene.carrier_hz,
            packet_interval_s=PACKET_INTERVAL_S,
            label=label,
        )

    def _reference_capture(
        self,
        material: Material | None,
        num_packets: int,
        label: str = "",
        motion_std_m: float = 0.0,
    ) -> CsiTrace:
        """Original per-packet capture loop.

        Still the implementation of record for moving targets, and the
        baseline the equivalence tests and the perf suite compare against.
        """
        if num_packets < 0:
            raise ValueError(f"num_packets must be >= 0, got {num_packets}")
        if motion_std_m < 0:
            raise ValueError(f"motion_std_m must be >= 0, got {motion_std_m}")
        if material is not None and self.scene.target is None:
            raise ValueError(
                "material given but the scene has no target container"
            )
        if material is None:
            multiplier: np.ndarray | complex = 1.0
        else:
            multiplier = self.target_multiplier(material)

        env = self.scene.environment
        num_paths = len(self.channel.paths)
        jitter_scales = np.array(
            [p.jitter_scale for p in self.channel.paths], dtype=float
        )
        num_ant = self.channel.num_antennas
        num_sc = self.frequencies_hz.size

        packets = np.zeros((num_packets, num_sc, num_ant), dtype=complex)
        for m in range(num_packets):
            if num_paths:
                phase_offsets = self.rng.normal(
                    0.0, env.temporal_jitter_rad, size=num_paths
                ) * jitter_scales
                gain_factors = np.clip(
                    1.0 + self.rng.normal(0.0, env.gain_jitter, size=num_paths),
                    0.0,
                    None,
                )
            else:
                phase_offsets = None
                gain_factors = None
            if material is not None and motion_std_m > 0:
                # Liquid in motion: the column's effective position moves
                # packet to packet, changing every chord length.
                multiplier = self._moving_target_multiplier(
                    material, motion_std_m
                )
            clean = self.channel.total_response(
                self.frequencies_hz,
                los_multiplier=multiplier,
                phase_offsets=phase_offsets,
                gain_factors=gain_factors,
            )
            if env.noise_floor > 0:
                noise = self.rng.standard_normal(clean.shape) + 1j * (
                    self.rng.standard_normal(clean.shape)
                )
                clean = clean + env.noise_floor * noise / math.sqrt(2.0)
            packets[m] = self.profile.apply_to_packet(clean, self.rng)

        return CsiTrace.from_matrix(
            packets,
            carrier_hz=self.scene.carrier_hz,
            packet_interval_s=PACKET_INTERVAL_S,
            label=label,
        )
