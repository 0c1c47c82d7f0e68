"""CSI data containers.

These are the interchange types of the whole system: the simulator emits
them, the pre-processing modules consume them.  A real deployment would
construct the same objects from Intel 5300 CSI Tool ``.dat`` parses, which
is why nothing downstream of this module knows the data is synthetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CsiPacket:
    """CSI of one received packet.

    Attributes:
        csi: Complex channel matrix, shape ``(num_subcarriers, num_antennas)``.
        timestamp_s: Receive time in seconds from session start.
        sequence: Packet sequence number.
    """

    csi: np.ndarray
    timestamp_s: float = 0.0
    sequence: int = 0

    def __post_init__(self) -> None:
        csi = np.asarray(self.csi)
        if csi.ndim != 2:
            raise ValueError(
                f"csi must be 2-D (subcarriers, antennas), got shape {csi.shape}"
            )
        if not np.iscomplexobj(csi):
            raise TypeError("csi must be a complex array")
        object.__setattr__(self, "csi", csi)

    @property
    def num_subcarriers(self) -> int:
        """Number of reported subcarriers."""
        return self.csi.shape[0]

    @property
    def num_antennas(self) -> int:
        """Number of receive antennas."""
        return self.csi.shape[1]

    def amplitude(self) -> np.ndarray:
        """``|H|`` per subcarrier/antenna."""
        return np.abs(self.csi)

    def phase(self) -> np.ndarray:
        """``angle(H)`` per subcarrier/antenna, in ``(-pi, pi]``."""
        return np.angle(self.csi)


@dataclass
class CsiTrace:
    """A time-ordered sequence of CSI packets from one capture session.

    The canonical dense view is :meth:`matrix`, a complex array of shape
    ``(num_packets, num_subcarriers, num_antennas)``.
    """

    packets: list[CsiPacket] = field(default_factory=list)
    carrier_hz: float = 5.32e9
    label: str = ""

    def __post_init__(self) -> None:
        shapes = {p.csi.shape for p in self.packets}
        if len(shapes) > 1:
            raise ValueError(f"inconsistent packet shapes in trace: {shapes}")

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)

    def __getitem__(self, index: int) -> CsiPacket:
        return self.packets[index]

    @property
    def num_subcarriers(self) -> int:
        """Subcarriers per packet (0 for an empty trace)."""
        return self.packets[0].num_subcarriers if self.packets else 0

    @property
    def num_antennas(self) -> int:
        """Antennas per packet (0 for an empty trace)."""
        return self.packets[0].num_antennas if self.packets else 0

    def matrix(self) -> np.ndarray:
        """Dense ``(packets, subcarriers, antennas)`` complex array."""
        if not self.packets:
            return np.zeros((0, 0, 0), dtype=complex)
        return np.stack([p.csi for p in self.packets])

    def amplitudes(self) -> np.ndarray:
        """``|H|`` over the whole trace, same shape as :meth:`matrix`."""
        return np.abs(self.matrix())

    def phases(self) -> np.ndarray:
        """``angle(H)`` over the whole trace, same shape as :meth:`matrix`."""
        return np.angle(self.matrix())

    def timestamps(self) -> np.ndarray:
        """Packet receive times (seconds from session start)."""
        return np.array([p.timestamp_s for p in self.packets])

    def subset(self, num_packets: int) -> "CsiTrace":
        """First ``num_packets`` packets as a new trace (paper Fig. 18)."""
        if num_packets < 0:
            raise ValueError(f"num_packets must be >= 0, got {num_packets}")
        return CsiTrace(
            packets=self.packets[:num_packets],
            carrier_hz=self.carrier_hz,
            label=self.label,
        )

    @staticmethod
    def from_matrix(
        matrix: np.ndarray,
        carrier_hz: float = 5.32e9,
        packet_interval_s: float = 0.01,
        label: str = "",
    ) -> "CsiTrace":
        """Build a trace from a dense ``(packets, subcarriers, antennas)``
        array, with evenly spaced timestamps (10 ms default, as the paper's
        receiver logs CSI every 10 ms)."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 3:
            raise ValueError(
                f"matrix must be 3-D (packets, subcarriers, antennas), "
                f"got shape {matrix.shape}"
            )
        packets = [
            CsiPacket(csi=matrix[m], timestamp_s=m * packet_interval_s, sequence=m)
            for m in range(matrix.shape[0])
        ]
        return CsiTrace(packets=packets, carrier_hz=carrier_hz, label=label)


#: Attribute a computed content hash is pinned under on traces/sessions.
FINGERPRINT_ATTR = "_engine_fingerprint"


def hash_array(h: "hashlib._Hash", array: np.ndarray) -> None:
    """Feed an array's shape, dtype and bytes into a running hash."""
    array = np.ascontiguousarray(array)
    h.update(str(array.shape).encode())
    h.update(str(array.dtype).encode())
    h.update(array.tobytes())


def trace_fingerprint(trace) -> str:
    """Content hash of one :class:`repro.csi.model.CsiTrace`.

    Hashes the dense complex matrix, so two traces with identical CSI get
    the same fingerprint regardless of labels or timestamps.  The result
    is pinned on the trace (traces are de-facto immutable after capture),
    so repeated calls are O(1).
    """
    cached = getattr(trace, FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    hash_array(h, trace.matrix())
    fingerprint = h.hexdigest()
    try:
        object.__setattr__(trace, FINGERPRINT_ATTR, fingerprint)
    except (AttributeError, TypeError):
        pass  # exotic trace type without a __dict__; recompute next time
    return fingerprint
