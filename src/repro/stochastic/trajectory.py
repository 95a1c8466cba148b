"""Sampled simulation traces.

A :class:`Trajectory` is what every simulator in :mod:`repro.stochastic`
returns and what the logic-analysis algorithm consumes: species amounts
sampled on a uniform (or at least monotone) time grid.  The paper's algorithm
operates on "simulation data of all I/O species" (``SDAn``) — that is exactly
this object (or its CSV serialization, see :mod:`repro.io.csvlog`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import SimulationError

__all__ = [
    "Trajectory",
    "encode_trajectories",
    "decode_trajectories",
    "TRAJECTORY_FRAME_MAGIC",
    "TRAJECTORY_FRAME_VERSION",
]


@dataclass
class Trajectory:
    """Species amounts sampled over time.

    Attributes
    ----------
    times:
        1-D array of sample times, strictly increasing.
    species:
        Names of the recorded species, one per column of ``data``.
    data:
        2-D array of shape ``(len(times), len(species))`` holding the amount
        of each species at each sample time.
    """

    times: np.ndarray
    species: List[str]
    data: np.ndarray

    def __post_init__(self) -> None:
        # C-contiguous float64 is part of the dataclass contract: the binary
        # transport (encode_trajectories) takes zero-copy memoryviews of both
        # arrays.  ascontiguousarray is a no-op for arrays already in that
        # layout (every simulator's output), and normalizes Fortran-ordered
        # or integer input.
        self.times = np.ascontiguousarray(self.times, dtype=float)
        self.data = np.ascontiguousarray(self.data, dtype=float)
        self.species = list(self.species)
        if self.times.ndim != 1:
            raise SimulationError("trajectory times must be a 1-D array")
        if self.data.ndim != 2:
            raise SimulationError("trajectory data must be a 2-D array")
        if self.data.shape[0] != self.times.shape[0]:
            raise SimulationError(
                f"trajectory has {self.times.shape[0]} sample times but "
                f"{self.data.shape[0]} data rows",
            )
        if self.data.shape[1] != len(self.species):
            raise SimulationError(
                f"trajectory has {len(self.species)} species names but "
                f"{self.data.shape[1]} data columns",
            )
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise SimulationError("trajectory times must be strictly increasing")

    # -- basic access --------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.shape[0])

    def __contains__(self, species: str) -> bool:
        return species in self.species

    def column(self, species: str) -> np.ndarray:
        """The sampled amounts of one species (1-D array)."""
        try:
            index = self.species.index(species)
        except ValueError:
            raise SimulationError(
                f"species {species!r} is not recorded in this trajectory "
                f"(available: {', '.join(self.species)})",
            ) from None
        return self.data[:, index]

    def __getitem__(self, species: str) -> np.ndarray:
        return self.column(species)

    def as_dict(self) -> Dict[str, np.ndarray]:
        """All columns keyed by species name."""
        return {name: self.data[:, i] for i, name in enumerate(self.species)}

    def value_at(self, species: str, time: float) -> float:
        """Amount of ``species`` at the last sample at or before ``time``."""
        column = self.column(species)
        index = int(np.searchsorted(self.times, time, side="right")) - 1
        if index < 0:
            raise SimulationError(f"time {time:g} is before the first sample")
        return float(column[index])

    def final_state(self) -> Dict[str, float]:
        """Species amounts at the last sample."""
        return {name: float(self.data[-1, i]) for i, name in enumerate(self.species)}

    @property
    def sample_interval(self) -> float:
        """The (median) spacing between consecutive samples."""
        if len(self.times) < 2:
            return 0.0
        return float(np.median(np.diff(self.times)))

    # -- transformations ------------------------------------------------------
    def select(self, species: Sequence[str]) -> "Trajectory":
        """A trajectory restricted to the given species, in the given order."""
        indices = []
        for name in species:
            if name not in self.species:
                raise SimulationError(f"species {name!r} is not recorded")
            indices.append(self.species.index(name))
        return Trajectory(self.times.copy(), list(species), self.data[:, indices].copy())

    def slice_time(self, t_start: float, t_end: float) -> "Trajectory":
        """Samples with ``t_start <= t <= t_end``."""
        if t_end < t_start:
            raise SimulationError("t_end must be >= t_start")
        mask = (self.times >= t_start) & (self.times <= t_end)
        return Trajectory(self.times[mask].copy(), list(self.species), self.data[mask].copy())

    def resample(self, new_times: Iterable[float]) -> "Trajectory":
        """Zero-order-hold resample onto ``new_times``.

        Genetic traces are step functions between SSA events, so the correct
        interpolation is "last value seen", not linear.
        """
        new_times = np.asarray(list(new_times), dtype=float)
        if new_times.size and new_times[0] < self.times[0]:
            raise SimulationError("cannot resample before the first sample time")
        indices = np.searchsorted(self.times, new_times, side="right") - 1
        indices = np.clip(indices, 0, len(self.times) - 1)
        return Trajectory(new_times, list(self.species), self.data[indices].copy())

    def mean(
        self,
        species: str,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
    ) -> float:
        """Time-window mean of one species (used by threshold estimation)."""
        column = self.column(species)
        mask = np.ones_like(self.times, dtype=bool)
        if t_start is not None:
            mask &= self.times >= t_start
        if t_end is not None:
            mask &= self.times <= t_end
        if not mask.any():
            raise SimulationError("mean() window contains no samples")
        return float(column[mask].mean())

    def concat(self, other: "Trajectory") -> "Trajectory":
        """Append another trajectory recorded over a later time window."""
        if list(other.species) != list(self.species):
            raise SimulationError("cannot concatenate trajectories with different species")
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        if other.times[0] <= self.times[-1]:
            # Drop overlapping leading samples of `other`.
            keep = other.times > self.times[-1]
            other = Trajectory(other.times[keep], list(other.species), other.data[keep])
            if len(other) == 0:
                return self
        return Trajectory(
            np.concatenate([self.times, other.times]),
            list(self.species),
            np.vstack([self.data, other.data]),
        )

    def with_column(self, species: str, values: np.ndarray) -> "Trajectory":
        """Return a copy with an extra (or replaced) species column."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.times.shape:
            raise SimulationError(
                f"column for {species!r} has shape {values.shape}, expected {self.times.shape}",
            )
        if species in self.species:
            data = self.data.copy()
            data[:, self.species.index(species)] = values
            return Trajectory(self.times.copy(), list(self.species), data)
        return Trajectory(
            self.times.copy(),
            list(self.species) + [species],
            np.column_stack([self.data, values]),
        )

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        times: Iterable[float],
        columns: Mapping[str, Iterable[float]],
    ) -> "Trajectory":
        """Build a trajectory from ``{species: samples}`` columns."""
        names = list(columns.keys())
        times = np.asarray(list(times), dtype=float)
        data = np.column_stack([np.asarray(list(columns[name]), dtype=float) for name in names])
        return cls(times, names, data)

    @classmethod
    def empty(cls, species: Sequence[str]) -> "Trajectory":
        """A trajectory with no samples (useful as a concat identity)."""
        return cls(np.empty(0, dtype=float), list(species), np.empty((0, len(species))))


# -- compact binary transport -------------------------------------------------
#
# The ensemble engine's batch result path ships trajectories as one versioned
# binary frame per batch instead of one pickle per replicate.  Layout (all
# integers little-endian):
#
#   magic      4 bytes   b"GLTF"
#   version    u16       TRAJECTORY_FRAME_VERSION
#   flags      u16       bit 0: all trajectories share one time grid
#   n_traj     u32
#   n_species  u32
#   species    n_species × (u16 length + UTF-8 bytes)   (shared by the batch)
#   times      shared grid: one block; else one per trajectory:
#              u32 n_times + n_times × f64 (raw little-endian)
#   data       n_traj × (n_times × n_species × f64, C order, raw LE)
#
# Lockstep batch replicates share grid and species, so the header and the
# time block are paid once per *batch*; the per-replicate cost is exactly the
# raw float64 data block, with no pickle framing, no per-object type tags and
# no duplicated species strings.  Values round-trip exactly (same bits,
# including NaN payloads).

TRAJECTORY_FRAME_MAGIC = b"GLTF"
TRAJECTORY_FRAME_VERSION = 1
_FLAG_SHARED_GRID = 1

_HEADER = struct.Struct("<4sHHII")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _le_f64_view(array: np.ndarray) -> memoryview:
    """A zero-copy little-endian float64 memoryview of a contiguous array."""
    # Trajectory.__post_init__ guarantees C-contiguous float64, and the
    # supported platforms are little-endian, so this never copies; the
    # astype is a safety net for exotic inputs.
    if array.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        array = array.astype("<f8")
    return memoryview(np.ascontiguousarray(array, dtype=np.float64)).cast("B")


def encode_trajectories(trajectories: Sequence[Trajectory]) -> bytes:
    """Encode a batch of trajectories into one compact binary frame.

    Every trajectory must record the same species (true for lockstep batch
    replicates by construction); a shared time grid is detected and encoded
    once.  The inverse is :func:`decode_trajectories`.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise SimulationError("cannot encode an empty trajectory batch")
    species = trajectories[0].species
    for trajectory in trajectories[1:]:
        if trajectory.species != species:
            raise SimulationError(
                "a trajectory frame requires one shared species table; got "
                f"{species} and {trajectory.species}",
            )
    first_times = trajectories[0].times
    shared_grid = all(
        t.times is first_times
        or (t.times.shape == first_times.shape and np.array_equal(t.times, first_times))
        for t in trajectories[1:]
    )
    flags = _FLAG_SHARED_GRID if shared_grid else 0

    pieces = [
        _HEADER.pack(
            TRAJECTORY_FRAME_MAGIC,
            TRAJECTORY_FRAME_VERSION,
            flags,
            len(trajectories),
            len(species),
        ),
    ]
    for name in species:
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise SimulationError(f"species name too long to encode: {name[:40]!r}...")
        pieces.append(_U16.pack(len(encoded)))
        pieces.append(encoded)
    if shared_grid:
        pieces.append(_U32.pack(first_times.shape[0]))
        pieces.append(_le_f64_view(first_times))
        for trajectory in trajectories:
            pieces.append(_le_f64_view(trajectory.data))
    else:
        for trajectory in trajectories:
            pieces.append(_U32.pack(trajectory.times.shape[0]))
            pieces.append(_le_f64_view(trajectory.times))
            pieces.append(_le_f64_view(trajectory.data))
    return b"".join(pieces)


class _FrameReader:
    """Cursor over a frame's bytes; every read validates the remaining length."""

    def __init__(self, frame: bytes):
        self.buffer = frame
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if self.offset + count > len(self.buffer):
            raise SimulationError(
                f"truncated trajectory frame: wanted {count} bytes at offset "
                f"{self.offset}, frame has {len(self.buffer)}",
            )
        view = memoryview(self.buffer)[self.offset : self.offset + count]
        self.offset += count
        return view

    def u16(self) -> int:
        return _U16.unpack(self.take(_U16.size))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(_U32.size))[0]

    def f64_block(self, count: int) -> np.ndarray:
        raw = self.take(count * 8)
        # frombuffer views are read-only and borrow the frame's memory;
        # trajectories own writable native-endian copies.
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64)


def _same_grid_as(first: Trajectory, data: np.ndarray) -> Trajectory:
    """A batch sibling of ``first``: same grid and species, fresh ``data``.

    Skips ``__post_init__``, whose checks ``first`` already passed for the
    shared grid and species table; ``data`` is an owned C-contiguous float64
    block already shaped ``(len(times), len(species))``.
    """
    trajectory = Trajectory.__new__(Trajectory)
    trajectory.times = first.times
    trajectory.species = list(first.species)
    trajectory.data = data
    return trajectory


def decode_trajectories(frame: bytes) -> List[Trajectory]:
    """Decode a frame produced by :func:`encode_trajectories`.

    Raises :class:`~repro.errors.SimulationError` for wrong magic, an
    unsupported version, or a truncated frame; the returned trajectories own
    their (writable, native-endian) arrays.
    """
    reader = _FrameReader(frame)
    magic, version, flags, n_traj, n_species = _HEADER.unpack(reader.take(_HEADER.size))
    if magic != TRAJECTORY_FRAME_MAGIC:
        raise SimulationError(f"not a trajectory frame (magic {magic!r})")
    if version != TRAJECTORY_FRAME_VERSION:
        raise SimulationError(
            f"unsupported trajectory frame version {version} "
            f"(this build reads version {TRAJECTORY_FRAME_VERSION})",
        )
    species = [str(reader.take(reader.u16()), "utf-8") for _ in range(n_species)]

    trajectories = []
    if flags & _FLAG_SHARED_GRID:
        n_times = reader.u32()
        times = reader.f64_block(n_times)
        for _ in range(n_traj):
            data = reader.f64_block(n_times * n_species).reshape(n_times, n_species)
            if trajectories:
                trajectories.append(_same_grid_as(trajectories[0], data))
            else:
                trajectories.append(Trajectory(times, species, data))
    else:
        for _ in range(n_traj):
            n_times = reader.u32()
            times = reader.f64_block(n_times)
            data = reader.f64_block(n_times * n_species).reshape(n_times, n_species)
            trajectories.append(Trajectory(times, species, data))
    if reader.offset != len(frame):
        raise SimulationError(
            f"trajectory frame has {len(frame) - reader.offset} trailing bytes",
        )
    return trajectories
