"""The compact binary trajectory transport: exact round-trips, hard rejections.

The codec carries raw little-endian float64 blocks, so a round-trip must be
*bitwise* exact — including NaN payload bits — and every malformed frame
(truncated, foreign magic, future version, trailing bytes) must fail loudly
rather than decode into garbage trajectories.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.stochastic import Trajectory, decode_trajectories, encode_trajectories
from repro.stochastic.trajectory import (
    TRAJECTORY_FRAME_MAGIC,
    TRAJECTORY_FRAME_VERSION,
)


def _trajectory(n_times=5, n_species=2, offset=0.0, species=None):
    times = np.arange(float(n_times))
    data = offset + np.arange(float(n_times * n_species)).reshape(n_times, n_species)
    names = species or [f"S{i}" for i in range(n_species)]
    return Trajectory(times, names, data)


def _assert_bitwise_equal(decoded, original):
    assert decoded.species == original.species
    assert decoded.times.tobytes() == original.times.tobytes()
    assert decoded.data.tobytes() == original.data.tobytes()


class TestRoundTrip:
    def test_shared_grid_batch_round_trips(self):
        grid = np.arange(7.0)
        batch = [
            Trajectory(grid, ["A", "B"], np.random.default_rng(k).random((7, 2)))
            for k in range(4)
        ]
        decoded = decode_trajectories(encode_trajectories(batch))
        assert len(decoded) == 4
        for original, copy in zip(batch, decoded):
            _assert_bitwise_equal(copy, original)

    def test_mixed_grid_batch_round_trips(self):
        batch = [_trajectory(n_times=4), _trajectory(n_times=9, offset=3.5)]
        decoded = decode_trajectories(encode_trajectories(batch))
        for original, copy in zip(batch, decoded):
            _assert_bitwise_equal(copy, original)

    def test_shared_grid_siblings_own_their_data(self):
        grid = np.arange(5.0)
        batch = [Trajectory(grid, ["A"], np.full((5, 1), float(k))) for k in range(3)]
        decoded = decode_trajectories(encode_trajectories(batch))
        decoded[1].data[0, 0] = -1.0
        decoded[1].species.append("B")
        assert decoded[2].data[0, 0] == 2.0
        assert decoded[2].species == ["A"]

    def test_single_sample_trajectory_round_trips(self):
        decoded = decode_trajectories(encode_trajectories([_trajectory(n_times=1)]))
        assert decoded[0].data.shape == (1, 2)

    def test_decoded_arrays_are_owned_and_writable(self):
        """Decoding must not hand out read-only views of the frame buffer."""
        decoded = decode_trajectories(encode_trajectories([_trajectory()]))[0]
        decoded.data[0, 0] = -1.0
        assert decoded.data.flags.writeable
        assert decoded.data.flags.c_contiguous

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=1,
            max_size=16,
        )
    )
    def test_values_round_trip_bitwise_including_nan(self, values):
        data = np.array(values, dtype=np.float64).reshape(-1, 1)
        original = Trajectory(np.arange(float(len(values))), ["X"], data)
        decoded = decode_trajectories(encode_trajectories([original]))[0]
        # tobytes() comparison: NaN payload bits and signed zeros must survive.
        assert decoded.data.tobytes() == original.data.tobytes()


class TestNormalization:
    def test_fortran_ordered_and_integer_input_round_trips(self):
        """``Trajectory.__post_init__`` owns normalization: Fortran-ordered or
        integer arrays become C-contiguous float64, so the zero-copy encode
        path never sees a layout it cannot memoryview."""
        times = np.arange(6)  # integer dtype
        data = np.asfortranarray(np.arange(12).reshape(6, 2))  # int, F-order
        trajectory = Trajectory(times, ["A", "B"], data)
        assert trajectory.times.dtype == np.float64
        assert trajectory.data.dtype == np.float64
        assert trajectory.data.flags.c_contiguous
        decoded = decode_trajectories(encode_trajectories([trajectory]))[0]
        _assert_bitwise_equal(decoded, trajectory)


class TestRejection:
    def test_empty_batch_rejected(self):
        with pytest.raises(SimulationError):
            encode_trajectories([])

    def test_mismatched_species_tables_rejected(self):
        batch = [_trajectory(species=["A", "B"]), _trajectory(species=["A", "C"])]
        with pytest.raises(SimulationError):
            encode_trajectories(batch)

    def test_wrong_magic_rejected(self):
        frame = bytearray(encode_trajectories([_trajectory()]))
        frame[:4] = b"ZIP!"
        with pytest.raises(SimulationError, match="not a trajectory frame"):
            decode_trajectories(bytes(frame))

    def test_future_version_rejected(self):
        frame = bytearray(encode_trajectories([_trajectory()]))
        struct.pack_into("<H", frame, len(TRAJECTORY_FRAME_MAGIC), TRAJECTORY_FRAME_VERSION + 1)
        with pytest.raises(SimulationError, match="version"):
            decode_trajectories(bytes(frame))

    @pytest.mark.parametrize("keep", [0, 3, 11, -1, -9])
    def test_truncated_frame_rejected(self, keep):
        frame = encode_trajectories([_trajectory()])
        with pytest.raises(SimulationError):
            decode_trajectories(frame[:keep])

    def test_non_increasing_shared_grid_rejected(self):
        grid = np.arange(5.0)
        batch = [Trajectory(grid, ["A"], np.full((5, 1), 7.0 + k)) for k in range(2)]
        frame = encode_trajectories(batch)
        start = frame.index(grid.astype("<f8").tobytes())
        forged = frame[:start] + grid[::-1].astype("<f8").tobytes() + frame[start + 40 :]
        with pytest.raises(SimulationError, match="strictly increasing"):
            decode_trajectories(forged)

    def test_trailing_bytes_rejected(self):
        frame = encode_trajectories([_trajectory()])
        with pytest.raises(SimulationError):
            decode_trajectories(frame + b"\x00")
