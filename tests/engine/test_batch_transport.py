"""Batch grouping and the one batch transport: a binary trajectory frame.

The engine-level half of the lockstep-batching tests: how jobs pack into
groups, and how a batch result comes back — one binary frame inside the
backend's ordinary result, whether that is the pool's result pipe or a TCP
message — bit-identical to the serial baseline on every exit path.
"""

import concurrent.futures
import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    DistributedEnsembleExecutor,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    batch_job_groups,
    iter_ensemble,
    replicate_jobs,
    run_ensemble,
)
from repro.engine.core import (
    batch_job_payloads,
    decode_batch_result,
    iter_windowed,
    simulate_batch_payload,
)
from repro.engine.jobs import SimulationJob
from repro.errors import EngineError
from repro.stochastic.events import InputSchedule


def _assert_matches(result, baseline):
    for index, (_, expected) in enumerate(baseline):
        assert np.array_equal(result.trajectory(index).times, expected.times)
        assert np.array_equal(result.trajectory(index).data, expected.data)


@pytest.fixture(autouse=True)
def _isolate_parent_worker_caches():
    """Restore the parent-process worker-side caches after every test.

    ``simulate_batch_payload`` is the *worker* entry point; calling it
    in-process warms this process's module-level worker caches, and
    fork-started pools inherit parent memory — without this isolation a
    later test's "fresh" pool would start warm and its cold-compile
    assertions would fail.
    """
    import repro.engine.cache as cache_module

    names = ("_WORKER_CACHE", "_WORKER_MODELS", "_WORKER_KERNELS", "_WORKER_BLOBS_SEEN")
    saved = {name: dict(getattr(cache_module, name)) for name in names}
    yield
    for name, value in saved.items():
        current = getattr(cache_module, name)
        current.clear()
        current.update(value)


@pytest.fixture(scope="module")
def template(and_circuit):
    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 30.0
    )
    return SimulationJob(
        model=and_circuit.model, t_end=60.0, simulator="ssa", schedule=schedule
    )


class TestGrouping:
    def test_replicates_pack_into_ceil_div_groups(self, template):
        jobs = replicate_jobs(template, 7, seed=1)
        groups = batch_job_groups(jobs, 3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]

    def test_configuration_change_closes_the_group(self, template):
        jobs = replicate_jobs(template, 4, seed=1)
        jobs[2] = dataclasses.replace(jobs[2], t_end=45.0)
        groups = batch_job_groups(jobs, 4)
        assert groups == [[0, 1], [2], [3]]

    def test_different_schedule_objects_do_not_batch(self, template, and_circuit):
        jobs = replicate_jobs(template, 2, seed=1)
        other_schedule = InputSchedule.from_combinations(
            list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 30.0
        )
        jobs[1] = dataclasses.replace(jobs[1], schedule=other_schedule)
        assert batch_job_groups(jobs, 2) == [[0], [1]]

    def test_nonpositive_batch_size_rejected(self, template):
        with pytest.raises(EngineError):
            batch_job_groups(replicate_jobs(template, 2, seed=1), 0)

    def test_generator_seeds_rejected_for_remote_transports(self, template):
        jobs = [
            dataclasses.replace(job, seed=np.random.default_rng(3))
            for job in replicate_jobs(template, 2, seed=1)
        ]
        groups = batch_job_groups(jobs, 2)
        with pytest.raises(EngineError, match="picklable seeds"):
            batch_job_payloads(jobs, groups, transport="frame")

    @pytest.mark.parametrize("transport", ["carrier-pigeon", "shm", "inline"])
    def test_unknown_transport_rejected(self, template, transport):
        jobs = replicate_jobs(template, 2, seed=1)
        with pytest.raises(EngineError, match="transport"):
            batch_job_payloads(jobs, batch_job_groups(jobs, 2), transport=transport)


class TestFrameTransport:
    def test_round_trip_matches_serial_baseline(self, template):
        jobs = replicate_jobs(template, 3, seed=17)
        baseline = run_ensemble(jobs, workers=1)
        payloads = batch_job_payloads(jobs, batch_job_groups(jobs, 3), transport="frame")
        assert len(payloads) == 1
        packed, cache_hit = simulate_batch_payload(payloads[0])
        assert packed["kind"] == "frame"
        assert isinstance(packed["frame"], bytes)
        trajectories = decode_batch_result(packed)
        assert isinstance(cache_hit, bool)
        assert len(trajectories) == 3
        for index, trajectory in enumerate(trajectories):
            expected = baseline.trajectory(index)
            assert np.array_equal(trajectory.times, expected.times)
            assert np.array_equal(trajectory.data, expected.data)

    def test_unknown_result_kind_rejected(self):
        with pytest.raises(EngineError, match="kind"):
            decode_batch_result({"kind": "telegram"})


class TestPoolBatches:
    def test_pool_returns_one_frame_per_batch(self, template):
        jobs = replicate_jobs(template, 4, seed=5)
        payloads = batch_job_payloads(jobs, batch_job_groups(jobs, 2))
        with ProcessPoolEnsembleExecutor(2) as executor:
            results = executor.map(simulate_batch_payload, payloads)
        assert [packed["kind"] for packed, _ in results] == ["frame", "frame"]
        assert sum(len(decode_batch_result(packed)) for packed, _ in results) == 4

    def test_exhausted_pool_run_matches_serial(self, template):
        jobs = replicate_jobs(template, 5, seed=3)
        baseline = run_ensemble(jobs, workers=1)
        with ProcessPoolEnsembleExecutor(2) as executor:
            result = run_ensemble(jobs, executor=executor, batch_size=2)
        _assert_matches(result, baseline)

    def test_abandoned_pool_stream_leaves_the_pool_usable(self, template):
        """Breaking out of a batched pool stream cancels what it can and
        drops the rest; the same pool then serves a full batch bit-identically."""
        jobs = replicate_jobs(template, 8, seed=9)
        baseline = run_ensemble(jobs, workers=1)
        with ProcessPoolEnsembleExecutor(2) as executor:
            stream = iter_ensemble(jobs, executor=executor, batch_size=2, ordered=True)
            for index, _, _ in stream:
                break  # leaves ~3 batches undecoded or in flight
            stream.close()
            result = run_ensemble(jobs, executor=executor, batch_size=2)
        _assert_matches(result, baseline)


class _ManualBackend:
    """A backend whose futures finish one at a time, oldest first, only when
    the core waits — so ``peak`` is the most payloads ever in flight at once."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.unfinished = []
        self.peak = 0

    def open(self):
        pass

    def close(self):
        pass

    def submit(self, fn, payload):
        future = concurrent.futures.Future()
        future.set_running_or_notify_cancel()
        self.unfinished.append((future, fn, payload))
        self.peak = max(self.peak, len(self.unfinished))
        return future

    def wait_any(self, pending):
        future, fn, payload = self.unfinished.pop(0)
        future.set_result(fn(payload))
        return [future]


class TestWindowing:
    def test_batches_heavier_than_the_window_fill_every_slot(self):
        """Each 32-replicate batch alone outweighs the 2 * capacity window;
        both slots must still get one, not run batches one at a time."""
        backend = _ManualBackend(capacity=2)
        delivered = list(iter_windowed(backend, str, range(6), weights=[32] * 6))
        assert delivered == [(index, str(index)) for index in range(6)]
        assert backend.peak == 2

    def test_unit_weights_keep_the_two_times_capacity_window(self):
        backend = _ManualBackend(capacity=2)
        delivered = list(iter_windowed(backend, str, range(12)))
        assert [index for index, _ in delivered] == list(range(12))
        assert backend.peak == 4


class TestDistributedBatchFaults:
    def test_worker_death_mid_batch_frame_requeues_bit_identical(self, template):
        """Kill a fabric worker while lockstep batches are in flight: the
        coordinator requeues the dead worker's batches on the survivor, and
        the study comes out bit-identical to serial."""
        jobs = replicate_jobs(template, 12, seed=33)
        baseline = run_ensemble(jobs, workers=1)
        with DistributedEnsembleExecutor.loopback(2) as executor:
            executor.open()
            victim = executor._processes[0]

            def _kill_soon():
                time.sleep(0.1)
                victim.kill()

            threading.Thread(target=_kill_soon, daemon=True).start()
            result = run_ensemble(jobs, executor=executor, batch_size=3)
            assert victim.poll() is not None, "the victim outlived the batch"
        _assert_matches(result, baseline)


class TestStatisticsInvariant:
    def test_pool_batches_account_every_job_once(self, template):
        jobs = replicate_jobs(template, 7, seed=21)
        with ProcessPoolEnsembleExecutor(2) as executor:
            result = run_ensemble(jobs, executor=executor, batch_size=3)
        assert result.stats.cache_hits + result.stats.cache_misses == len(jobs)

    def test_serial_batches_account_every_job_once(self, template):
        jobs = replicate_jobs(template, 5, seed=21)
        result = run_ensemble(jobs, executor=SerialExecutor(), batch_size=2)
        assert result.stats.cache_hits + result.stats.cache_misses == len(jobs)
