"""Regression tests for the engine bugfix sweep.

Covers: windowed + cancel-on-failure ``map``, LRU (not FIFO) worker-model
eviction, per-iteration batch cache statistics, the ``transform`` stream's
yielded shape, the cache module's ``__all__``, and parallel analysis fan-out
in replicate studies.
"""

import time

import pytest

import repro.engine.cache as cache_module
from repro.engine import (
    CompiledModelCache,
    ProcessPoolEnsembleExecutor,
    SerialExecutor,
    iter_ensemble,
    replicate_jobs,
)
from repro.engine.cache import model_blob, worker_model_from_blob
from repro.engine.jobs import SimulationJob


def _log_or_fail(payload):
    """Worker-side map payload: append a line to a file, or blow up."""
    action, path = payload
    if action == "fail":
        raise RuntimeError("payload exploded")
    time.sleep(0.05)
    with open(path, "a") as handle:
        handle.write("ran\n")
    return action


def _double(payload):
    return payload * 2


@pytest.fixture()
def ode_job(and_circuit):
    from repro.stochastic.events import InputSchedule

    schedule = InputSchedule.from_combinations(
        list(and_circuit.inputs), [(0, 0), (1, 1)], 30.0, 40.0
    )
    return SimulationJob(model=and_circuit.model, t_end=60.0, simulator="ode", schedule=schedule)


class TestHardenedMap:
    def test_map_preserves_order_with_windowed_submission(self):
        """Many more payloads than the 2×workers window, order still exact."""
        with ProcessPoolEnsembleExecutor(2) as executor:
            results = executor.map(_double, list(range(20)))
        assert results == [payload * 2 for payload in range(20)]

    def test_map_progress_counts_every_payload(self):
        seen = []
        with ProcessPoolEnsembleExecutor(2) as executor:
            executor.map(_double, list(range(10)), progress=lambda d, t, i: seen.append((d, t)))
        assert [done for done, _ in sorted(seen)] == list(range(1, 11))
        assert all(total == 10 for _, total in seen)

    def test_failing_payload_cancels_outstanding_futures(self, tmp_path):
        """A raising payload must not leave the whole batch grinding on: only
        payloads inside the in-flight window may have reached a worker."""
        marker = tmp_path / "ran.txt"
        payloads = [("fail", str(marker))] + [("log", str(marker))] * 12
        executor = ProcessPoolEnsembleExecutor(1)
        try:
            with pytest.raises(RuntimeError, match="payload exploded"):
                executor.map(_log_or_fail, payloads)
        finally:
            executor.close()  # waits for whatever was genuinely in flight
        ran = marker.read_text().count("ran") if marker.exists() else 0
        # window = 2 * workers = 2: at most the windowed payloads ran; the
        # other 10+ were cancelled before ever reaching the pool's queue.
        assert ran <= 2

    def test_serial_map_unaffected(self):
        assert SerialExecutor().map(_double, [1, 2, 3]) == [2, 4, 6]


class TestWorkerModelLRU:
    def test_hot_fingerprint_survives_eviction(self, monkeypatch):
        """Eviction must be LRU: a fingerprint re-used on every batch outlives
        stale ones (the old FIFO behaviour evicted by insertion order)."""
        monkeypatch.setattr(cache_module, "_WORKER_MODELS_MAX", 2)
        monkeypatch.setattr(cache_module, "_WORKER_MODELS", {})
        blob_a, fp_a = model_blob({"model": "a"})
        blob_b, fp_b = model_blob({"model": "b"})
        blob_c, fp_c = model_blob({"model": "c"})
        worker_model_from_blob(fp_a, blob_a)
        worker_model_from_blob(fp_b, blob_b)
        # Touch a: it is now the most recently used entry.
        assert worker_model_from_blob(fp_a, blob_a) == {"model": "a"}
        worker_model_from_blob(fp_c, blob_c)
        assert fp_a in cache_module._WORKER_MODELS  # hot entry survived
        assert fp_b not in cache_module._WORKER_MODELS  # coldest was evicted
        assert fp_c in cache_module._WORKER_MODELS

    def test_unknown_fingerprint_deserializes_once(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_WORKER_MODELS", {})
        blob, fingerprint = model_blob({"model": "x"})
        first = worker_model_from_blob(fingerprint, blob)
        second = worker_model_from_blob(fingerprint, blob)
        assert first is second  # same canonical instance, one pickle.loads


class TestPerIterationBatchStats:
    def test_interleaved_pool_streams_keep_their_own_stats(self, ode_job):
        """Opening a second stream on a shared executor must not clobber the
        first stream's counters (exactly the gather_studies pattern)."""
        with ProcessPoolEnsembleExecutor(1) as executor:
            first = iter_ensemble(replicate_jobs(ode_job, 3, seed=1), executor=executor)
            next(first)  # first stream is mid-flight...
            second = iter_ensemble(replicate_jobs(ode_job, 3, seed=2), executor=executor)
            list(second)  # ...while the second runs start to finish...
            list(first)  # ...and the first finishes afterwards.
        assert first.stats.cache_hits + first.stats.cache_misses == 3
        assert second.stats.cache_hits + second.stats.cache_misses == 3
        # One worker, one model: exactly one compile across both streams.
        total_misses = first.stats.cache_misses + second.stats.cache_misses
        assert total_misses == 1

    def test_interleaved_serial_streams_keep_their_own_stats(self, ode_job):
        """The serial path used to report a cache-counter delta, which went
        wrong the moment two streams interleaved on one cache."""
        cache = CompiledModelCache()
        first = iter_ensemble(
            replicate_jobs(ode_job, 3, seed=1), executor=SerialExecutor(), cache=cache
        )
        next(first)
        second = iter_ensemble(
            replicate_jobs(ode_job, 3, seed=2), executor=SerialExecutor(), cache=cache
        )
        list(second)
        list(first)
        assert first.stats.cache_misses == 1
        assert first.stats.cache_hits == 2
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == 3

    def test_pool_streams_keep_their_own_stats(self, ode_job):
        with ProcessPoolEnsembleExecutor(1) as executor:
            first = iter_ensemble(replicate_jobs(ode_job, 2, seed=1), executor=executor)
            list(first)
            second = iter_ensemble(replicate_jobs(ode_job, 3, seed=2), executor=executor)
            list(second)
        assert first.stats.cache_hits + first.stats.cache_misses == 2
        assert second.stats.cache_hits == 3
        assert second.stats.cache_misses == 0


class TestTransformShape:
    def test_transform_yields_bare_mapped_values(self, ode_job):
        """A transform stream's items are exactly fn's return value — not the
        (index, job, trajectory) triples its class once promised."""
        stream = iter_ensemble(replicate_jobs(ode_job, 3, seed=5), workers=1)
        derived = stream.transform(lambda index, job, trajectory: index * 10)
        first = next(derived)
        assert first == 0
        assert not isinstance(first, tuple)
        assert list(derived) == [10, 20]

    def test_transform_can_yield_tuples_of_its_own(self, ode_job):
        stream = iter_ensemble(replicate_jobs(ode_job, 2, seed=5), workers=1)
        derived = stream.transform(
            lambda index, job, trajectory: (index, float(trajectory.times[-1]))
        )
        items = list(derived)
        assert [index for index, _ in items] == [0, 1]


class TestCacheModuleExports:
    def test_all_covers_the_worker_side_entry_points(self):
        assert "model_blob" in cache_module.__all__
        assert "worker_model_from_blob" in cache_module.__all__
        for name in cache_module.__all__:
            assert hasattr(cache_module, name)


class TestAnalysisFanOut:
    def test_analysis_jobs_matches_streamed_path(self, and_circuit):
        """run_replicate_study(analysis_jobs=N) routes the analysis through the
        engine's generic map path; recovered results must be identical."""
        from repro.analysis import run_replicate_study

        streamed = run_replicate_study(and_circuit, n_replicates=3, hold_time=80.0, rng=13)
        fanned = run_replicate_study(
            and_circuit, n_replicates=3, hold_time=80.0, rng=13, analysis_jobs=2
        )
        assert fanned.fitness_values == streamed.fitness_values
        assert fanned.recovery_rate == streamed.recovery_rate
        assert [r.truth_table.outputs for r in fanned.results] == [
            r.truth_table.outputs for r in streamed.results
        ]

    def test_analysis_fan_out_reuses_shared_executor(self, and_circuit):
        from repro.analysis import run_replicate_study

        with ProcessPoolEnsembleExecutor(2) as executor:
            study = run_replicate_study(
                and_circuit,
                n_replicates=3,
                hold_time=80.0,
                rng=13,
                executor=executor,
                analysis_jobs=2,
            )
            assert executor.is_open  # lifecycle stays with the caller
        assert study.n_replicates == 3
