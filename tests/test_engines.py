"""Cross-engine equivalence: serial and the two pooled engines must agree bit-for-bit.

The engine layer's contract is that backends change wall-clock only: outputs,
counters, side outputs and shuffle accounting are identical across engines —
for a representative plain MapReduce job and for whole join algorithms
(PGBJ and the z-order join, per the issue's acceptance criteria).

All task classes live at module level so the ``processes-pooled`` engine can
pickle the job by reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_forest
from repro.joins import PgbjConfig, ZOrderConfig, run_join
from repro.mapreduce import (
    ChaosPlan,
    ChaosRule,
    Context,
    Executor,
    HashPartitioner,
    LocalRuntime,
    Mapper,
    MapReduceJob,
    PersistentProcessExecutor,
    PersistentThreadExecutor,
    Reducer,
    SerialExecutor,
    TaskFailure,
    available_engines,
    get_executor,
    shuffle_sort_key,
    split_records,
)

ENGINES = ("serial", "threads-pooled", "processes-pooled")
#: the backends that actually parallelize: one persistent pool across batches and jobs
POOLED_ENGINES = ("threads-pooled", "processes-pooled")

#: every map task's first attempt crashes (retries converge on attempt 2)
MAP_CRASH_ONCE = ChaosPlan(rules=(ChaosRule("crash", kind="map", attempt=1),))


class VectorNormMapper(Mapper):
    """Numpy-heavy mapper with counters and a side output per task."""

    def setup(self, ctx: Context) -> None:
        self._rows = 0

    def map(self, key, value, ctx: Context):
        vector = np.asarray(value, dtype=np.float64)
        self._rows += 1
        ctx.counters.incr("norms", "rows")
        yield int(key) % 3, float(np.linalg.norm(vector))

    def cleanup(self, ctx: Context):
        ctx.side_output("rows_per_task", self._rows)
        return ()


class SumReducer(Reducer):
    def reduce(self, key, values, ctx: Context):
        ctx.counters.incr("norms", "groups")
        yield key, round(sum(values), 9)


def norm_job(combiner: bool = False) -> MapReduceJob:
    return MapReduceJob(
        name="norms",
        mapper_factory=VectorNormMapper,
        reducer_factory=SumReducer,
        combiner_factory=SumReducer if combiner else None,
        partitioner=HashPartitioner(),
        num_reducers=4,
    )


def norm_splits(rows: int = 64, split_size: int = 8):
    rng = np.random.default_rng(11)
    records = [(i, rng.random(6).tolist()) for i in range(rows)]
    return split_records(records, split_size)


class MixedKeyMapper(Mapper):
    """Emits int and str keys from the same task — Hadoop allows this."""

    def map(self, key, value, ctx: Context):
        yield int(key), 1
        yield f"tag-{int(key) % 2}", 1


class CountReducer(Reducer):
    """Sums the mapper's 1s — associative, so it doubles as a combiner."""

    def reduce(self, key, values, ctx: Context):
        yield key, sum(values)


def job_fingerprint(result):
    """Everything that must match across engines (timings excluded)."""
    return {
        "outputs": result.outputs,
        "outputs_by_reducer": result.outputs_by_reducer,
        "side_outputs": result.side_outputs,
        "counters": result.counters.as_dict(),
        "shuffle_records": result.stats.shuffle_records,
        "shuffle_bytes": result.stats.shuffle_bytes,
        "output_bytes": result.stats.output_bytes,
        "map_io": [(t.input_records, t.output_records) for t in result.stats.map_tasks],
        "reduce_io": [
            (t.input_records, t.output_records) for t in result.stats.reduce_tasks
        ],
    }


def outcome_fingerprint(outcome):
    """Join-level equivalence: results, counters and shuffle accounting."""
    return {
        "pairs": sorted(outcome.result.pairs()),
        "counters": outcome.counters.as_dict(),
        "shuffle_records": outcome.shuffle_records(),
        "shuffle_bytes": outcome.shuffle_bytes(),
        "replication": outcome.replication_of_s(),
    }


class TestEngineRegistry:
    def test_available_engines(self):
        assert available_engines() == ("processes-pooled", "serial", "threads-pooled")

    @pytest.mark.parametrize("engine", ("gpu-cluster", "threads", "processes"))
    def test_unknown_engine_rejected(self, engine):
        # the per-batch names are gone with their engines: no alias is left
        choices = "available: processes-pooled, serial, threads-pooled"
        for build in (
            lambda: get_executor(engine),
            lambda: LocalRuntime(engine=engine),
            lambda: PgbjConfig(engine=engine),
        ):
            with pytest.raises(ValueError, match=f"unknown engine '{engine}'; {choices}"):
                build()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            get_executor("threads-pooled", max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            PgbjConfig(engine="threads-pooled", max_workers=0)

    def test_runtime_reports_engine(self):
        assert LocalRuntime().engine == "serial"
        with LocalRuntime(engine="threads-pooled", max_workers=2) as runtime:
            assert runtime.engine == "threads-pooled"

    def test_config_resolves_runtime(self):
        with PgbjConfig(engine="threads-pooled", max_workers=2).make_runtime() as runtime:
            assert runtime.engine == "threads-pooled"

    def test_one_dispatch_path(self):
        # run_tasks exists once, on the base class; a backend only says how a
        # batch becomes futures (or that it runs inline)
        for cls in (SerialExecutor, PersistentThreadExecutor, PersistentProcessExecutor):
            assert "run_tasks" not in vars(cls)
            assert cls.run_tasks is Executor.run_tasks


class TestCrossEngineJob:
    """One representative job: identical outputs, counters, accounting."""

    @pytest.fixture(scope="class")
    def reference(self):
        return job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_job_equivalence(self, engine, reference):
        with LocalRuntime(engine=engine, max_workers=2) as runtime:
            assert job_fingerprint(runtime.run(norm_job(), norm_splits())) == reference

    @pytest.mark.parametrize("engine", ENGINES)
    def test_job_equivalence_with_combiner(self, engine):
        reference = job_fingerprint(
            LocalRuntime().run(norm_job(combiner=True), norm_splits())
        )
        with LocalRuntime(engine=engine, max_workers=2) as runtime:
            result = runtime.run(norm_job(combiner=True), norm_splits())
        assert job_fingerprint(result) == reference


class TestCrossEngineRetries:
    """Fault injection is scheduler-side, so it works under every engine.

    Retried attempts re-enter the next engine batch, so under the pooled
    backends the retry rounds reuse the same warm pool (and, for
    ``processes-pooled``, the already-shipped job spec).  Outputs, counters,
    shuffle accounting and per-task attempt counts must match serial
    regardless.
    """

    @pytest.fixture(scope="class")
    def serial_reference(self):
        runtime = LocalRuntime(fault_injector=MAP_CRASH_ONCE)
        return job_fingerprint(runtime.run(norm_job(), norm_splits()))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_injected_failures_retried(self, engine):
        plain = LocalRuntime().run(norm_job(), norm_splits())
        runtime = LocalRuntime(
            fault_injector=MAP_CRASH_ONCE, engine=engine, max_workers=2
        )
        result = runtime.run(norm_job(), norm_splits())
        assert result.outputs == plain.outputs
        assert result.counters.as_dict() == plain.counters.as_dict()
        assert all(t.attempts == 2 for t in result.stats.map_tasks)
        runtime.close()

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_retry_fingerprint_matches_serial(self, engine, serial_reference):
        """Full fingerprint (accounting included) under injected faults."""
        with LocalRuntime(
            fault_injector=MAP_CRASH_ONCE, engine=engine, max_workers=2
        ) as runtime:
            result = runtime.run(norm_job(), norm_splits())
        assert job_fingerprint(result) == serial_reference
        assert [t.attempts for t in result.stats.map_tasks] == [2] * len(
            result.stats.map_tasks
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reduce_side_faults_retried(self, engine):
        """Reduce-phase injection: later rounds also reuse the pooled state."""
        chaos = ChaosPlan(
            rules=(
                ChaosRule("crash", kind="reduce", attempt=1),
                ChaosRule("crash", kind="reduce", attempt=2),
            )
        )
        plain = LocalRuntime().run(norm_job(), norm_splits())
        with LocalRuntime(
            fault_injector=chaos, engine=engine, max_workers=2, max_attempts=4
        ) as runtime:
            result = runtime.run(norm_job(), norm_splits())
        assert result.outputs == plain.outputs
        assert result.stats.shuffle_bytes == plain.stats.shuffle_bytes
        busy = [t for t in result.stats.reduce_tasks if t.input_records]
        assert busy and all(t.attempts == 3 for t in busy)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_permanent_failure_raises(self, engine):
        runtime = LocalRuntime(
            fault_injector=ChaosPlan(rules=(ChaosRule("crash"),)), max_attempts=2,
            engine=engine, max_workers=2,
        )
        with pytest.raises(TaskFailure, match="after 2 attempts"):
            runtime.run(norm_job(), norm_splits())
        runtime.close()


class TestCrossEngineJoins:
    """Whole join algorithms agree across engines (issue acceptance)."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_forest(240, seed=3)

    def pgbj_outcome(self, data, engine):
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64,
            engine=engine, max_workers=2,
        )
        return run_join("pgbj", data, data, config)

    def zorder_outcome(self, data, engine):
        config = ZOrderConfig(
            k=3, num_reducers=4, num_shifts=2, split_size=64,
            engine=engine, max_workers=2,
        )
        return run_join("zorder", data, data, config)

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_pgbj_equivalence(self, data, engine):
        serial = self.pgbj_outcome(data, "serial")
        parallel = self.pgbj_outcome(data, engine)
        assert outcome_fingerprint(parallel) == outcome_fingerprint(serial)
        assert [s.shuffle_bytes for s in parallel.job_stats] == [
            s.shuffle_bytes for s in serial.job_stats
        ]

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_zorder_equivalence(self, data, engine):
        serial = self.zorder_outcome(data, "serial")
        parallel = self.zorder_outcome(data, engine)
        assert outcome_fingerprint(parallel) == outcome_fingerprint(serial)

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_pgbj_with_faults_pooled(self, data, engine):
        """Whole join under injected faults on a persistent pool."""
        # first attempt of every map task of the knn-join job fails
        chaos = ChaosPlan(
            rules=(ChaosRule("crash", kind="map", task="knn-join", attempt=1),)
        )
        serial = self.pgbj_outcome(data, "serial")
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64,
            engine=engine, max_workers=2, chaos=chaos,
        )
        outcome = run_join("pgbj", data, data, config)
        assert outcome_fingerprint(outcome) == outcome_fingerprint(serial)
        join_maps = outcome.job_stats["pgbj/join"].map_tasks
        assert join_maps and all(task.attempts == 2 for task in join_maps)


class TestPooledLifecycle:
    """Persistent executors: one pool across batches and jobs, explicit close."""

    @pytest.mark.parametrize("cls", (PersistentThreadExecutor, PersistentProcessExecutor))
    def test_pool_object_reused_across_batches(self, cls):
        with cls(max_workers=2) as executor:
            shared = {"bias": 1}
            assert executor.run_tasks(_double, shared, [1, 2, 3]) == [3, 5, 7]
            pool_after_first = executor._pool
            assert executor.run_tasks(_double, shared, [4, 5, 6]) == [9, 11, 13]
            assert executor._pool is pool_after_first

    def test_process_pool_ships_spec_once_per_job(self):
        with PersistentProcessExecutor(max_workers=2) as executor:
            job_a = {"bias": 10}
            executor.run_tasks(_double, job_a, [1, 2])
            generation = executor._generation
            assert generation in executor._installed
            # same job object again (another phase / retry round): no reship
            executor.run_tasks(_double, job_a, [3, 4])
            assert executor._generation == generation
            # a new job object gets its own generation (one priming round)
            job_b = {"bias": 20}
            assert executor.run_tasks(_double, job_b, [1, 2]) == [22, 24]
            assert executor._generation == generation + 1
            assert executor._installed == {generation, generation + 1}

    def test_interleaved_jobs_stay_resident(self):
        """Alternating batches of two jobs (concurrently scheduled plan
        stages share one executor) must not re-ship the specs per batch."""
        with PersistentProcessExecutor(max_workers=2) as executor:
            job_a, job_b = {"bias": 10}, {"bias": 20}
            for _ in range(3):  # a, b, a, b, ... on one pool
                assert executor.run_tasks(_double, job_a, [1, 2]) == [12, 14]
                assert executor.run_tasks(_double, job_b, [1, 2]) == [22, 24]
            # two generations total, both resident — alternation shipped
            # each spec exactly once
            assert executor._generation == 2
            assert executor._installed == {1, 2}

    def test_resident_job_cache_evicts_oldest(self):
        from repro.mapreduce.engines import _MAX_RESIDENT_JOBS

        with PersistentProcessExecutor(max_workers=2) as executor:
            jobs = [{"bias": index} for index in range(_MAX_RESIDENT_JOBS + 2)]
            for index, job in enumerate(jobs):
                expected = [2 + index, 4 + index]
                assert executor.run_tasks(_double, job, [1, 2]) == expected
            assert len(executor._jobs) == _MAX_RESIDENT_JOBS
            # evicted jobs are re-shipped under fresh generations, and the
            # results stay correct
            assert executor.run_tasks(_double, jobs[0], [1, 2]) == [2, 4]
            assert executor._generation == len(jobs) + 1

    def test_serial_fallback_then_parallel_batch_primes(self):
        # a <=1-payload batch runs inline without a pool; the first parallel
        # batch of the same job must still prime the (new) pool's workers
        with PersistentProcessExecutor(max_workers=2) as executor:
            job = {"bias": 3}
            assert executor.run_tasks(_double, job, [1]) == [5]
            assert executor._pool is None  # inline path, nothing spawned
            assert executor.run_tasks(_double, job, [1, 2, 3]) == [5, 7, 9]

    def test_concurrent_shared_use_is_serialized(self):
        # two runtimes sharing one pool from different threads: submissions
        # are atomic (generation bookkeeping + priming + submit under one
        # lock) and a generation with tasks in flight is pinned, so neither
        # job can execute against the other's installed spec
        import threading

        with PersistentProcessExecutor(max_workers=2) as executor:
            results: dict[int, list] = {}

            def run(bias: int) -> None:
                job = {"bias": bias}
                out = []
                for _ in range(3):  # interleave generations across threads
                    out = executor.run_tasks(_double, job, [1, 2, 3])
                results[bias] = out

            workers = [threading.Thread(target=run, args=(bias,)) for bias in (0, 100)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
        assert results[0] == [2, 4, 6]
        assert results[100] == [102, 104, 106]

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_results_in_payload_order_not_completion_order(self, engine):
        # the first payload finishes last; the gather is by submission order
        with get_executor(engine, max_workers=2) as executor:
            delays = [0.2, 0.0, 0.0, 0.0]
            assert executor.run_tasks(_sleep_then_echo, {}, delays) == delays

    def test_broken_pool_recovers_on_next_batch(self):
        # a dead worker poisons the pool for its batch, but must not poison
        # the executor: the next batch gets a fresh, re-primed pool
        from concurrent.futures import BrokenExecutor

        with PersistentProcessExecutor(max_workers=2) as executor:
            job = {"bias": 1}
            assert executor.run_tasks(_double, job, [1, 2, 3]) == [3, 5, 7]
            with pytest.raises(BrokenExecutor):
                executor.run_tasks(_kill_worker, job, [1, 2, 3, 4])
            assert executor._pool_breaks == 1  # counted once, by handle_broken
            assert executor._pool is None  # broken pool dropped eagerly
            # same job object: identity unchanged, but the fresh pool is
            # re-primed because the installed generation was reset
            assert executor.run_tasks(_double, job, [4, 5]) == [9, 11]

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_close_idempotent_and_rejects_reuse(self, engine):
        executor = get_executor(engine, max_workers=2)
        executor.run_tasks(_double, {"bias": 0}, [1, 2])
        executor.close()
        executor.close()
        assert executor.closed
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_tasks(_double, {"bias": 0}, [1, 2])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_close_before_first_batch(self, engine):
        # lazy pools: closing an executor that never ran anything is fine
        executor = get_executor(engine, max_workers=2)
        executor.close()
        assert executor.closed

    @pytest.mark.parametrize("engine", POOLED_ENGINES)
    def test_runtime_closes_owned_executor(self, engine):
        with LocalRuntime(engine=engine, max_workers=2) as runtime:
            runtime.run(norm_job(), norm_splits())
        assert runtime.executor.closed
        runtime.close()  # idempotent through the runtime too

    def test_runtime_leaves_injected_executor_open(self):
        executor = PersistentThreadExecutor(max_workers=2)
        reference = job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))
        for _ in range(2):  # two runtimes sharing one warm pool
            with LocalRuntime(executor=executor) as runtime:
                result = runtime.run(norm_job(), norm_splits())
            assert job_fingerprint(result) == reference
            assert not executor.closed
        executor.close()

    def test_shared_executor_across_driver_runs(self):
        """A multi-join pipeline reuses one pool via JoinConfig.shared_executor."""
        data = generate_forest(120, seed=5)
        serial = run_join(
            "pgbj", data, data, PgbjConfig(k=3, num_reducers=4, num_pivots=8, split_size=64)
        )
        with PersistentProcessExecutor(max_workers=2) as executor:
            for _ in range(2):
                config = PgbjConfig(
                    k=3, num_reducers=4, num_pivots=8, split_size=64,
                    engine="processes-pooled", max_workers=2,
                    shared_executor=executor,
                )
                outcome = run_join("pgbj", data, data, config)
                assert outcome_fingerprint(outcome) == outcome_fingerprint(serial)
                assert not executor.closed  # drivers must not close shared pools


class TestBoundaryBudget:
    """What crosses the worker boundary is counted, not clocked: one block
    per key per map outcome, at most one value per (map task, key) in a
    reduce spec.  Wall clocks are too noisy to keep this from regressing."""

    def test_pgbj_join_ships_one_block_per_key(self, monkeypatch):
        shipped = []  # (payloads, results-thunk) per engine batch

        run_tasks = PersistentProcessExecutor.run_tasks
        submit_batch = PersistentProcessExecutor.submit_batch

        def spy_run_tasks(self, fn, shared, payloads):
            results = run_tasks(self, fn, shared, payloads)
            shipped.append((list(payloads), lambda: results))
            return results

        def spy_submit_batch(self, fn, shared, payloads):
            batch = submit_batch(self, fn, shared, payloads)
            if batch is not None:
                futures = list(batch.futures)
                shipped.append(
                    (list(payloads), lambda: [future.result() for future in futures])
                )
            return batch

        monkeypatch.setattr(PersistentProcessExecutor, "run_tasks", spy_run_tasks)
        monkeypatch.setattr(PersistentProcessExecutor, "submit_batch", spy_submit_batch)
        data = generate_forest(240, seed=3)
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64,
            engine="processes-pooled", max_workers=2,
        )
        outcome = run_join("pgbj", data, data, config)
        serial = run_join("pgbj", data, data, config.with_changes(engine="serial"))
        assert outcome_fingerprint(outcome) == outcome_fingerprint(serial)

        join_maps = join_reduces = 0
        map_tasks = sum(
            1 for specs, _ in shipped for spec in specs
            if spec.kind == "map" and spec.task_id.startswith("knn-join-m-")
        )
        assert map_tasks > 1
        for specs, results in shipped:
            for spec, result in zip(specs, results()):
                if not spec.task_id.startswith("knn-join-"):
                    continue
                if spec.kind == "map":
                    join_maps += 1
                    keys = [key for key, _ in result.emissions]
                    assert len(keys) == len(set(keys))  # ≤ one block per key
                    assert len(keys) <= config.num_reducers
                else:
                    join_reduces += 1
                    values = sum(len(group) for _, group in spec.groups)
                    assert values <= map_tasks * len(spec.groups)
                    assert all(len(group) <= map_tasks for _, group in spec.groups)
        assert join_maps == map_tasks and join_reduces > 1
        # the first job's splits cross as blocks of array slices, never as rows
        from repro.mapreduce import RecordBlock

        first_split = next(
            spec.split for specs, _ in shipped for spec in specs
            if spec.task_id.startswith("partitioning-m-")
        )
        assert {type(value) for _, value in first_split.records} == {RecordBlock}


def _double(shared, payload):
    """Module-level task fn: picklable by the process backends."""
    return payload * 2 + shared["bias"]


def _sleep_then_echo(shared, payload):
    import time

    time.sleep(payload)
    return payload


def _kill_worker(shared, payload):
    """Simulates a hard worker death (OOM kill / native crash)."""
    import os

    os._exit(13)


class TestSpillCrossEngine:
    """Out-of-core shuffle x engines: the spill backend must be invisible.

    A tiny ``memory_budget`` forces every map task to spill (usually one
    segment per emission) and every reducer through the external merge, on
    every engine — under the process backends the map output literally never
    returns to the parent (manifests only).  Outputs, counters, shuffle
    accounting AND the spill counters themselves must match the serial
    in-memory reference / serial spill reference respectively.
    """

    @pytest.fixture(scope="class")
    def memory_reference(self):
        return job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))

    @pytest.fixture(scope="class")
    def spill_counters_reference(self):
        with LocalRuntime(memory_budget=0) as runtime:
            result = runtime.run(norm_job(), norm_splits())
        return (
            result.stats.spill_segments,
            result.stats.spill_bytes,
            result.stats.merge_passes,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_job_spill_equivalence(
        self, engine, memory_reference, spill_counters_reference
    ):
        with LocalRuntime(engine=engine, max_workers=2, memory_budget=0) as runtime:
            result = runtime.run(norm_job(), norm_splits())
        assert job_fingerprint(result) == memory_reference
        counters = (
            result.stats.spill_segments,
            result.stats.spill_bytes,
            result.stats.merge_passes,
        )
        assert counters == spill_counters_reference
        assert counters[0] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_job_spill_with_retries(self, engine, memory_reference):
        chaos = ChaosPlan(rules=(ChaosRule("crash", attempt=1),))  # every task, once
        with LocalRuntime(
            fault_injector=chaos, engine=engine, max_workers=2, memory_budget=16
        ) as runtime:
            result = runtime.run(norm_job(), norm_splits())
        assert job_fingerprint(result) == memory_reference


class TestSpillCrossEngineJoins:
    """Whole joins with a spill-forcing budget agree with serial in-memory."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_forest(240, seed=3)

    def pgbj_outcome(self, data, engine, budget):
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        return run_join("pgbj", data, data, config)

    def zorder_outcome(self, data, engine, budget):
        config = ZOrderConfig(
            k=3, num_reducers=4, num_shifts=2, split_size=64,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        return run_join("zorder", data, data, config)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pgbj_spill_equivalence(self, data, engine):
        serial = self.pgbj_outcome(data, "serial", budget=None)
        assert serial.spill_segments() == 0
        spilled = self.pgbj_outcome(data, engine, budget=64)
        assert outcome_fingerprint(spilled) == outcome_fingerprint(serial)
        assert spilled.spill_segments() > 0
        assert spilled.merge_passes() > 0

    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    def test_zorder_spill_equivalence(self, data, engine):
        serial = self.zorder_outcome(data, "serial", budget=None)
        spilled = self.zorder_outcome(data, engine, budget=64)
        assert outcome_fingerprint(spilled) == outcome_fingerprint(serial)
        assert spilled.spill_segments() > 0

    def test_spill_counters_engine_independent(self, data):
        reference = self.pgbj_outcome(data, "serial", budget=64)
        parallel = self.pgbj_outcome(data, "processes-pooled", budget=64)
        assert [
            (s.spill_segments, s.spill_bytes, s.merge_passes)
            for s in parallel.job_stats
        ] == [
            (s.spill_segments, s.spill_bytes, s.merge_passes)
            for s in reference.job_stats
        ]


class TestNumpyDerivedKeys:
    """Regression: np.bool_ keys/values crashed shuffle accounting/grouping."""

    def test_numpy_bool_sort_key_is_numeric(self):
        ordered = sorted([np.True_, 2, np.False_, 1.5, "z"], key=shuffle_sort_key)
        assert ordered[:4] == [np.False_, np.True_, 1.5, 2]
        assert ordered[-1] == "z"

    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    def test_numpy_bool_keys_end_to_end(self, engine):
        splits = split_records([(i, i) for i in range(8)], 2)
        job = MapReduceJob(
            name="npbool",
            mapper_factory=NumpyBoolKeyMapper,
            reducer_factory=CountReducer,
            partitioner=HashPartitioner(),
            num_reducers=2,
        )
        with LocalRuntime(engine=engine, max_workers=2) as runtime:
            result = runtime.run(job, splits)
        as_dict = {bool(k): v for k, v in result.outputs}
        assert as_dict == {False: 4, True: 4}
        assert result.stats.shuffle_bytes == 16  # 1 byte key + 1 byte value each


class NumpyBoolKeyMapper(Mapper):
    """Emits numpy-derived bool keys and values, as masked kernels do."""

    def map(self, key, value, ctx: Context):
        parity = np.asarray([value]) % 2 == 0
        yield parity[0], np.True_  # np.bool_ key AND value


class TestMixedTypeShuffleKeys:
    """Regression: mixed int/str keys used to crash ``sorted(grouped)``."""

    def mixed_job(self, num_reducers=1, combiner=False):
        return MapReduceJob(
            name="mixed",
            mapper_factory=MixedKeyMapper,
            reducer_factory=CountReducer,
            combiner_factory=CountReducer if combiner else None,
            partitioner=HashPartitioner(),
            num_reducers=num_reducers,
        )

    def test_mixed_keys_run(self):
        splits = split_records([(i, i) for i in range(6)], 3)
        result = LocalRuntime().run(self.mixed_job(), splits)
        as_dict = dict(result.outputs)
        assert as_dict["tag-0"] == 3 and as_dict["tag-1"] == 3
        assert all(as_dict[i] == 1 for i in range(6))

    def test_mixed_keys_with_combiner(self):
        splits = split_records([(i, i) for i in range(6)], 3)
        result = LocalRuntime().run(self.mixed_job(combiner=True), splits)
        assert dict(result.outputs)["tag-0"] == 3

    def test_mixed_keys_deterministic_across_engines(self):
        splits = split_records([(i, i) for i in range(8)], 2)
        reference = LocalRuntime().run(self.mixed_job(num_reducers=3), splits)
        for engine in ENGINES:
            with LocalRuntime(engine=engine, max_workers=2) as runtime:
                result = runtime.run(self.mixed_job(num_reducers=3), splits)
            assert result.outputs == reference.outputs

    def test_sort_key_total_order(self):
        keys = ["b", 2, (1, "x"), None, 1.5, b"raw", "a", (1, 2), True]
        ordered = sorted(keys, key=shuffle_sort_key)
        assert sorted(ordered, key=shuffle_sort_key) == ordered
        # numbers keep native numeric order, unpolluted by type names
        assert [k for k in ordered if isinstance(k, (int, float))] == [True, 1.5, 2]
