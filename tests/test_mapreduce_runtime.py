"""Unit tests for the MapReduce runtime: semantics, accounting, retries."""

import pytest

from repro.mapreduce import (
    ChaosPlan,
    ChaosRule,
    HashPartitioner,
    LocalRuntime,
    Mapper,
    MapReduceJob,
    ModPartitioner,
    Reducer,
    TaskFailure,
    split_records,
)
from repro.mapreduce import runtime as runtime_module


class WordCountMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.counters.incr("wc", "words")
            yield word, 1


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        yield key, sum(values)


def word_count_job(num_reducers=2, combiner=False):
    return MapReduceJob(
        name="wordcount",
        mapper_factory=WordCountMapper,
        reducer_factory=SumReducer,
        combiner_factory=SumReducer if combiner else None,
        partitioner=HashPartitioner(),
        num_reducers=num_reducers,
    )


def text_splits(lines, split_size=2):
    return split_records([(i, line) for i, line in enumerate(lines)], split_size)


LINES = ["a b a", "b c", "a c c", "d"]
EXPECTED = {"a": 3, "b": 2, "c": 3, "d": 1}


class TestSemantics:
    def test_word_count(self):
        result = LocalRuntime().run(word_count_job(), text_splits(LINES))
        assert dict(result.outputs) == EXPECTED

    def test_deterministic_across_runs(self):
        a = LocalRuntime().run(word_count_job(), text_splits(LINES))
        b = LocalRuntime().run(word_count_job(), text_splits(LINES))
        assert a.outputs == b.outputs
        assert a.stats.shuffle_bytes == b.stats.shuffle_bytes

    def test_keys_sorted_within_reducer(self):
        result = LocalRuntime().run(word_count_job(num_reducers=1), text_splits(LINES))
        keys = [key for key, _ in result.outputs]
        assert keys == sorted(keys)

    def test_combiner_preserves_results(self):
        plain = LocalRuntime().run(word_count_job(), text_splits(LINES))
        combined = LocalRuntime().run(
            word_count_job(combiner=True), text_splits(LINES)
        )
        assert dict(plain.outputs) == dict(combined.outputs)

    def test_combiner_reduces_shuffle(self):
        plain = LocalRuntime().run(word_count_job(), text_splits(LINES))
        combined = LocalRuntime().run(word_count_job(combiner=True), text_splits(LINES))
        assert combined.stats.shuffle_records < plain.stats.shuffle_records
        assert combined.stats.shuffle_bytes < plain.stats.shuffle_bytes

    def test_map_only_job(self):
        job = MapReduceJob(name="identityish", mapper_factory=WordCountMapper)
        result = LocalRuntime().run(job, text_splits(["x y"]))
        assert result.outputs == [("x", 1), ("y", 1)]
        assert result.outputs_by_reducer is None
        assert result.stats.shuffle_bytes == 0

    def test_counters_collected(self):
        result = LocalRuntime().run(word_count_job(), text_splits(LINES))
        assert result.counters.value("wc", "words") == 9

    def test_bad_partitioner_range_rejected(self):
        class BadPartitioner(ModPartitioner):
            def assign(self, key, num_reducers):
                return num_reducers  # out of range

        job = MapReduceJob(
            name="bad",
            mapper_factory=WordCountMapper,
            reducer_factory=SumReducer,
            partitioner=BadPartitioner(),
            num_reducers=2,
        )
        with pytest.raises(ValueError, match="outside"):
            LocalRuntime().run(job, text_splits(["a"]))

    def test_empty_reducers_still_accounted(self):
        result = LocalRuntime().run(word_count_job(num_reducers=16), text_splits(LINES))
        assert len(result.stats.reduce_tasks) == 16


class SetupCleanupMapper(Mapper):
    def setup(self, ctx):
        self.seen = 0

    def map(self, key, value, ctx):
        self.seen += 1
        return ()

    def cleanup(self, ctx):
        ctx.side_output("totals", self.seen)
        yield "total", self.seen


class TestLifecycle:
    def test_cleanup_emissions_and_side_outputs(self):
        job = MapReduceJob(
            name="lifecycle",
            mapper_factory=SetupCleanupMapper,
            reducer_factory=SumReducer,
            num_reducers=1,
        )
        result = LocalRuntime().run(job, text_splits(LINES, split_size=2))
        assert dict(result.outputs) == {"total": 4}
        assert sorted(result.side_outputs["totals"]) == [2, 2]

    def test_cache_is_visible_to_tasks(self):
        class CacheReader(Mapper):
            def map(self, key, value, ctx):
                yield ctx.cache["prefix"] + value, 1

        job = MapReduceJob(
            name="cache",
            mapper_factory=CacheReader,
            reducer_factory=SumReducer,
            num_reducers=1,
            cache={"prefix": "p-"},
        )
        result = LocalRuntime().run(job, text_splits(["x"]))
        assert result.outputs == [("p-x", 1)]
        assert result.stats.cache_bytes > 0


class TestFaultTolerance:
    #: every map task's first attempt crashes
    MAP_CRASH_ONCE = ChaosPlan(rules=(ChaosRule("crash", kind="map", attempt=1),))

    def test_injected_map_failure_is_retried(self):
        runtime = LocalRuntime(fault_injector=self.MAP_CRASH_ONCE)
        result = runtime.run(word_count_job(), text_splits(LINES))
        assert dict(result.outputs) == EXPECTED
        # one injected failure per split: every map task ran exactly twice
        assert len(result.stats.map_tasks) == len(text_splits(LINES))
        assert all(t.attempts == 2 for t in result.stats.map_tasks)

    def test_counters_not_double_counted_on_retry(self):
        result = LocalRuntime(fault_injector=self.MAP_CRASH_ONCE).run(
            word_count_job(), text_splits(LINES)
        )
        assert result.counters.value("wc", "words") == 9

    def test_reduce_failure_retried(self):
        chaos = ChaosPlan(
            rules=(
                ChaosRule("crash", kind="reduce", attempt=1),
                ChaosRule("crash", kind="reduce", attempt=2),
            )
        )
        result = LocalRuntime(fault_injector=chaos).run(
            word_count_job(num_reducers=1), text_splits(LINES)
        )
        assert dict(result.outputs) == EXPECTED
        assert [t.attempts for t in result.stats.reduce_tasks] == [3]

    def test_permanent_failure_raises(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "MAX_ATTEMPTS", 2)
        runtime = LocalRuntime(fault_injector=ChaosPlan(rules=(ChaosRule("crash"),)))
        with pytest.raises(TaskFailure, match="after 2 attempts"):
            runtime.run(word_count_job(), text_splits(LINES))

    @pytest.mark.parametrize(
        "base, cap, expected",
        [(None, None, (0.02, 0.04, 0.08)), (0.4, 1.0, (0.4, 0.8, 1.0))],
        ids=("module-constants", "capped"),
    )
    def test_retry_rounds_back_off_exponentially_up_to_the_cap(
        self, monkeypatch, base, cap, expected
    ):
        """Rounds 2, 3 and 4 of a task that crashes three times wait the
        backoff, doubling per round and never past the cap, each within the
        jitter's ±25 %."""
        if base is not None:
            monkeypatch.setattr(runtime_module, "RETRY_BACKOFF_S", base)
            monkeypatch.setattr(runtime_module, "RETRY_BACKOFF_CAP_S", cap)
        waits = []
        monkeypatch.setattr(runtime_module.time, "sleep", waits.append)
        chaos = ChaosPlan(
            rules=tuple(
                ChaosRule("crash", kind="map", task="m-00000", attempt=attempt)
                for attempt in (1, 2, 3)
            )
        )
        result = LocalRuntime(fault_injector=chaos).run(word_count_job(), text_splits(LINES))
        assert dict(result.outputs) == EXPECTED
        assert result.stats.map_tasks[0].attempts == runtime_module.MAX_ATTEMPTS == 4
        assert len(waits) == len(expected)
        for wait, delay in zip(waits, expected):
            assert 0.75 * delay <= wait <= 1.25 * delay

    def test_user_exception_propagates(self):
        class Exploding(Mapper):
            def map(self, key, value, ctx):
                raise RuntimeError("boom")

        job = MapReduceJob(name="explode", mapper_factory=Exploding)
        with pytest.raises(RuntimeError, match="boom"):
            LocalRuntime().run(job, text_splits(["x"]))


class TestAccounting:
    def test_shuffle_bytes_match_manual_estimate(self):
        from repro.mapreduce import estimate_bytes

        result = LocalRuntime().run(word_count_job(), text_splits(LINES))
        expected = sum(
            estimate_bytes(w) + estimate_bytes(1) for line in LINES for w in line.split()
        )
        assert result.stats.shuffle_bytes == expected

    def test_task_stats_present(self):
        result = LocalRuntime().run(word_count_job(), text_splits(LINES))
        assert len(result.stats.map_tasks) == len(text_splits(LINES))
        assert all(t.duration_s >= 0 for t in result.stats.map_tasks)
        assert result.stats.output_bytes > 0

    def test_invalid_num_reducers(self):
        with pytest.raises(ValueError):
            MapReduceJob(name="x", mapper_factory=WordCountMapper, num_reducers=0)
