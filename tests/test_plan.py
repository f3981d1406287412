"""Unit tests for the dataflow plan layer (JobGraph / PlanScheduler / PlanCache).

The scheduler's contract: stages execute only after their declared
dependencies, concurrent and sequential scheduling produce bit-identical
results, and content-keyed stages are served verbatim from the cache.  The
hypothesis property drives randomly shaped DAGs with randomized stage
latencies through the concurrent scheduler and asserts dependency order
held on every interleaving.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    JobGraph,
    LocalRuntime,
    PlanCache,
    PlanError,
    PlanScheduler,
)
from tests.test_engines import job_fingerprint, norm_job, norm_splits


def job_stage(graph, name, deps=(), key=None):
    """A stage running the shared reference job (results are comparable)."""
    return graph.stage(name, lambda ctx: (norm_job(), norm_splits()), deps=deps, key=key)


class TestJobGraph:
    def test_declaration_order_is_topological(self):
        graph = JobGraph("g")
        a = job_stage(graph, "a")
        b = job_stage(graph, "b", deps=(a,))
        assert [s.name for s in graph.stages] == ["a", "b"]
        assert b.deps == (a,)

    def test_unknown_dependency_rejected(self):
        graph = JobGraph("g")
        other = JobGraph("other")
        foreign = job_stage(other, "x")
        with pytest.raises(PlanError, match="not part of graph"):
            job_stage(graph, "a", deps=(foreign,))

    def test_duplicate_stage_name_rejected(self):
        graph = JobGraph("g")
        job_stage(graph, "a")
        with pytest.raises(PlanError, match="already has a stage"):
            job_stage(graph, "a")

    def test_none_resource_ignored(self):
        graph = JobGraph("g")
        assert graph.resource(None) is None
        assert graph.resources == []

    def test_fuse_uniquifies_names_and_keeps_handles(self):
        g1, g2 = JobGraph("one"), JobGraph("two")
        a1 = job_stage(g1, "a")
        a2 = job_stage(g2, "a")
        fused = JobGraph.fuse([g1, g2])
        assert [s.name for s in fused.stages] == ["a", "1:a"]
        with LocalRuntime() as runtime:
            run = PlanScheduler(runtime).execute(fused)
        # original handles resolve to the fused executions
        assert job_fingerprint(run.result_of(a1)) == job_fingerprint(run.result_of(a2))


class TestSchedulerEquivalence:
    def make_graph(self):
        graph = JobGraph("diamond")
        a = job_stage(graph, "a")
        b = job_stage(graph, "b", deps=(a,))
        c = job_stage(graph, "c", deps=(a,))
        d = job_stage(graph, "d", deps=(b, c))
        return graph, (a, b, c, d)

    def test_concurrent_matches_sequential(self):
        graph_seq, stages_seq = self.make_graph()
        with LocalRuntime() as runtime:
            sequential = PlanScheduler(runtime, concurrent=False).execute(graph_seq)
        graph_con, stages_con = self.make_graph()
        with LocalRuntime() as runtime:
            concurrent = PlanScheduler(runtime, concurrent=True).execute(graph_con)
        for seq_stage, con_stage in zip(stages_seq, stages_con):
            assert job_fingerprint(sequential.result_of(seq_stage)) == job_fingerprint(
                concurrent.result_of(con_stage)
            )

    @pytest.mark.parametrize("engine", ("serial", "threads-pooled", "processes-pooled"))
    def test_concurrent_spill_jobs_do_not_collide(self, engine):
        """Two same-named jobs running at once must keep separate spill dirs."""
        reference = job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))
        graph = JobGraph("parallel")
        stages = [job_stage(graph, f"s{i}") for i in range(4)]
        with LocalRuntime(engine=engine, max_workers=2, memory_budget=0) as runtime:
            run = PlanScheduler(runtime, concurrent=True).execute(graph)
        for stage in stages:
            assert job_fingerprint(run.result_of(stage)) == reference

    def test_executions_in_declaration_order(self):
        graph, (a, b, c, d) = self.make_graph()
        with LocalRuntime() as runtime:
            run = PlanScheduler(runtime).execute(graph)
        assert [e.stage.name for e in run.executions] == ["a", "b", "c", "d"]
        # execution timestamps are stamped and respect the dependency order
        for execution in run.executions:
            assert execution.wall_seconds > 0
            for dep in execution.stage.deps:
                assert run.execution_of(dep).finished_s <= execution.started_s

    def test_builder_error_propagates(self):
        graph = JobGraph("boom")

        def explode(ctx):
            raise RuntimeError("builder exploded")

        graph.stage("bad", explode)
        job_stage(graph, "ok")
        with LocalRuntime() as runtime:
            with pytest.raises(RuntimeError, match="builder exploded"):
                PlanScheduler(runtime, concurrent=True).execute(graph)

    def test_undeclared_dependency_read_rejected(self):
        graph = JobGraph("g")
        a = job_stage(graph, "a")

        def sneaky(ctx):
            ctx.result_of(a)  # reads "a" without declaring the edge
            return None

        graph.stage("b", sneaky)  # note: no deps
        with LocalRuntime() as runtime:
            with pytest.raises(PlanError, match="without declaring"):
                PlanScheduler(runtime, concurrent=False).execute(graph)

    def test_master_only_stage_and_phases(self):
        graph = JobGraph("m")

        def master(ctx):
            with ctx.timed("thinking"):
                pass
            ctx.add_phase("extra", 0.25)
            return None

        stage = graph.stage("master", master)
        with LocalRuntime() as runtime:
            run = PlanScheduler(runtime).execute(graph)
        phases = run.phases_of((stage,))
        assert phases["extra"] == 0.25
        assert "thinking" in phases
        assert run.execution_of(stage).result is None
        with pytest.raises(PlanError, match="no job result"):
            run.result_of(stage)


class TestPlanCache:
    def test_keyed_stage_served_verbatim(self):
        cache = PlanCache()
        results = []
        for _ in range(2):
            graph = JobGraph("g")
            stage = job_stage(graph, "a", key=("norms", 1))
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache).execute(graph)
            results.append(run.result_of(stage))
        assert results[1] is results[0]  # the original object, bit for bit
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_different_keys_do_not_alias(self):
        cache = PlanCache()
        for key in (("a",), ("b",)):
            graph = JobGraph("g")
            job_stage(graph, "a", key=key)
            with LocalRuntime() as runtime:
                PlanScheduler(runtime, cache=cache).execute(graph)
        assert len(cache) == 2
        assert cache.hits == 0

    def test_unkeyed_stage_never_cached(self):
        cache = PlanCache()
        for _ in range(2):
            graph = JobGraph("g")
            job_stage(graph, "a")  # no key
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache).execute(graph)
            assert run.cached_stage_names() == []
        assert len(cache) == 0

    def test_cached_run_marks_stage(self):
        cache = PlanCache()
        for expected in ([], ["a"]):
            graph = JobGraph("g")
            job_stage(graph, "a", key=("k",))
            job_stage(graph, "b")
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache).execute(graph)
            assert run.cached_stage_names() == expected

    def test_clear(self):
        cache = PlanCache()
        graph = JobGraph("g")
        job_stage(graph, "a", key=("k",))
        with LocalRuntime() as runtime:
            PlanScheduler(runtime, cache=cache).execute(graph)
        cache.clear()
        assert len(cache) == 0

    def test_concurrent_same_key_coalesces_to_one_execution(self):
        """Racing stages with one key must produce exactly once (a fused
        sweep's shared prefix), the rest served after waiting."""
        cache = PlanCache()
        reference = job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))
        graph = JobGraph("race")
        stages = [
            job_stage(graph, f"s{i}", key=("shared-prefix",)) for i in range(4)
        ]
        with LocalRuntime() as runtime:
            run = PlanScheduler(runtime, cache=cache, concurrent=True).execute(graph)
        results = [run.result_of(stage) for stage in stages]
        assert all(result is results[0] for result in results)  # one object
        assert job_fingerprint(results[0]) == reference
        assert cache.stats() == {"entries": 1, "hits": 3, "misses": 1}
        assert sum(e.from_cache for e in run.executions) == 3

    def test_failed_producer_wakes_a_waiter(self):
        """A producer that raises must not wedge coalesced waiters."""
        import threading

        cache = PlanCache()
        calls = []
        release = threading.Event()

        def flaky_produce():
            calls.append(threading.get_ident())
            if len(calls) == 1:
                release.set()
                raise RuntimeError("first producer dies")
            return "value"

        outcomes = []

        def worker():
            try:
                outcomes.append(cache.compute(("k",), flaky_produce))
            except RuntimeError:
                outcomes.append("raised")

        first = threading.Thread(target=worker)
        second = threading.Thread(target=worker)
        first.start()
        release.wait(timeout=5)
        second.start()
        first.join()
        second.join()
        assert "raised" in outcomes
        assert ("value", True) in outcomes
        # a later caller hits the stored entry
        assert cache.compute(("k",), flaky_produce) == ("value", False)

    def test_repeated_producer_failures_do_not_deadlock(self):
        """A *second* failing producer must also hand off, never wedging
        the remaining waiters (regression: the failure path clears the
        reservation before waking, so every retry re-enters cleanly)."""
        cache = PlanCache()
        attempts = []

        def produce():
            attempts.append(threading.get_ident())
            if len(attempts) <= 2:
                raise RuntimeError(f"producer {len(attempts)} dies")
            return "value"

        outcomes = []

        def worker():
            try:
                outcomes.append(cache.compute(("k",), produce))
            except RuntimeError:
                outcomes.append("raised")

        workers = [threading.Thread(target=worker) for _ in range(4)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in workers)  # no deadlock
        assert outcomes.count("raised") == 2
        assert ("value", True) in outcomes
        assert all(o == "raised" or o[0] == "value" for o in outcomes)
        assert cache.compute(("k",), produce) == ("value", False)


class TestPersistentPlanCache:
    def test_cross_process_shaped_reuse(self, tmp_path):
        """A fresh cache over the same directory (= a new process) serves
        the stage from disk, bit-identical to the produced original."""
        reference = None
        for round_index in range(2):
            cache = PlanCache(directory=tmp_path)
            graph = JobGraph("g")
            stage = job_stage(graph, "a", key=("norms", 1))
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache).execute(graph)
            result = run.result_of(stage)
            if round_index == 0:
                reference = job_fingerprint(result)
                assert cache.stats()["disk_writes"] == 1
                assert cache.disk_entries() == 1
            else:
                assert cache.stats()["disk_hits"] == 1
                assert cache.stats()["disk_writes"] == 0
                assert job_fingerprint(result) == reference
                assert run.cached_stage_names() == ["a"]

    def test_corrupt_file_degrades_to_miss(self, tmp_path):
        cache = PlanCache(directory=tmp_path)
        graph = JobGraph("g")
        job_stage(graph, "a", key=("norms", 1))
        with LocalRuntime() as runtime:
            PlanScheduler(runtime, cache=cache).execute(graph)
        path = cache.path_for(("norms", 1))
        for garbage in (b"", b"not a segment", path.read_bytes()[:20]):
            path.write_bytes(garbage)
            fresh = PlanCache(directory=tmp_path)
            graph = JobGraph("g")
            job_stage(graph, "a", key=("norms", 1))
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=fresh).execute(graph)
            assert fresh.disk_hits == 0  # treated as a miss, not an error
            assert fresh.disk_writes == 1  # and re-written intact
            assert run.cached_stage_names() == []

    def test_foreign_key_file_rejected(self, tmp_path):
        """A valid segment written for a *different* key never aliases."""
        cache = PlanCache(directory=tmp_path)
        graph = JobGraph("g")
        job_stage(graph, "a", key=("norms", 1))
        with LocalRuntime() as runtime:
            PlanScheduler(runtime, cache=cache).execute(graph)
        other = PlanCache(directory=tmp_path)
        cache.path_for(("other",)).write_bytes(cache.path_for(("norms", 1)).read_bytes())
        graph = JobGraph("g")
        job_stage(graph, "a", key=("other",))
        with LocalRuntime() as runtime:
            PlanScheduler(runtime, cache=other).execute(graph)
        assert other.disk_hits == 0

    def test_stats_omit_disk_keys_without_directory(self):
        assert set(PlanCache().stats()) == {"entries", "hits", "misses"}
        stats = PlanCache(directory=".").stats()
        assert {"disk_hits", "disk_writes"} <= set(stats)


# -- the hypothesis property: dependency order under random latencies ----------


@st.composite
def random_dags(draw):
    """A random DAG over 2..7 stages (edges only from earlier to later) plus
    a per-stage latency in [0, 20] ms."""
    count = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for target in range(1, count):
        for source in range(target):
            if draw(st.booleans()):
                edges.append((source, target))
    latencies = draw(
        st.lists(st.integers(min_value=0, max_value=20), min_size=count, max_size=count)
    )
    return count, edges, latencies


@settings(max_examples=25, deadline=None)
@given(random_dags())
def test_scheduler_respects_dependency_order_under_latency(dag):
    """Every stage starts only after all its dependencies finished, no matter
    how the randomized latencies interleave the scheduler threads."""
    count, edges, latencies = dag
    events: list[tuple[str, int]] = []
    lock = threading.Lock()

    graph = JobGraph("property")
    stages = []
    for index in range(count):
        deps = tuple(stages[source] for source, target in edges if target == index)

        def build(ctx, index=index):
            with lock:
                events.append(("start", index))
            time.sleep(latencies[index] / 1000.0)
            with lock:
                events.append(("finish", index))
            return None  # master-only: the property is about ordering

        stages.append(graph.stage(f"s{index}", build, deps=deps))

    with LocalRuntime() as runtime:
        run = PlanScheduler(runtime, concurrent=True).execute(graph)

    position = {
        (kind, index): at for at, (kind, index) in enumerate(events)
    }
    for source, target in edges:
        assert position[("finish", source)] < position[("start", target)], (
            f"stage {target} started before its dependency {source} finished"
        )
    # every stage ran exactly once
    assert len(events) == 2 * count
    assert [e.stage.name for e in run.executions] == [f"s{i}" for i in range(count)]
