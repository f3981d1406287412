"""Unit tests for the dataflow plan layer (JobGraph / PlanScheduler / PlanCache).

The scheduler's contract: stages execute in declaration order, so after
their declared dependencies; content-keyed stages are served verbatim from
the cache, and keyless ones too once the scheduler has a plan identity.
The hypothesis property drives randomly shaped DAGs through the scheduler
and asserts that order held.
"""

from __future__ import annotations

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

class TestSchedulerEquivalence:
    def make_graph(self):
        graph = JobGraph("diamond")
        a = job_stage(graph, "a")
        b = job_stage(graph, "b", deps=(a,))
        c = job_stage(graph, "c", deps=(a,))
        d = job_stage(graph, "d", deps=(b, c))
        return graph, (a, b, c, d)

    @pytest.mark.parametrize("engine", ("serial", "threads-pooled", "processes-pooled"))
    def test_same_named_spill_jobs_do_not_collide(self, engine):
        """Same-named jobs of one plan must keep separate spill dirs."""
        reference = job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))
        graph = JobGraph("parallel")
        stages = [job_stage(graph, f"s{i}") for i in range(4)]
        with LocalRuntime(engine=engine, max_workers=2, memory_budget=0) as runtime:
            run = PlanScheduler(runtime).execute(graph)
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
                PlanScheduler(runtime).execute(graph)

    def test_undeclared_dependency_read_rejected(self):
        graph = JobGraph("g")
        a = job_stage(graph, "a")

        def sneaky(ctx):
            ctx.result_of(a)  # reads "a" without declaring the edge
            return None

        graph.stage("b", sneaky)  # note: no deps
        with LocalRuntime() as runtime:
            with pytest.raises(PlanError, match="without declaring"):
                PlanScheduler(runtime).execute(graph)

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

    def test_unkeyed_stage_without_identity_never_cached(self):
        cache = PlanCache()
        for _ in range(2):
            graph = JobGraph("g")
            job_stage(graph, "a")  # no key, and the scheduler no identity
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache).execute(graph)
            assert run.cached_stage_names() == []
        assert len(cache) == 0

    def test_unkeyed_stage_cached_under_the_plan_identity(self):
        cache = PlanCache()
        for identity, expected in (("one", []), ("one", ["a"]), ("two", [])):
            graph = JobGraph("g")
            job_stage(graph, "a")
            with LocalRuntime() as runtime:
                run = PlanScheduler(runtime, cache=cache, identity=identity).execute(graph)
            assert run.cached_stage_names() == expected, identity
        # ("one", "a") and ("two", "a"): another identity never aliases
        assert cache.stats() == {"entries": 2, "hits": 1, "misses": 2}

    def test_checkpoint_dir_is_refused(self, tmp_path):
        with LocalRuntime() as runtime:
            with pytest.raises(ValueError, match="checkpoint_dir is gone"):
                PlanScheduler(runtime, checkpoint_dir=tmp_path)

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

    def test_failed_producer_stores_nothing(self):
        """A producer that raises leaves no entry: the next caller produces."""
        cache = PlanCache()

        def explode():
            raise RuntimeError("producer dies")

        with pytest.raises(RuntimeError, match="producer dies"):
            cache.compute(("k",), explode)
        assert len(cache) == 0
        assert cache.compute(("k",), lambda: "value") == ("value", True)
        assert cache.compute(("k",), explode) == ("value", False)


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


# -- the hypothesis property: dependency order on any DAG shape ---------------


@st.composite
def random_dags(draw):
    """A random DAG over 2..7 stages (edges only from earlier to later), and
    which of its stages run a job rather than only the master's work."""
    count = draw(st.integers(min_value=2, max_value=7))
    edges = []
    for target in range(1, count):
        for source in range(target):
            if draw(st.booleans()):
                edges.append((source, target))
    runs_job = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return count, edges, runs_job


@settings(max_examples=25, deadline=None)
@given(random_dags())
def test_scheduler_respects_dependency_order(dag):
    """Stages run one at a time in declaration order, so every stage starts
    only after all its dependencies finished and may read their results."""
    count, edges, runs_job = dag
    events: list[tuple[str, int]] = []

    graph = JobGraph("property")
    stages = []
    for index in range(count):
        deps = tuple(stages[source] for source, target in edges if target == index)

        def build(ctx, index=index, deps=deps):
            events.append(("start", index))
            for dep in deps:
                if runs_job[stages.index(dep)]:
                    assert job_fingerprint(ctx.result_of(dep)) == reference
            events.append(("finish", index))
            return (norm_job(), norm_splits()) if runs_job[index] else None

        stages.append(graph.stage(f"s{index}", build, deps=deps))

    reference = job_fingerprint(LocalRuntime().run(norm_job(), norm_splits()))
    with LocalRuntime() as runtime:
        run = PlanScheduler(runtime).execute(graph)

    assert events == [(kind, index) for index in range(count) for kind in ("start", "finish")]
    for source, target in edges:
        assert (
            run.execution_of(stages[source]).finished_s
            <= run.execution_of(stages[target]).started_s
        ), f"stage {target} started before its dependency {source} finished"
