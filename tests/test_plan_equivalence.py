"""Plan execution equivalence: concurrent scheduling must be invisible.

The acceptance bar of the planner redesign: all 8 joins run through
``JobGraph`` plans, and concurrent stage scheduling, fused multi-join
execution and cache-served prefixes are all **bit-identical** — results,
``pairs_computed``, shuffle records/bytes — to strictly sequential runs, on
every engine and both shuffle backends.

Engine and memory budget default from ``REPRO_ENGINE`` /
``REPRO_MEMORY_BUDGET`` (like the bench harness), so the CI legs sweep this
suite across the engine × spill matrix; a direct parametrization covers the
matrix for PGBJ and the z-order join in every run.

Also here: the registry surface (``get_join`` / ``run_join``), the
stage-named ``StageStats``, and the ``with_changes`` × ``shared_executor`` /
``plan_cache`` carry-by-reference contract.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datasets import generate_forest
from repro.joins import (
    InvalidJoinInput,
    JoinConfig,
    PgbjConfig,
    StageStats,
    ZOrderConfig,
    available_joins,
    get_join,
    plan_join,
    run_join,
    run_join_plans,
)
from repro.joins.base import knobs_from_env
from repro.mapreduce import PersistentThreadExecutor, PlanCache
from tests.test_engines import outcome_fingerprint

ALL_JOINS = (
    "pgbj",
    "pbj",
    "hbrj",
    "ijoin",
    "broadcast",
    "zorder",
    "closest-pairs",
    "range-selection",
)

ENGINES = ("serial", "threads-pooled", "processes-pooled")


@pytest.fixture(scope="module")
def data():
    return generate_forest(200, seed=3)


@pytest.fixture(scope="module")
def queries():
    return generate_forest(24, seed=8)


def env_params():
    """Engine/budget knobs the CI matrix legs inject (default: serial, RAM)."""
    env = knobs_from_env()
    return {knob: env[knob] for knob in ("engine", "memory_budget") if knob in env}


def make_config(name: str, **overrides) -> JoinConfig:
    params = dict(
        k=3, num_reducers=4, num_pivots=12, split_size=64, seed=5, **env_params()
    )
    params.update(overrides)
    return get_join(name).make_config(**params)


def operator_fingerprint(outcome):
    """Closest-pairs / range-selection outcomes, reduced to their facts."""
    if hasattr(outcome, "pairs"):  # ClosestPairsOutcome
        return {
            "pairs": outcome.pairs,
            "distance_pairs": outcome.distance_pairs,
            "shuffle_bytes": outcome.shuffle_bytes,
        }
    return {  # RangeSelectionOutcome
        "matches": outcome.matches,
        "distance_pairs": outcome.distance_pairs,
        "shuffle_records": outcome.shuffle_records,
        "shuffle_bytes": outcome.shuffle_bytes,
    }


def fingerprint(outcome):
    if hasattr(outcome, "result"):
        return outcome_fingerprint(outcome)
    return operator_fingerprint(outcome)


def run_one(name: str, data, queries, **config_overrides):
    config = make_config(name, **config_overrides)
    extra = {}
    if name == "range-selection":
        return run_join(name, data, queries, config, theta=0.3), config
    return run_join(name, data, data, config, **extra), config


class TestConcurrentMatchesSequential:
    """Concurrent plan scheduling ≡ the historical sequential order, per join."""

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_join_equivalence(self, name, data, queries):
        sequential, _ = run_one(name, data, queries, plan_concurrency=False)
        concurrent, _ = run_one(name, data, queries, plan_concurrency=True)
        assert fingerprint(concurrent) == fingerprint(sequential)

    @pytest.mark.parametrize("name", ("pgbj", "pbj", "zorder"))
    def test_per_stage_accounting_stable(self, name, data, queries):
        """Stage-level stats (not just totals) are schedule-independent."""
        sequential, _ = run_one(name, data, queries, plan_concurrency=False)
        concurrent, _ = run_one(name, data, queries, plan_concurrency=True)
        assert [
            (s.job_name, s.shuffle_records, s.shuffle_bytes)
            for s in sequential.job_stats
        ] == [
            (s.job_name, s.shuffle_records, s.shuffle_bytes)
            for s in concurrent.job_stats
        ]


class TestEngineSpillMatrix:
    """Direct engine × shuffle-backend sweep for a chain join and the
    approximate join (the CI legs additionally push every join through
    processes-pooled and a forced-spill budget via the env defaults)."""

    @pytest.fixture(scope="class")
    def pgbj_reference(self, data):
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64, seed=5,
            plan_concurrency=False,
        )
        return fingerprint(run_join("pgbj", data, data, config))

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("budget", (None, 64))
    def test_pgbj_matrix(self, data, engine, budget, pgbj_reference):
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64, seed=5,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        outcome = run_join("pgbj", data, data, config)
        assert fingerprint(outcome) == pgbj_reference
        if budget is not None:
            assert outcome.spill_segments() > 0

    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    @pytest.mark.parametrize("budget", (None, 64))
    def test_zorder_matrix(self, data, engine, budget):
        reference = fingerprint(
            run_join(
                "zorder",
                data,
                data,
                ZOrderConfig(
                    k=3, num_reducers=4, num_shifts=2, split_size=64, seed=5,
                    plan_concurrency=False,
                ),
            )
        )
        config = ZOrderConfig(
            k=3, num_reducers=4, num_shifts=2, split_size=64, seed=5,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        assert fingerprint(run_join("zorder", data, data, config)) == reference


class TestCompressedSpill:
    """``spill_codec="zlib"`` alone selects the spill backend; compressing the
    segments moves no result and no counter of any join (shuffle bytes count
    encoded records, not what lands on disk)."""

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_matches_the_uncompressed_run(self, name, data, queries):
        plain, _ = run_one(name, data, queries)
        compressed, config = run_one(name, data, queries, spill_codec="zlib")
        assert config.spill_codec == "zlib"
        assert fingerprint(compressed) == fingerprint(plain)
        if hasattr(compressed, "spill_segments"):  # kNN outcomes count them
            assert compressed.spill_segments() > 0


class TestFusedPlans:
    """Several joins fused into one graph overlap stage-by-stage and must
    reproduce the isolated sequential runs exactly — including under a
    forced-spill budget, where concurrent same-named jobs share one store."""

    @pytest.mark.parametrize("budget", (None, 0))
    def test_fused_multi_join(self, data, budget):
        names = ("pgbj", "hbrj", "zorder")
        isolated = [
            fingerprint(
                run_one(data=data, queries=None, name=name,
                        plan_concurrency=False, memory_budget=budget)[0]
            )
            for name in names
        ]
        config = make_config("broadcast", memory_budget=budget)  # runtime knobs only
        plans = [
            plan_join(name, data, data, make_config(name, memory_budget=budget))
            for name in names
        ]
        fused = run_join_plans(plans, config)
        assert [fingerprint(outcome) for outcome in fused] == isolated

    def test_fused_sequential_also_matches(self, data):
        names = ("hbrj", "ijoin")
        isolated = [
            fingerprint(run_one(data=data, queries=None, name=name)[0])
            for name in names
        ]
        config = make_config("broadcast", plan_concurrency=False)
        plans = [plan_join(name, data, data, make_config(name)) for name in names]
        fused = run_join_plans(plans, config)
        assert [fingerprint(outcome) for outcome in fused] == isolated


class TestPlanCacheReuse:
    """Shared-prefix reuse: cached sweeps are bit-identical to cold ones."""

    def test_k_sweep_reuses_partitioning(self, data):
        cold = {
            k: fingerprint(run_one("pgbj", data, None, k=k)[0]) for k in (2, 4, 6)
        }
        cache = PlanCache()
        warm = {
            k: fingerprint(run_one("pgbj", data, None, k=k, plan_cache=cache)[0])
            for k in (2, 4, 6)
        }
        assert warm == cold
        # one partitioning execution served all three k values
        assert cache.stats() == {"entries": 1, "hits": 2, "misses": 1}

    def test_prefix_shared_across_algorithms(self, data):
        """PGBJ and PBJ build the identical partitioning job: one cache entry."""
        cache = PlanCache()
        pgbj_cold = fingerprint(run_one("pgbj", data, None)[0])
        pbj_cold = fingerprint(run_one("pbj", data, None)[0])
        assert fingerprint(
            run_one("pgbj", data, None, plan_cache=cache)[0]
        ) == pgbj_cold
        assert fingerprint(run_one("pbj", data, None, plan_cache=cache)[0]) == pbj_cold
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_changed_prefix_inputs_miss(self, data):
        """Different pivot counts (or seeds) must not alias in the cache."""
        cache = PlanCache()
        run_one("pgbj", data, None, plan_cache=cache, num_pivots=8)
        run_one("pgbj", data, None, plan_cache=cache, num_pivots=12)
        run_one("pgbj", data, None, plan_cache=cache, num_pivots=12, seed=9)
        assert len(cache) == 3
        assert cache.hits == 0

    def test_reducer_sweep_reuses_partitioning(self, data):
        """num_reducers only affects grouping/join — the prefix is shared."""
        cache = PlanCache()
        cold = [
            fingerprint(run_one("pgbj", data, None, num_reducers=n)[0])
            for n in (2, 4)
        ]
        warm = [
            fingerprint(
                run_one("pgbj", data, None, num_reducers=n, plan_cache=cache)[0]
            )
            for n in (2, 4)
        ]
        assert warm == cold
        assert cache.stats()["hits"] == 1


class TestMergeJobProducersPinned:
    """The four joins feeding the shared merge job, pinned to the facts the
    per-record merge job produced (recorded on the commit before candidate
    lists went columnar): neighbour ids, computed pairs, S replicas and the
    shuffle, under whatever engine/budget the CI leg injects, fused or not.
    (``pbj``'s pair count was 19 960 while the kernel computed every
    ``|r, p_j|`` up front; only that field moved when it stopped.  ``zorder``
    was re-pinned whole when its grid became a cube and its default two curve
    copies: before, ``("0de74e370e6002bc", 3557, 676, 1876, 184988)``.)"""

    #: join -> (sha1 of (r id, neighbour ids) rows, pairs, replicas, records, bytes)
    PINNED = {
        "hbrj": ("124cb21fb9bbe9a5", 39175, 400, 1200, 117600),
        "pbj": ("124cb21fb9bbe9a5", 17437, 400, 1200, 117600),
        "ijoin": ("124cb21fb9bbe9a5", 18566, 400, 1200, 117600),
        "zorder": ("f7cc7c3009292dc9", 2369, 432, 1232, 121216),
    }

    @pytest.mark.parametrize("fused", (False, True), ids=("chained", "fused"))
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_facts_unchanged(self, name, fused, data):
        import hashlib

        import numpy as np

        outcome, _ = run_one(
            name, data, None,
            num_reducers=9 if name == "zorder" else 4, stage_fusion=fused,
        )
        digest = hashlib.sha1()
        for r_id in outcome.result.r_ids():
            digest.update(np.int64(r_id).tobytes())
            digest.update(outcome.result.neighbors_of(r_id)[0].tobytes())
        assert (
            digest.hexdigest()[:16],
            outcome.distance_pairs,
            outcome.replication_of_s(),
            outcome.shuffle_records(),
            outcome.shuffle_bytes(),
        ) == self.PINNED[name]


class TestFinalOutputsPinned:
    """The two joins whose reducers answer the join directly, pinned to the
    facts their row-shaped ``(r_id, (ids, dists))`` outputs produced (recorded
    on the commit before they became one ``NeighborBlock`` per reduce call;
    ``pgbj``'s pair count was 15 570 with the eager object-pivot matrix)."""

    #: join -> (sha1 of (r id, neighbour ids, distance bytes) rows, pairs,
    #: final job's output_bytes, its reduce tasks' output records)
    PINNED = {
        "broadcast": ("6a7ec171f4ee3716", 40000, 13600, 200),
        "pgbj": ("6a7ec171f4ee3716", 14685, 13600, 200),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_facts_unchanged(self, name, data):
        import hashlib

        import numpy as np

        from repro.mapreduce import estimate_bytes

        outcome, _ = run_one(name, data, None)
        digest, row_form_bytes = hashlib.sha1(), 0
        for r_id in outcome.result.r_ids():
            neighbors = outcome.result.neighbors_of(r_id)
            digest.update(np.int64(r_id).tobytes())
            digest.update(neighbors[0].tobytes())
            digest.update(neighbors[1].tobytes())
            row_form_bytes += estimate_bytes(r_id) + estimate_bytes(neighbors)
        final = outcome.job_stats[-1]
        assert (
            digest.hexdigest()[:16],
            outcome.distance_pairs,
            final.output_bytes,
            sum(task.output_records for task in final.reduce_tasks),
        ) == self.PINNED[name]
        assert final.output_bytes == row_form_bytes

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_block_per_reduce_call(self, name, data):
        from repro.joins.registry import JoinPlan, execute_join_plan
        from repro.mapreduce.types import NeighborBlock

        config = make_config(name)
        plan = plan_join(name, data, data, config)
        run = execute_join_plan(JoinPlan(graph=plan.graph, assemble=lambda run: run), config)
        outputs = run.result_of(plan.graph.stages[-1]).outputs
        assert all(isinstance(block, NeighborBlock) for _, block in outputs)
        keys = [key for key, _ in outputs]
        assert len(keys) == len(set(keys)) <= config.num_reducers
        assert sum(len(block) for _, block in outputs) == len(data)


class TestRegistry:
    def test_all_eight_registered(self):
        assert set(ALL_JOINS) <= set(available_joins())

    def test_kinds(self):
        assert set(available_joins(kind="knn")) == {
            "pgbj", "pbj", "hbrj", "ijoin", "broadcast", "zorder",
        }
        assert set(available_joins(kind="operator")) == {
            "closest-pairs", "range-selection",
        }

    def test_unknown_join_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_join("mux")
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_join("mux", None, None)

    def test_wrong_config_type_rejected(self, data):
        with pytest.raises(TypeError, match="requires a PgbjConfig"):
            run_join("pgbj", data, data, JoinConfig(k=3))

    def test_default_config_constructed(self, data):
        outcome = run_join("broadcast", data, data)
        assert outcome.algorithm == "broadcast"

    def test_make_config_filters_unknown_knobs(self):
        spec = get_join("zorder")
        config = spec.make_config(k=4, num_shifts=2, num_pivots=99, grouping="greedy")
        assert config.k == 4 and config.num_shifts == 2
        assert not hasattr(config, "grouping")


class TestBoundaryValidation:
    """Bad datasets are refused by ``plan_join`` / ``run_join`` with a named
    error, for every registered join, before any stage is built or run."""

    @staticmethod
    def _with(data, **changes):
        points = data.points.copy()
        if "poison" in changes:
            points[7, 2] = changes["poison"]
        if "dims" in changes:
            points = points[:, : changes["dims"]]
        return type(data)(points, ids=data.ids, name="bad")

    @staticmethod
    def _entry_points(name, r, s):
        extra = {"theta": 0.3} if name == "range-selection" else {}
        config = make_config(name)
        yield lambda: plan_join(name, r, s, config, **extra)
        yield lambda: run_join(name, r, s, config, **extra)
        if get_join(name).kind == "knn":  # the tuner reads the data first
            yield lambda: run_join(name, r, s, make_config(name, auto_tune=True), **extra)

    @pytest.mark.parametrize("poison", (float("nan"), float("inf"), float("-inf")))
    @pytest.mark.parametrize("side", ("r", "s"))
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_non_finite_coordinates_rejected(self, name, side, poison, data):
        bad = self._with(data, poison=poison)
        r, s = (bad, data) if side == "r" else (data, bad)
        for call in self._entry_points(name, r, s):
            with pytest.raises(InvalidJoinInput) as caught:
                call()
            assert str(caught.value) == (
                f"{side.upper()} ('bad') has 1 object(s) with non-finite coordinates, "
                f"first id {int(data.ids[7])}"
            )

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_dimension_mismatch_rejected(self, name, data):
        narrow = self._with(data, dims=data.dimensions - 1)
        for r, s in ((narrow, data), (data, narrow)):
            for call in self._entry_points(name, r, s):
                with pytest.raises(InvalidJoinInput, match="dimension mismatch: R has"):
                    call()

    @pytest.mark.parametrize("side", ("r", "s"))
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_empty_side_rejected(self, name, side, data):
        empty = type(data)(data.points[:0], ids=data.ids[:0], name="bad")
        r, s = (empty, data) if side == "r" else (data, empty)
        for call in self._entry_points(name, r, s):
            with pytest.raises(InvalidJoinInput) as caught:
                call()
            assert str(caught.value) == (
                f"{side.upper()} ('bad') is empty; a join needs non-empty R and S"
            )

    @pytest.mark.parametrize("name", available_joins(kind="knn"))
    def test_k_exceeding_s_rejected(self, name, data):
        few = type(data)(data.points[:2], ids=data.ids[:2], name="few")
        for call in self._entry_points(name, data, few):
            with pytest.raises(InvalidJoinInput, match=r"k=3 exceeds \|S\|=2"):
                call()
        # k == |S| is a join (every s is a neighbour), and the operators'
        # config.k is not a neighbour count
        assert run_join(name, data, few, make_config(name, k=2)).k == 2

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_more_pivots_than_r_rejected_where_drawn_from_r(self, name, data):
        """PGBJ and PBJ draw ``num_pivots`` pivots from R; the other joins
        cap their pivot count at the data they index, or take none."""
        few = type(data)(data.points[:5], ids=data.ids[:5], name="few")
        if get_join(name).pivots_from_r:
            for call in self._entry_points(name, few, data):
                with pytest.raises(InvalidJoinInput) as caught:
                    call()
                assert str(caught.value) == (
                    "num_pivots=12 exceeds |R|=5; pivots are drawn from R"
                )
            assert plan_join(name, few, data, make_config(name, num_pivots=5))
        else:
            for call in self._entry_points(name, few, data):
                call()
        assert {n for n in ALL_JOINS if get_join(n).pivots_from_r} == {"pgbj", "pbj"}

    @pytest.mark.parametrize("auto_tune", (False, True))
    @pytest.mark.parametrize("entry", (plan_join, run_join))
    def test_checked_exactly_once_and_before_planning(self, entry, auto_tune, data, monkeypatch):
        from repro.joins import base, registry

        calls = []

        def counting_check(r, s, k=None, num_pivots=None):
            calls.append(k)
            base.check_join_inputs(r, s, k, num_pivots)

        def never_planned(*args, **kwargs):
            raise AssertionError("a refused join must not reach its planner")

        monkeypatch.setattr(registry, "check_join_inputs", counting_check)
        entry("pgbj", data, data, make_config("pgbj", auto_tune=auto_tune))
        assert calls == [3]  # not again per builder, not again under the tuner
        monkeypatch.setitem(
            registry.JOINS, "pgbj", dataclasses.replace(get_join("pgbj"), plan=never_planned)
        )
        with pytest.raises(InvalidJoinInput, match="exceeds"):
            entry("pgbj", data, data, make_config("pgbj", k=len(data) + 1, auto_tune=auto_tune))

    def test_is_a_value_error_and_clean_inputs_pass(self, data):
        assert issubclass(InvalidJoinInput, ValueError)
        assert plan_join("pgbj", data, data, make_config("pgbj")).graph is not None


class TestStageStats:
    """Satellite: per-job stats keyed by stable stage name, list order kept."""

    @pytest.fixture(scope="class")
    def outcome(self, data):
        return run_one("pgbj", data, None)[0]

    def test_names_and_order(self, outcome):
        assert isinstance(outcome.job_stats, StageStats)
        assert outcome.job_stats.names == ("pgbj/partition", "pgbj/join")
        # positional access and job names unchanged for existing consumers
        assert [s.job_name for s in outcome.job_stats] == ["partitioning", "knn-join"]
        assert outcome.job_stats[0] is outcome.job_stats["pgbj/partition"]

    def test_named_lookup(self, outcome):
        join_stats = outcome.job_stats["pgbj/join"]
        assert join_stats.job_name == "knn-join"
        assert outcome.job_stats.as_dict()["pgbj/join"] is join_stats
        with pytest.raises(KeyError):
            outcome.job_stats.named("pgbj/missing")

    def test_three_stage_join(self, data):
        outcome = run_one("pbj", data, None)[0]
        assert outcome.job_stats.names == ("pbj/partition", "pbj/block-join", "pbj/merge")

    def test_mismatched_names_rejected(self):
        from repro.mapreduce.stats import JobStats

        with pytest.raises(ValueError, match="stage names"):
            StageStats([JobStats(job_name="x")], names=("a", "b"))


class TestSharedResourcesAcrossWithChanges:
    """Satellite: with_changes carries injected resources by reference and
    sweeps over a shared pool must not double-close it."""

    def test_shared_executor_carried_by_reference(self):
        with PersistentThreadExecutor(max_workers=2) as executor:
            base = PgbjConfig(k=3, shared_executor=executor)
            derived = base.with_changes(k=5)
            assert derived.shared_executor is executor
            assert derived.k == 5

    def test_plan_cache_carried_by_reference(self):
        cache = PlanCache()
        base = PgbjConfig(k=3, plan_cache=cache)
        assert base.with_changes(k=5).plan_cache is cache

    def test_injected_resources_excluded_from_value(self):
        with PersistentThreadExecutor(max_workers=2) as executor:
            assert PgbjConfig(k=3, shared_executor=executor) == PgbjConfig(k=3)
        assert PgbjConfig(k=3, plan_cache=PlanCache()) == PgbjConfig(k=3)

    def test_sweep_over_shared_pool_does_not_close_it(self, data):
        serial = fingerprint(run_one("pgbj", data, None)[0])
        with PersistentThreadExecutor(max_workers=2) as executor:
            base = PgbjConfig(
                k=2, num_reducers=4, num_pivots=12, split_size=64, seed=5,
                engine="threads-pooled", max_workers=2, shared_executor=executor,
            )
            for k in (2, 3, 3):  # derived configs all drive the same pool
                config = base.with_changes(k=3) if k == 3 else base
                outcome = run_join("pgbj", data, data, config)
                assert not executor.closed
            assert fingerprint(outcome) == serial
        assert executor.closed  # closed exactly once, by the sweep itself
