"""Plan execution equivalence: where a stage's result comes from must be
invisible.

The acceptance bar of the planner: all 5 joins run through ``JobGraph``
plans, and cache-served stages (in memory or from the persistent plan
cache) are **bit-identical** — results, ``pairs_computed``, shuffle
records/bytes — to cold runs, on every engine and both shuffle backends.

Engine and memory budget default from ``REPRO_ENGINE`` /
``REPRO_MEMORY_BUDGET`` (like the bench harness), so the CI legs sweep this
suite across the engine × spill matrix; a direct parametrization covers the
matrix for PGBJ and the z-order join in every run.  With
``REPRO_PLAN_CACHE_DIR`` set (the CI ``plan-cache`` leg), the first pytest
invocation seeds that persistent cache and records an outcome fingerprint;
the second must be served from disk and fingerprint identically.

Also here: the registry surface (``get_join`` / ``run_join``), the
stage-named ``StageStats``, and the ``with_changes`` × ``shared_executor`` /
``plan_cache`` carry-by-reference contract.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from pathlib import Path

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
    registry,
    run_join,
)
from repro.joins.base import knobs_from_env
from repro.joins.partition_job import partition_stage_key
from repro.mapreduce import PersistentThreadExecutor, PlanCache
from tests.test_engines import outcome_fingerprint

ALL_JOINS = ("pgbj", "pbj", "hbrj", "broadcast", "zorder")

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


fingerprint = outcome_fingerprint

#: the two input shapes a join plans apart: one dataset joined with itself
#: (``r is s``: one row per object, or one per curve copy), and R joined
#: with another S
PAIRS = ("self-join", "r-and-s")


@functools.cache
def _other_forest(rows: int):
    return generate_forest(rows, seed=4)


def s_for(pair: str, data):
    """S for R = ``data``: ``data`` itself, or another Forest draw, a
    quarter smaller."""
    return data if pair == "self-join" else _other_forest(len(data) - len(data) // 4)


def run_one(name: str, data, s=None, **config_overrides):
    """``name`` joining R = ``data`` with ``s`` (default: ``data`` itself)."""
    config = make_config(name, **config_overrides)
    return run_join(name, data, data if s is None else s, config), config


def stage_facts(outcome):
    """A kNN outcome's accounting, stage by stage."""
    return [
        (stats.job_name, stats.shuffle_records, stats.shuffle_bytes, stats.output_bytes)
        for stats in outcome.job_stats
    ]


class JobCounter:
    """Counts the jobs a runtime executes; with ``kill_after`` set, the next
    job after that many raises, as a process killed between stages would."""

    def __init__(self, monkeypatch, kill_after: int | None = None) -> None:
        from repro.mapreduce.runtime import LocalRuntime

        self.jobs = 0
        real = LocalRuntime.run

        def counting(runtime, job, splits):
            if kill_after is not None and self.jobs == kill_after:
                raise RuntimeError("simulated kill")
            self.jobs += 1
            return real(runtime, job, splits)

        monkeypatch.setattr(LocalRuntime, "run", counting)


def run_resumed(name, data, directory, monkeypatch, stages_done, s=None, **overrides):
    """Kill a join with ``plan_cache_dir=directory`` once ``stages_done`` jobs
    have finished, then run it again over the same directory; returns the
    resumed outcome and the number of jobs the resumed run executed."""
    JobCounter(monkeypatch, kill_after=stages_done)
    with pytest.raises(RuntimeError, match="simulated kill"):
        run_one(name, data, s, plan_cache_dir=str(directory), **overrides)
    monkeypatch.undo()
    resumed = JobCounter(monkeypatch)
    outcome, _ = run_one(name, data, s, plan_cache_dir=str(directory), **overrides)
    monkeypatch.undo()
    return outcome, resumed.jobs


class TestServedStagesMatchComputed:
    """Where a stage's result comes from is invisible, per join and input
    shape: a run served from an in-memory plan cache, and a run killed after
    any finished stage and resumed over the same ``plan_cache_dir``, equal
    the uncached run — results, counters and every stage's accounting."""

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_warm_in_memory_run_matches(self, name, pair, data):
        s = s_for(pair, data)
        plain, _ = run_one(name, data, s)
        cache = PlanCache()
        cold, _ = run_one(name, data, s, plan_cache=cache)
        stored = len(cache)
        warm, _ = run_one(name, data, s, plan_cache=cache)
        assert fingerprint(cold) == fingerprint(warm) == fingerprint(plain)
        # the warm run was served every stage the cold run stored
        assert stored >= 1 and cache.stats() == {
            "entries": stored, "hits": stored, "misses": stored,
        }

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_resumed_after_every_stage_matches(self, name, pair, data, tmp_path, monkeypatch):
        s = s_for(pair, data)
        counter = JobCounter(monkeypatch)
        plain, _ = run_one(name, data, s)
        monkeypatch.undo()
        for done in range(counter.jobs):
            resumed, jobs = run_resumed(name, data, tmp_path / str(done), monkeypatch, done, s)
            assert fingerprint(resumed) == fingerprint(plain), done
            assert jobs == counter.jobs - done  # the finished stages came from disk

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", available_joins())
    def test_per_stage_accounting_stable(self, name, pair, data, tmp_path, monkeypatch):
        """Stage-level stats (not just totals) are the same whether a stage
        ran, was served warm, or was served to a run resumed before its last
        stage."""
        s = s_for(pair, data)
        plain, _ = run_one(name, data, s)
        cache = PlanCache()
        run_one(name, data, s, plan_cache=cache)
        warm, _ = run_one(name, data, s, plan_cache=cache)
        resumed, _ = run_resumed(
            name, data, tmp_path, monkeypatch, len(plain.job_stats) - 1, s
        )
        assert stage_facts(warm) == stage_facts(resumed) == stage_facts(plain)
        assert warm.job_stats.names == plain.job_stats.names


class TestEngineSpillMatrix:
    """Direct engine × shuffle-backend sweep for a chain join and the
    approximate join, over both input shapes (the CI legs additionally push
    every join through processes-pooled and a forced-spill budget via the
    env defaults)."""

    @pytest.fixture(scope="class")
    def pgbj_reference(self, data):
        config = PgbjConfig(k=3, num_reducers=4, num_pivots=12, split_size=64, seed=5)
        return functools.cache(
            lambda pair: fingerprint(run_join("pgbj", data, s_for(pair, data), config))
        )

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("budget", (None, 64))
    def test_pgbj_matrix(self, data, engine, budget, pair, pgbj_reference):
        config = PgbjConfig(
            k=3, num_reducers=4, num_pivots=12, split_size=64, seed=5,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        outcome = run_join("pgbj", data, s_for(pair, data), config)
        assert fingerprint(outcome) == pgbj_reference(pair)
        if budget is not None:
            assert outcome.spill_segments() > 0

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("budget", (None, 64))
    def test_pgbj_resumed_matrix(
        self, data, engine, budget, pair, pgbj_reference, tmp_path, monkeypatch
    ):
        """Killed after its partition stage and resumed over the same
        ``plan_cache_dir``: the stage read back from disk drives the join
        stage on every engine and shuffle backend."""
        resumed, jobs = run_resumed(
            "pgbj", data, tmp_path, monkeypatch, 1, s_for(pair, data),
            engine=engine, max_workers=2, memory_budget=budget,
        )
        assert fingerprint(resumed) == pgbj_reference(pair)
        assert jobs == 1

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    @pytest.mark.parametrize("budget", (None, 64))
    def test_zorder_matrix(self, data, engine, budget, pair, tmp_path, monkeypatch):
        s = s_for(pair, data)
        reference = fingerprint(
            run_join(
                "zorder",
                data,
                s,
                ZOrderConfig(k=3, num_reducers=4, num_shifts=2, split_size=64, seed=5),
            )
        )
        config = ZOrderConfig(
            k=3, num_reducers=4, num_shifts=2, split_size=64, seed=5,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        assert fingerprint(run_join("zorder", data, s, config)) == reference
        resumed, jobs = run_resumed(
            "zorder", data, tmp_path, monkeypatch, 1, s,
            k=3, num_reducers=4, num_shifts=2, split_size=64, seed=5,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        assert fingerprint(resumed) == reference
        assert jobs == 1  # the one job left after the first stage ran again


class TestPlanCacheReuse:
    """Shared-prefix reuse: cached sweeps are bit-identical to cold ones.

    Every stage is stored: the partition stage under its content key, which
    leaves ``k`` and ``num_reducers`` out, and every other stage under its
    plan's identity, which holds every config field — so a sweep shares the
    partition stage alone, and each point adds one entry (and one miss) per
    later stage."""

    def test_k_sweep_reuses_partitioning(self, data):
        cold = {
            k: fingerprint(run_one("pgbj", data, k=k)[0]) for k in (2, 4, 6)
        }
        cache = PlanCache()
        warm = {
            k: fingerprint(run_one("pgbj", data, k=k, plan_cache=cache)[0])
            for k in (2, 4, 6)
        }
        assert warm == cold
        # one partitioning execution served all three k values: its entry
        # plus three k-specific join entries, so 1 + 3 misses and 2 hits
        assert cache.stats() == {"entries": 4, "hits": 2, "misses": 4}

    def test_prefix_shared_across_algorithms(self, data):
        """PGBJ and PBJ build the identical partitioning job: one cache entry
        for it, served once, beside PGBJ's join stage and PBJ's block join
        and merge stages (1 + 1 + 2 entries, each a miss once)."""
        cache = PlanCache()
        pgbj_cold = fingerprint(run_one("pgbj", data)[0])
        pbj_cold = fingerprint(run_one("pbj", data)[0])
        assert fingerprint(
            run_one("pgbj", data, plan_cache=cache)[0]
        ) == pgbj_cold
        assert fingerprint(run_one("pbj", data, plan_cache=cache)[0]) == pbj_cold
        assert cache.stats() == {"entries": 4, "hits": 1, "misses": 4}

    def test_changed_prefix_inputs_miss(self, data):
        """Different pivot counts (or seeds) must not alias in the cache."""
        cache = PlanCache()
        run_one("pgbj", data, plan_cache=cache, num_pivots=8)
        run_one("pgbj", data, plan_cache=cache, num_pivots=12)
        run_one("pgbj", data, plan_cache=cache, num_pivots=12, seed=9)
        assert len(cache) == 3 * 2  # a partition and a join entry per run
        assert cache.hits == 0

    def test_reducer_sweep_reuses_partitioning(self, data):
        """num_reducers only affects grouping/join — the prefix is shared."""
        cache = PlanCache()
        cold = [
            fingerprint(run_one("pgbj", data, num_reducers=n)[0])
            for n in (2, 4)
        ]
        warm = [
            fingerprint(
                run_one("pgbj", data, num_reducers=n, plan_cache=cache)[0]
            )
            for n in (2, 4)
        ]
        assert warm == cold
        assert cache.stats()["hits"] == 1

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_cold_then_warm_disk_cache(self, name, pair, data, tmp_path):
        """A run served from the persistent cache by a fresh cache object
        fingerprints like the cold run that wrote it, and writes nothing new:
        every stage was stored by the cold run."""
        s = s_for(pair, data)
        cold, _ = run_one(name, data, s, plan_cache_dir=str(tmp_path))
        files = sorted(Path(tmp_path).glob("*.plan.seg"))
        warm, _ = run_one(name, data, s, plan_cache_dir=str(tmp_path))
        assert fingerprint(warm) == fingerprint(cold)
        assert files and sorted(Path(tmp_path).glob("*.plan.seg")) == files

    def test_an_entry_written_by_older_partitioning_code_does_not_hit(
        self, data, tmp_path, monkeypatch
    ):
        """The partition stage's key carries the code version
        (``RESULTS_VERSION``): an entry persisted before the job's counters
        changed would otherwise serve its old ``distance_pairs`` verbatim."""

        def run_with_fresh_cache():
            cache = PlanCache(directory=tmp_path)
            config = PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache=cache)
            return cache, partition_stage_key(data, data, config, 12), run_join(
                "pgbj", data, data, config
            )

        current = registry.RESULTS_VERSION
        monkeypatch.setattr(registry, "RESULTS_VERSION", current - 1)
        old_cache, old_key, _ = run_with_fresh_cache()
        assert old_cache.disk_writes >= 1
        monkeypatch.undo()
        cache, key, cold = run_with_fresh_cache()
        assert key != old_key and current in key
        assert cache.disk_hits == 0 and cache.disk_writes >= 1
        warm_cache, _, warm = run_with_fresh_cache()
        assert warm_cache.disk_hits >= 1
        assert fingerprint(warm) == fingerprint(cold)

    def test_a_join_stage_saved_before_the_swaps_is_re_run(self, data, tmp_path, monkeypatch):
        """A PGBJ join stage persisted under an older code version, one
        whose grouping swapped no cells and whose reducers computed another
        count of object-pivot pairs, is a miss: the re-run reports the
        swapped grouping's shuffle and the current pairs, as a cold run
        does."""
        import numpy as np

        from repro.grouping import refine
        from repro.joins import kernels
        from repro.joins.registry import JoinPlan, execute_join_plan

        config = PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache_dir=str(tmp_path))
        cold = run_join("pgbj", data, data, config.with_changes(plan_cache_dir=None))
        monkeypatch.setattr(registry, "RESULTS_VERSION", registry.RESULTS_VERSION - 1)
        monkeypatch.setattr(refine, "_swaps", lambda state: 0)
        # reducers that compute every |r, p_j| the anchor ranges spare
        monkeypatch.setattr(
            kernels, "anchor_range_gaps", lambda mids, reach, rows, *_: np.full(rows.shape, -np.inf)
        )
        saved = run_join("pgbj", data, data, config)
        monkeypatch.undo()
        assert len(sorted(tmp_path.glob("*.plan.seg"))) == 2
        assert saved.shuffle_bytes() > cold.shuffle_bytes()
        assert saved.distance_pairs > cold.distance_pairs
        plan = plan_join("pgbj", data, data, config)
        run = execute_join_plan(
            JoinPlan(graph=plan.graph, assemble=lambda run: run, identity=plan.identity), config
        )
        assert "pgbj/join" not in run.cached_stage_names()
        rerun = plan.assemble(run)
        assert rerun.shuffle_bytes() == cold.shuffle_bytes()
        assert rerun.distance_pairs == cold.distance_pairs
        assert fingerprint(rerun) == fingerprint(cold)

    def test_an_entry_saved_without_anchor_hulls_is_re_run(self, data, tmp_path, monkeypatch):
        """A partition stage persisted before ``T_R`` rows carried anchor
        hulls (the code version before them, whose partials had none) is a
        miss: the join re-runs every stage, never crashes on the hull-free
        table, and answers as a cold run does."""
        from repro.core.summary import build_partial_summary
        from repro.joins import partition_job
        from repro.joins.registry import JoinPlan, execute_join_plan

        config = PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache_dir=str(tmp_path))
        cold = run_join("pgbj", data, data, config.with_changes(plan_cache_dir=None))
        monkeypatch.setattr(registry, "RESULTS_VERSION", registry.RESULTS_VERSION - 1)
        monkeypatch.setattr(
            partition_job,
            "build_partial_summary",
            lambda pids, dists, anchor_dists=None: build_partial_summary(pids, dists),
        )
        hull_free = run_join("pgbj", data, data, config)
        monkeypatch.undo()
        assert sorted(tmp_path.glob("*.plan.seg"))
        assert fingerprint(hull_free)["pairs"] == fingerprint(cold)["pairs"]
        plan = plan_join("pgbj", data, data, config)
        run = execute_join_plan(
            JoinPlan(graph=plan.graph, assemble=lambda run: run, identity=plan.identity), config
        )
        assert run.cached_stage_names() == []
        assert fingerprint(plan.assemble(run)) == fingerprint(cold)

    def test_an_entry_saved_without_s_anchor_hulls_is_re_run(
        self, data, queries, tmp_path, monkeypatch
    ):
        """An R != S join's partition stage persisted before ``T_S`` rows
        carried anchor hulls (the code version before them, whose grouping
        ignored them) is a miss: the join re-runs every stage, never crashes
        on the hull-free table, and answers as a cold run does."""
        from dataclasses import replace

        from repro.joins import partition_job
        from repro.joins.registry import JoinPlan, execute_join_plan
        from repro.mapreduce.job import Context

        config = PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache_dir=str(tmp_path))
        cold = run_join("pgbj", data, queries, config.with_changes(plan_cache_dir=None))
        monkeypatch.setattr(registry, "RESULTS_VERSION", registry.RESULTS_VERSION - 1)
        side_output = Context.side_output
        monkeypatch.setattr(
            Context,
            "side_output",
            lambda ctx, channel, value: side_output(
                ctx,
                channel,
                replace(value, hulls=None) if channel == partition_job.CHANNEL_TS else value,
            ),
        )
        hull_free = run_join("pgbj", data, queries, config)
        monkeypatch.undo()
        assert sorted(tmp_path.glob("*.plan.seg"))
        assert fingerprint(hull_free)["pairs"] == fingerprint(cold)["pairs"]
        plan = plan_join("pgbj", data, queries, config)
        run = execute_join_plan(
            JoinPlan(graph=plan.graph, assemble=lambda run: run, identity=plan.identity), config
        )
        assert run.cached_stage_names() == []
        assert fingerprint(plan.assemble(run)) == fingerprint(cold)

    def test_a_zorder_self_join_saved_before_one_row_per_copy_is_re_run(
        self, data, tmp_path, monkeypatch
    ):
        """A z-order self-join persisted under code version 18, before each
        object shipped once per curve copy (its join stage read ``R`` then
        ``S``, an R row and an S row per object), holds the old job-1
        shuffle: it is a miss, and the re-run reports the new bytes."""
        from repro.joins import zorder
        from repro.joins.registry import JoinPlan, execute_join_plan
        from repro.mapreduce.splits import dataset_splits

        config = ZOrderConfig(k=3, num_reducers=9, seed=5, plan_cache_dir=str(tmp_path))
        cold = run_join("zorder", data, data, config.with_changes(plan_cache_dir=None))
        # version 18, the last to ship an R row and an S row per object
        monkeypatch.setattr(registry, "RESULTS_VERSION", 18)
        monkeypatch.setattr(zorder, "join_splits", dataset_splits)
        stale = run_join("zorder", data, data, config)
        monkeypatch.undo()
        assert sorted(tmp_path.glob("*.plan.seg"))
        assert stale.job_stats[0].shuffle_bytes > cold.job_stats[0].shuffle_bytes
        plan = plan_join("zorder", data, data, config)
        run = execute_join_plan(
            JoinPlan(graph=plan.graph, assemble=lambda run: run, identity=plan.identity), config
        )
        assert run.cached_stage_names() == []
        rerun = plan.assemble(run)
        assert rerun.job_stats[0].shuffle_bytes == cold.job_stats[0].shuffle_bytes
        assert fingerprint(rerun) == fingerprint(cold)

    @pytest.mark.skipif(
        not os.environ.get("REPRO_PLAN_CACHE_DIR"),
        reason="cross-invocation handshake only runs in the CI plan-cache leg",
    )
    def test_shared_plan_cache_dir_across_invocations(self, data):
        """CI plan-cache leg: invocation 1 seeds the shared dir, invocation 2
        must get disk hits and an identical outcome fingerprint."""
        cache_dir = Path(os.environ["REPRO_PLAN_CACHE_DIR"])
        cache_dir.mkdir(parents=True, exist_ok=True)
        marker = cache_dir / "pgbj-outcome-fingerprint.txt"
        second_invocation = marker.exists()
        cache = PlanCache(directory=cache_dir)
        outcome = run_join(
            "pgbj", data, data,
            PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache=cache),
        )
        printed = repr(fingerprint(outcome))
        if second_invocation:
            assert cache.disk_hits >= 1, "second invocation must be served from disk"
            assert marker.read_text() == printed, "cross-process fingerprints differ"
        else:
            assert cache.disk_writes >= 1
            marker.write_text(printed)


def run_pinned(name, data, served: bool, **overrides):
    """One self-join run; ``served`` returns a second run over a plan cache
    the first one filled, every stage of it served from the cache."""
    if not served:
        return run_one(name, data, **overrides)[0]
    cache = PlanCache()
    run_one(name, data, plan_cache=cache, **overrides)
    outcome, _ = run_one(name, data, plan_cache=cache, **overrides)
    assert cache.hits == len(cache) >= 1
    return outcome


class TestMergeJobProducersPinned:
    """The four joins feeding the shared merge job, pinned to the facts the
    per-record merge job produced (recorded on the commit before candidate
    lists went columnar): neighbour ids, computed pairs, S replicas and the
    shuffle, under whatever engine/budget the CI leg injects, computed or
    served from a plan cache.
    (``pbj``'s pair count was 19 960 while the kernel computed every
    ``|r, p_j|`` up front; only that field moved when it stopped, and again,
    from 17 437, when the self-join's objects were assigned once, the pivot
    matrix computed once per pair and the own pivot's distance reused, and
    from 14 493, when each row's nearest computed pivots bounded its later
    cells and its own cell was scanned from the ring centre out, and from
    13 578, when random pivots became one draw instead of the most spread of
    five: the master's matrix is paid once, but this world's cells got
    dearer by more, and from 13 943, when two anchors' distances began
    filtering every scanned pair, and from 11 720, when the anchor distances
    arrived as codes from the partitioning job and a row's theta started at
    its own bound, and from 9 817, when every row carried codes of all 12
    anchors (below 16 pivots every pivot is one), not the first 4, and from
    9 262, when each (row, cell) pair was judged by the cell's anchor ranges
    before its ``|r, p_j|``, and from 8 330, when each row's first cells were
    scanned in ascending anchor bound.  The
    bytes fell by 4 per object row when the cell id
    became an int32: 117 600 for ``hbrj``, 121 216 for
    ``zorder``; ``pbj``'s rows gained as many bytes of anchor codes.  ``zorder``
    was re-pinned whole when its grid became a cube and its default two curve
    copies: before, ``("0de74e370e6002bc", 3557, 676, 1876, 184988)``.  The
    bytes fell again by 60 per object row, 6 per coordinate, when this
    integral world's coordinates began to ship as int16: from 114 400 for
    ``hbrj``, 117 600 for ``pbj`` and 117 888 for ``zorder``.
    And again when ids began to ship as int16 (these 200 ids) and cell ids
    as int8 (12 cells, or none assigned): 9 bytes fewer per object row and 6
    per candidate, from 66 400 for ``hbrj`` and 67 968 for
    ``zorder``; ``pbj``'s rows gained 8 codes of the 9, from 69 600.
    ``zorder``'s records and bytes fell by one 40-byte row per object and
    curve copy when a self-join began to ship each object once per copy, its
    own-block row in both roles: from 1 232 records and 53 280 bytes.  Its
    pairs fell by as many, from 2 369, when that row began to read its own
    entry as 0.0 uncomputed, and from 1 969 to the distinct unordered pairs
    its windows hold when each mirrored pair began to be computed once.)"""

    #: join -> (sha1 of (r id, neighbour ids) rows, pairs, replicas, records, bytes)
    PINNED = {
        "hbrj": ("124cb21fb9bbe9a5", 39175, 400, 1200, 52000),
        "pbj": ("124cb21fb9bbe9a5", 7710, 400, 1200, 61600),
        "zorder": ("f7cc7c3009292dc9", 1193, 432, 832, 37280),
    }

    @pytest.mark.parametrize("served", (False, True), ids=("computed", "served"))
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_facts_unchanged(self, name, served, data):
        import hashlib

        import numpy as np

        outcome = run_pinned(name, data, served, num_reducers=9 if name == "zorder" else 4)
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
    """The two joins whose reducers answer the join directly, computed or
    served from a plan cache, pinned to the
    facts their row-shaped ``(r_id, (ids, dists))`` outputs produced (recorded
    on the commit before they became one ``NeighborBlock`` per reduce call;
    ``pgbj``'s pair count was 15 570 with the eager object-pivot matrix, and
    14 685 before a self-join assigned each object once, the pivot matrix
    was computed once per pair and the own pivot's distance was reused, and
    11 941 before the nearest computed pivots bounded each row's later cells
    and the own cell was scanned from its ring centre out, 10 656 while
    random pivots were the most spread of five draws, 11 320 before two
    anchors' distances filtered every scanned pair, 9 133 before an
    object's own-group row of both roles computed its anchor distances once,
    and 8 733 before the anchor distances arrived as codes from the
    partitioning job and a row's theta started at its own bound, 7 292
    before every row carried codes of all 12 anchors, not the first 4, and
    6 736 before each (row, cell) pair was judged by the cell's anchor ranges
    before its ``|r, p_j|``, 6 258 before each row's first cells were
    scanned in ascending anchor bound, 5 749 before a self-join's
    reducer computed each own-cell distance once, 4 899 before each S
    copy was routed by its anchor codes, which narrows the reducers' cell
    anchor ranges, and 4 897 before the master refined the grouping by
    counted S copies, which moves the S rows each reducer's ranges hold, and
    4 899 before each (R cell, S cell) pair was ranged by the objects the
    routing rule admits for the R cell alone, and 4 897 while it was; the
    nearest computed pivots' bounds on ``|r, p_j|``, deleted with it, spared
    no pair of this world, nor of ``pbj``'s)."""

    #: join -> (sha1 of (r id, neighbour ids, distance bytes) rows, pairs,
    #: final job's output_bytes, its reduce tasks' output records)
    PINNED = {
        "broadcast": ("6a7ec171f4ee3716", 40000, 13600, 200),
        "pgbj": ("6a7ec171f4ee3716", 4899, 13600, 200),
    }

    @pytest.mark.parametrize("served", (False, True), ids=("computed", "served"))
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_facts_unchanged(self, name, served, data):
        import hashlib

        import numpy as np

        from repro.mapreduce import estimate_bytes

        outcome = run_pinned(name, data, served)
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
    def test_exactly_the_five_registered(self):
        assert available_joins() == tuple(sorted(ALL_JOINS))

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
        config = make_config(name)
        yield lambda: plan_join(name, r, s, config)
        yield lambda: run_join(name, r, s, config)

    @staticmethod
    def _sides(side, bad, data):
        """``(r, s)`` with ``bad`` as R, as S, or as both of a self-join."""
        return {"r": (bad, data), "s": (data, bad), "self": (bad, bad)}[side]

    @pytest.mark.parametrize("poison", (float("nan"), float("inf"), float("-inf")))
    @pytest.mark.parametrize("side", ("r", "s", "self"))
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_non_finite_coordinates_rejected(self, name, side, poison, data):
        """A self-join names its one dataset as R."""
        bad = self._with(data, poison=poison)
        for call in self._entry_points(name, *self._sides(side, bad, data)):
            with pytest.raises(InvalidJoinInput) as caught:
                call()
            assert str(caught.value) == (
                f"{'S' if side == 's' else 'R'} ('bad') has 1 object(s) with non-finite "
                f"coordinates, first id {int(data.ids[7])}"
            )

    @pytest.mark.parametrize("side", ("r", "s"))
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_repeated_object_id_rejected(self, name, side, data):
        """The constructor refuses repeated ids; ids replaced after it are
        caught at the boundary, naming the first row's id that repeats."""
        bad = self._with(data)
        ids = data.ids.copy()
        ids[12], ids[9] = ids[2], ids[4]
        bad.ids = ids
        r, s = (bad, data) if side == "r" else (data, bad)
        for call in self._entry_points(name, r, s):
            with pytest.raises(InvalidJoinInput) as caught:
                call()
            assert str(caught.value) == (
                f"{side.upper()} ('bad') repeats object id {int(data.ids[4])}; "
                "ids must be unique"
            )
        # a self-join names its one dataset as R
        with pytest.raises(InvalidJoinInput, match=r"^R \('bad'\) repeats object id"):
            run_join(name, bad, bad, make_config(name))

    def test_a_self_join_is_checked_once(self, data, monkeypatch):
        from repro.joins import base

        sorts = []
        real = base.np.argsort

        def counting(*args, **kwargs):
            sorts.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(base.np, "argsort", counting)
        base.check_join_inputs(data, data, 3)
        assert sorts == [(len(data),)]
        base.check_join_inputs(data, self._with(data), 3)
        assert sorts == [(len(data),)] * 3

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_dimension_mismatch_rejected(self, name, data):
        narrow = self._with(data, dims=data.dimensions - 1)
        for r, s in ((narrow, data), (data, narrow)):
            for call in self._entry_points(name, r, s):
                with pytest.raises(InvalidJoinInput, match="dimension mismatch: R has"):
                    call()

    @pytest.mark.parametrize("side", ("r", "s", "self"))
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_empty_side_rejected(self, name, side, data):
        empty = type(data)(data.points[:0], ids=data.ids[:0], name="bad")
        for call in self._entry_points(name, *self._sides(side, empty, data)):
            with pytest.raises(InvalidJoinInput) as caught:
                call()
            assert str(caught.value) == (
                f"{'S' if side == 's' else 'R'} ('bad') is empty; "
                "a join needs non-empty R and S"
            )

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", available_joins())
    def test_k_exceeding_s_rejected(self, name, pair, data):
        few = type(data)(data.points[:2], ids=data.ids[:2], name="few")
        r = few if pair == "self-join" else data
        for call in self._entry_points(name, r, few):
            with pytest.raises(InvalidJoinInput, match=r"k=3 exceeds \|S\|=2"):
                call()
        # k == |S| is a join (every s is a neighbour)
        config = make_config(name, k=2, num_pivots=min(12, len(r)))
        assert run_join(name, r, few, config).k == 2

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_more_pivots_than_r_rejected_where_drawn_from_r(self, name, pair, data):
        """PGBJ and PBJ draw ``num_pivots`` pivots from R; the other joins
        cap their pivot count at the data they index, or take none."""
        few = type(data)(data.points[:5], ids=data.ids[:5], name="few")
        s = few if pair == "self-join" else data
        if get_join(name).pivots_from_r:
            for call in self._entry_points(name, few, s):
                with pytest.raises(InvalidJoinInput) as caught:
                    call()
                assert str(caught.value) == (
                    "num_pivots=12 exceeds |R|=5; pivots are drawn from R"
                )
            assert plan_join(name, few, s, make_config(name, num_pivots=5))
        else:
            for call in self._entry_points(name, few, s):
                call()
        assert {n for n in ALL_JOINS if get_join(n).pivots_from_r} == {"pgbj", "pbj"}

    @pytest.mark.parametrize("entry", (plan_join, run_join))
    def test_checked_exactly_once_and_before_planning(self, entry, data, monkeypatch):
        from repro.joins import base

        calls = []

        def counting_check(r, s, k, num_pivots=None):
            calls.append(k)
            base.check_join_inputs(r, s, k, num_pivots)

        def never_planned(*args, **kwargs):
            raise AssertionError("a refused join must not reach its planner")

        monkeypatch.setattr(registry, "check_join_inputs", counting_check)
        entry("pgbj", data, data, make_config("pgbj"))
        assert calls == [3]  # not again per builder
        monkeypatch.setitem(
            registry.JOINS, "pgbj", dataclasses.replace(get_join("pgbj"), plan=never_planned)
        )
        with pytest.raises(InvalidJoinInput, match="exceeds"):
            entry("pgbj", data, data, make_config("pgbj", k=len(data) + 1))

    def test_is_a_value_error_and_clean_inputs_pass(self, data):
        assert issubclass(InvalidJoinInput, ValueError)
        assert plan_join("pgbj", data, data, make_config("pgbj")).graph is not None


class TestStageStats:
    """Satellite: per-job stats keyed by stable stage name, list order kept."""

    @pytest.fixture(scope="class")
    def outcome(self, data):
        return run_one("pgbj", data)[0]

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
        outcome = run_one("pbj", data)[0]
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
        serial = fingerprint(run_one("pgbj", data)[0])
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
