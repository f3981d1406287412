"""A self-join (``r is s``) assigns each object to its Voronoi cell once
and ships it to its own group once.

PGBJ and PBJ share the partitioning stage, which emits one row of both
roles per object of a self-join.  Joining a dataset with itself must equal
joining it with an equal copy in results and S replicas, and compute exactly
the R copies' assignment pairs fewer — and, in PGBJ's reducers, the own-cell
pairs of a row with itself and the second direction of each pair the equal
copy computes both ways, fewer.  PBJ ships the two roles apart, so its
shuffle and reducer pairs equal the equal copy's; PGBJ sends each object to
its own group as one row of both roles, so its join shuffle is exactly the R
rows lighter.  Persisted stage results (an injected plan cache or a
``plan_cache_dir``) must never serve one for the other.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.joins import available_joins, get_join, kernels, plan_join, run_join
from repro.joins.base import (
    OTHER_CELL_PAIRS_NAME,
    OWN_CELL_PAIRS_NAME,
    PAIRS_GROUP,
    PAIRS_NAME,
    PIVOT_PAIRS_NAME,
    REPLICA_GROUP,
    REPLICA_NAME,
)
from repro.joins.partition_job import SKIPPED_NAME, make_pivot_selector
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce import PlanCache
from repro.mapreduce.serialization import estimate_bytes
from repro.mapreduce.types import ROLE_BOTH, ROLE_R, RecordBlock
from tests.test_kernels import RequestLog
from tests.test_plan_equivalence import env_params

JOINS = ("pgbj", "pbj")


@pytest.fixture(scope="module")
def data():
    """Tie-free floats, 300 rows: 64-row splits of R ∪ S straddle R and S."""
    rng = np.random.default_rng(12)
    return Dataset(rng.random((300, 3)), payload_bytes=rng.integers(0, 40, 300), name="d")


def config_for(name, **knobs):
    params = dict(k=4, num_reducers=4, num_pivots=20, split_size=64, seed=3, **env_params())
    return get_join(name).make_config(**{**params, **knobs})


def run_stages(name, r, s, config):
    """The assembled outcome and every stage's job result."""
    plan = plan_join(name, r, s, config)
    run = execute_join_plan(JoinPlan(graph=plan.graph, assemble=lambda run: run), config)
    return plan.assemble(run), [run.result_of(stage) for stage in plan.graph.stages]


def answer(outcome):
    return {
        r_id: tuple(array.tobytes() for array in outcome.result.neighbors_of(r_id))
        for r_id in outcome.result.r_ids()
    }


def shipped(jobs):
    """What every job after the partitioning one moved, its S replicas and
    what each of its reduce tasks read and wrote."""
    return [
        (
            job.stats.shuffle_records,
            job.stats.shuffle_bytes,
            job.counters.value(REPLICA_GROUP, REPLICA_NAME),
            [(task.input_records, task.output_records) for task in job.stats.reduce_tasks],
        )
        for job in jobs[1:]
    ]


def r_rows_shipped(jobs):
    """``(records, bytes)`` of the partitioned objects shipped once as R
    rows: each row's wire bytes, anchor codes included, and the copy of its
    int key the shuffle counts with it."""
    rows = RecordBlock.gather(block for _, block in jobs[0].outputs).copies_of(ROLE_R)
    return len(rows), len(rows) * estimate_bytes(0) + rows.estimated_bytes()


def assignment_pairs(dataset, config):
    """The pairs assigning every object of ``dataset`` once costs, with the
    join's pivots and the job's anchor index."""
    pivots = make_pivot_selector(config).select(
        dataset, config.num_pivots, get_metric(config.metric_name),
        np.random.default_rng(config.seed),
    )
    anchors = VoronoiPartitioner(pivots, get_metric(config.metric_name)).anchor_index()
    metric = get_metric(config.metric_name)
    VoronoiPartitioner(pivots, metric, anchors).assign_points(dataset.points)
    return metric.pairs_computed


def own_pairs_reused(r, s, config, monkeypatch):
    """Over the reducers of an in-process join of ``r`` and ``s``, the
    own-cell pairs each computed of a row with itself (the same point) plus
    those it computed both ways, counted once."""
    logs = []
    kernel = kernels.knn_join_kernel

    def logged(*args, **kwargs):
        logs.append(RequestLog())
        yield from kernel(*args, **{**kwargs, "own_metric": logs[-1]})

    monkeypatch.setattr(kernels, "knn_join_kernel", logged)
    run_join("pgbj", r, s, dataclasses.replace(config, engine="serial"))
    monkeypatch.undo()
    reused = 0
    for log in logs:
        asked = set(log.pairs)
        assert len(asked) == len(log.pairs)
        reused += sum(a == b or ((b, a) in asked and a < b) for a, b in asked)
    return reused


class TestSelfJoinEqualsEqualCopy:
    @pytest.mark.parametrize("budget", (None, 4096), ids=("memory", "spill"))
    @pytest.mark.parametrize("name", JOINS)
    def test_same_answer_and_replicas_fewer_pairs(self, name, budget, data, monkeypatch):
        config = config_for(name, **({} if budget is None else {"memory_budget": budget}))
        same, same_jobs = run_stages(name, data, data, config)
        twin, twin_jobs = run_stages(name, data, copy.deepcopy(data), config)
        assert answer(same) == answer(twin)
        if budget is not None:
            assert sum(job.stats.spill_segments for job in same_jobs[1:]) > 0  # it did spill
        # the self-join skips exactly the R copies' assignment; both count
        # what they skipped, so computed + skipped = (|R| + |S|) x M
        pairs, all_pairs = assignment_pairs(data, config), 2 * len(data) * config.num_pivots
        for jobs, computed in ((same_jobs, pairs), (twin_jobs, 2 * pairs)):
            counters = jobs[0].counters
            assert counters.value(PAIRS_GROUP, PAIRS_NAME) == computed
            assert computed + counters.value(PAIRS_GROUP, SKIPPED_NAME) == all_pairs
        if name != "pgbj":
            # the two roles ship apart: the equal copy's shuffle and reducer
            # pairs, to the row
            assert twin.distance_pairs - same.distance_pairs == pairs
            assert shipped(same_jobs) == shipped(twin_jobs)
            return
        # the reducers: the equal copy's object-pivot and other-cell pairs,
        # and its own-cell pairs less each row's with itself and the second
        # direction of each pair it computed both ways
        same_pairs, twin_pairs = (
            [outcome.counters.value(PAIRS_GROUP, counter) for counter in (
                PIVOT_PAIRS_NAME, OTHER_CELL_PAIRS_NAME, OWN_CELL_PAIRS_NAME
            )]
            for outcome in (same, twin)
        )
        reused = own_pairs_reused(data, copy.deepcopy(data), config, monkeypatch)
        assert same_pairs[:2] == twin_pairs[:2] and reused > len(data)
        assert twin_pairs[2] - same_pairs[2] == reused
        assert twin.distance_pairs - same.distance_pairs == pairs + reused
        # PGBJ: one row of both roles per object in its own group — the R
        # rows' records and bytes fewer, the same S replicas
        ((records, shuffle_bytes, replicas, _),) = shipped(same_jobs)
        ((twin_records, twin_bytes, twin_replicas, _),) = shipped(twin_jobs)
        assert (twin_records - records, twin_bytes - shuffle_bytes) == r_rows_shipped(same_jobs)
        assert replicas == twin_replicas == records

    def test_skew_split_self_join_ships_r_rows_once(self, data):
        """Under a forced skew split an object's R bit rides in its id lane's
        sub-key only, its S bit in every sub-key: results as the equal copy's,
        exactly |R| records fewer."""
        config = config_for("pgbj", skew_split_threshold=0.05, skew_split_max_ways=3)
        same, same_jobs = run_stages("pgbj", data, data, config)
        twin, twin_jobs = run_stages("pgbj", data, copy.deepcopy(data), config)
        assert len(same_jobs[1].stats.reduce_tasks) > config.num_reducers  # it split
        assert answer(same) == answer(twin)
        ((records, shuffle_bytes, replicas, _),) = shipped(same_jobs)
        ((twin_records, twin_bytes, twin_replicas, _),) = shipped(twin_jobs)
        assert (twin_records - records, twin_bytes - shuffle_bytes) == r_rows_shipped(same_jobs)
        assert replicas == twin_replicas > len(data)

    def test_map_tasks_read_and_emit_each_object_once(self, data):
        config = config_for("pgbj")
        _, same_jobs = run_stages("pgbj", data, data, config)
        _, twin_jobs = run_stages("pgbj", data, copy.deepcopy(data), config)
        for jobs, rows in ((same_jobs, len(data)), (twin_jobs, 2 * len(data))):
            assert sum(task.input_records for task in jobs[0].stats.map_tasks) == rows
            assert sum(len(block) for _, block in jobs[0].outputs) == rows
            assert sum(task.input_records for task in jobs[1].stats.map_tasks) == rows
        partitioned = RecordBlock.gather(block for _, block in same_jobs[0].outputs)
        assert (partitioned.role == ROLE_BOTH).all()
        assert sorted(partitioned.object_ids) == sorted(data.ids)


def test_an_equal_copy_counts_what_it_counted_before_the_own_cell_memo(data):
    """R ≠ S: no row is of both roles, so the reducers reuse no distance.
    The counters are the ones recorded on the commit before a self-join's
    reducers computed each own-cell distance once (the self-join's own-cell
    pairs were 2 097 there too, 1 176 since), plus 10 object-pivot pairs:
    2 fewer while each (R cell, S cell) pair was ranged by the objects
    admitted for the R cell alone (8 375 and 814), 12 more since neither
    that rule nor the nearest computed pivots' bounds spare any (8 387 and
    826; 8 377 and 816 before both)."""
    outcome = run_join("pgbj", data, copy.deepcopy(data), config_for("pgbj"))
    counted = outcome.counters.as_dict()[PAIRS_GROUP]
    assert (outcome.distance_pairs, counted[PAIRS_NAME]) == (8387, 8197)
    assert [counted[name] for name in (
        PIVOT_PAIRS_NAME, OTHER_CELL_PAIRS_NAME, OWN_CELL_PAIRS_NAME
    )] == [826, 944, 2097]


def facts(name, r, s, config):
    outcome = run_join(name, r, s, config)
    return answer(outcome), outcome.distance_pairs, outcome.counters.as_dict()


@pytest.mark.parametrize("persisted", ("plan-cache", "plan-cache-dir"))
@pytest.mark.parametrize("first", ("self-join", "equal-copy"))
@pytest.mark.parametrize("name", available_joins())
def test_persisted_results_never_stand_in_for_the_other_kind(
    name, persisted, first, data, tmp_path
):
    """Fill a persistent plan cache (injected, or named by ``plan_cache_dir``)
    with one kind of run, then run the other kind over it: its counters are a
    fresh run's.  The same kind again is served (the store is not vacuous)."""
    kinds = {"self-join": data, "equal-copy": copy.deepcopy(data)}
    second = "equal-copy" if first == "self-join" else "self-join"
    fresh = facts(name, data, kinds[second], config_for(name))

    def stored():
        if persisted == "plan-cache":
            return config_for(name, plan_cache=PlanCache(directory=str(tmp_path / "plans")))
        return config_for(name, plan_cache_dir=str(tmp_path / "dir"))

    def stages(kind):
        return len(plan_join(name, data, kinds[kind], config_for(name)).graph.stages)

    facts(name, data, kinds[first], stored())
    config = stored()
    assert facts(name, data, kinds[second], config) == fresh
    if persisted == "plan-cache":
        assert config.plan_cache.stats()["disk_hits"] == 0
        again = stored()
        facts(name, data, kinds[first], again)
        # every stage: PGBJ's and PBJ's partition under its content key, the
        # others under the plan identity (each tells a self-join from an
        # equal copy)
        assert again.plan_cache.stats()["disk_hits"] == stages(first)
    else:  # one file per stage and kind: the second kind wrote its own
        files = list((tmp_path / "dir").glob("*.plan.seg"))
        assert len(files) == stages(first) + stages(second)
