"""PGBJ's shipping rule: an S object goes to a group only if one of the
group's R cells passes Theorem 5 for that one cell and lies within
``theta_i`` of the object around every anchor (``GroupRoutingMapper``).

Three views of the same copies: the library's vectorised rounds, the
object-by-object reference (``tests/reference_pgbj.py:shipping_rule``), and a
brute-force oracle — every S object within an R object's k-th nearest
distance (ties included) must reach that R object's reducer.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro.core import Dataset, get_metric
from repro.joins import PgbjConfig, pgbj
from repro.joins.partition_job import make_pivot_selector
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce.job import Context
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock
from tests.reference_pgbj import PerCellRoutingMapper
from tests.test_plan_equivalence import env_params

#: side channel on which the recording reducer reports its rows
CHANNEL_COPIES = "copies"


class RecordingReducer(pgbj.PgbjJoinReducer):
    """The library's reducer, reporting each row it was handed as
    ``(key, object id, role)``."""

    def reduce(self, key, values, ctx: Context):
        block = RecordBlock.gather(values)
        ctx.side_output(
            CHANNEL_COPIES, (key, block.object_ids.astype(np.int64).tolist(), block.role.tolist())
        )
        return super().reduce(key, [block], ctx)


def _grid(rng, rows, dims=3, values=6):
    """Integer points on a small grid: duplicates and distance ties."""
    return rng.integers(0, values, (rows, dims)).astype(np.float64)


def _ties(rng):
    data = Dataset(_grid(rng, 260), name="grid")
    return data, data, dict(num_pivots=20)


def _coincident_pivots(rng):
    # 40 locations, each repeated: random pivots drawn from R coincide
    data = Dataset(np.repeat(rng.random((40, 3)), 8, axis=0), name="repeated")
    return data, data, dict(num_pivots=36)


def _few_pivots(rng):
    data = Dataset(rng.random((500, 2)), name="few")
    return data, data, dict(num_pivots=8)  # below 16: every pivot an anchor


def _distinct(rng):
    r = Dataset(_grid(rng, 150), ids=np.arange(5000, 5150), name="r")
    s = Dataset(rng.random((400, 3)) * 6.0, name="s")
    return r, s, dict(num_pivots=24)


def _skewed(rng):
    points = np.concatenate([rng.normal(0.0, 0.03, (300, 2)), rng.uniform(-3, 3, (150, 2))])
    data = Dataset(points, name="skewed")
    return data, data, dict(num_pivots=20)


WORLDS = {
    "ties-and-duplicates": _ties,
    "coincident-pivots": _coincident_pivots,
    "fewer-than-16-pivots": _few_pivots,
    "distinct-r-and-s": _distinct,
    "tight-cluster-2d": _skewed,
}


def world(name, metric):
    r, s, knobs = WORLDS[name](np.random.default_rng(len(name)))
    config = PgbjConfig(
        k=4, num_reducers=5, split_size=64, seed=9, metric_name=metric, **knobs, **env_params()
    )
    return r, s, config


def routed(r, s, config, mapper=None) -> dict:
    """One PGBJ run: per reduce key the ``(object id, role)`` rows it was
    handed, and the neighbour lists; ``mapper`` swaps the routing mapper."""
    swaps = {"PgbjJoinReducer": RecordingReducer}
    if mapper is not None:
        swaps["GroupRoutingMapper"] = mapper
    with ExitStack() as stack:
        for name, replacement in swaps.items():
            stack.enter_context(mock.patch.object(pgbj, name, replacement))
        plan = pgbj.plan_pgbj(r, s, config)
        run = execute_join_plan(JoinPlan(graph=plan.graph, assemble=lambda run: run), config)
    job = run.result_of(plan.graph.stages[-1])
    rows = {}
    for key, ids, roles in job.side_outputs[CHANNEL_COPIES]:
        rows[key] = sorted(zip(ids, roles))
    neighbors = {}
    for _, block in job.outputs:
        assert isinstance(block, NeighborBlock)
        for r_id, ids, dists in block.lists():
            neighbors[r_id] = dists
    return {"rows": rows, "neighbors": neighbors}


def s_copies(facts) -> set[tuple[int, int]]:
    return {(i, key) for key, rows in facts["rows"].items() for i, role in rows if role & ROLE_S}


@pytest.fixture(scope="module")
def runs():
    """Production and reference runs, once per (world, metric)."""
    cache = {}

    def get(name, metric):
        if (name, metric) not in cache:
            r, s, config = world(name, metric)
            cache[name, metric] = (
                routed(r, s, config),
                routed(r, s, config, PerCellRoutingMapper),
            )
        return cache[name, metric]

    return get


@pytest.mark.parametrize("metric", ("l1", "l2", "linf"))
@pytest.mark.parametrize("name", WORLDS)
class TestShippingRule:
    def test_copies_equal_the_object_by_object_reference(self, runs, name, metric):
        production, reference = runs(name, metric)
        assert production["rows"] == reference["rows"]

    def test_no_dropped_copy_is_a_true_neighbor(self, runs, name, metric):
        """Brute force: every S object within an R object's k-th distance,
        ties included, reaches the key the R object went to; the answers
        are the brute-force distances."""
        production, _ = runs(name, metric)
        r, s, config = world(name, metric)
        r_keys = {
            i: key for key, rows in production["rows"].items() for i, role in rows if role & ROLE_R
        }
        copies = s_copies(production)
        dists = get_metric(metric).cross_distances(r.points, s.points)
        kth = np.partition(dists, config.k - 1, axis=1)[:, config.k - 1]
        for row, r_id in enumerate(r.ids.tolist()):
            key = r_keys[r_id]
            needed = s.ids[dists[row] <= kth[row]].tolist()
            assert all((s_id, key) in copies for s_id in needed), (r_id, key)
            assert np.allclose(production["neighbors"][r_id], np.sort(dists[row])[: config.k])

    def test_a_self_join_row_stays_one_record(self, runs, name, metric):
        """An object's own cell always admits it: in a self-join, wherever
        it goes as R it goes as S too; R and S apart ship one role a row."""
        r, s, _ = world(name, metric)
        production, _ = runs(name, metric)
        for rows in production["rows"].values():
            both = [role & ROLE_S != 0 for _, role in rows if role & ROLE_R]
            assert all(both) if r is s else not any(both)


class TestRoutingMapper:
    def test_the_worlds_hold_what_they_are_named_for(self):
        r, _, config = world("coincident-pivots", "l2")
        _, pdm = make_pivot_selector(config).select_with_distances(
            r, config.num_pivots, get_metric("l2"), np.random.default_rng(config.seed)
        )
        assert (pdm[np.triu_indices(len(pdm), 1)] == 0).any()

    def test_the_hull_test_drops_copies_and_no_answer(self):
        """Against Theorem 5 alone (the hull test switched off), fewer
        copies and the same answers."""
        r, s, config = world("ties-and-duplicates", "l2")
        config = config.with_changes(engine="serial")  # workers would not see the patch
        with_hulls = routed(r, s, config)
        with mock.patch.object(
            pgbj, "anchor_range_gaps", lambda mids, reach, rows, *_: np.full(rows.shape, -np.inf)
        ):
            without = routed(r, s, config)
        assert s_copies(with_hulls) < s_copies(without)
        for r_id, dists in without["neighbors"].items():
            assert np.array_equal(with_hulls["neighbors"][r_id], dists)

    def test_any_pass_size_routes_the_same(self, monkeypatch):
        """The byte cap splits a round into passes without moving a copy."""
        r, s, config = world("distinct-r-and-s", "l2")
        config = config.with_changes(engine="serial")  # workers would not see the patch
        whole = routed(r, s, config)
        monkeypatch.setattr(pgbj, "_ROUTE_PAIRS", 1)
        assert routed(r, s, config)["rows"] == whole["rows"]
