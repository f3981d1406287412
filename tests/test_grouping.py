"""Unit tests for geometric and greedy grouping (Algorithm 4, Section 5.2) and
the replication-aware refinement that follows both."""

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import cell_anchor_hulls, compute_lb_matrix, compute_thetas
from repro.core.summary import build_partial_summary
from repro.grouping import (
    GeometricGrouping,
    GreedyGrouping,
    GroupAssignment,
    get_grouping_strategy,
)
from repro.grouping.refine import refine_groups, replica_counts


def grouped_world(seed=0, num_objects=400, num_pivots=24, k=3):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.random((num_objects, 3)))
    metric = get_metric("l2")
    pivots = data.points[rng.choice(num_objects, num_pivots, replace=False)]
    partitioner = VoronoiPartitioner(pivots, metric)
    assignment = partitioner.assign(data)
    tr = ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances)
    pdm = partitioner.pivot_distance_matrix()
    thetas = compute_thetas(tr, ts, pdm, k)
    lb = compute_lb_matrix(tr, pdm, thetas)
    return tr, ts, pdm, lb


class TestGroupAssignment:
    def test_reverse_map(self):
        assignment = GroupAssignment.from_groups([[1, 3], [2]])
        assert assignment.group_of(3) == 0
        assert assignment.group_of(2) == 1
        assert assignment.num_groups == 2

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="two groups"):
            GroupAssignment.from_groups([[1], [1]])

    def test_validate_covers(self):
        assignment = GroupAssignment.from_groups([[1], [2]])
        assignment.validate_covers([1, 2])
        with pytest.raises(ValueError):
            assignment.validate_covers([1, 2, 3])


@pytest.mark.parametrize("strategy_name", ["geometric", "greedy"])
class TestBothStrategies:
    def test_partition_of_r_into_disjoint_groups(self, strategy_name):
        tr, ts, pdm, lb = grouped_world()
        strategy = get_grouping_strategy(strategy_name)
        assignment = strategy.group(tr, ts, pdm, lb, num_groups=5)
        assert assignment.num_groups == 5
        grouped = sorted(pid for group in assignment.groups for pid in group)
        assert grouped == tr.partition_ids()

    def test_every_group_non_empty(self, strategy_name):
        tr, ts, pdm, lb = grouped_world()
        assignment = get_grouping_strategy(strategy_name).group(tr, ts, pdm, lb, 5)
        assert all(group for group in assignment.groups)

    def test_single_group(self, strategy_name):
        tr, ts, pdm, lb = grouped_world()
        assignment = get_grouping_strategy(strategy_name).group(tr, ts, pdm, lb, 1)
        assert assignment.num_groups == 1
        assert sorted(assignment.groups[0]) == tr.partition_ids()

    def test_more_groups_than_partitions(self, strategy_name):
        tr, ts, pdm, lb = grouped_world(num_pivots=4)
        assignment = get_grouping_strategy(strategy_name).group(tr, ts, pdm, lb, 10)
        non_empty = [g for g in assignment.groups if g]
        assert len(non_empty) == len(tr.partition_ids())
        assert all(len(g) == 1 for g in non_empty)

    def test_deterministic(self, strategy_name):
        tr, ts, pdm, lb = grouped_world(seed=9)
        a = get_grouping_strategy(strategy_name).group(tr, ts, pdm, lb, 6)
        b = get_grouping_strategy(strategy_name).group(tr, ts, pdm, lb, 6)
        assert a.groups == b.groups


class TestGeometricBalancing:
    def test_group_sizes_nearly_equal(self):
        """Table 3's shape: geometric grouping balances object counts."""
        tr, ts, pdm, lb = grouped_world(num_objects=1000, num_pivots=40)
        assignment = GeometricGrouping().group(tr, ts, pdm, lb, 8)
        sizes = assignment.group_sizes(tr)
        assert sizes.std() / sizes.mean() < 0.35

    def test_seeds_are_far_apart(self):
        tr, ts, pdm, lb = grouped_world(num_objects=600, num_pivots=30)
        assignment = GeometricGrouping().group(tr, ts, pdm, lb, 4)
        seeds = [group[0] for group in assignment.groups]
        for i in range(len(seeds)):
            for j in range(i + 1, len(seeds)):
                assert pdm[seeds[i], seeds[j]] > 0


class TestGreedyReplication:
    def test_greedy_replicates_no_more_than_geometric(self):
        """Figure 7(b)'s shape: greedy grouping trims estimated replication."""
        from repro.core.bounds import group_lb_matrix
        from repro.grouping.cost_model import approx_replication

        tr, ts, pdm, lb = grouped_world(num_objects=1200, num_pivots=48, seed=11)
        reps = {}
        for strategy in (GeometricGrouping(), GreedyGrouping()):
            assignment = strategy.group(tr, ts, pdm, lb, 6)
            lbg = group_lb_matrix(lb, assignment.groups)
            reps[strategy.name] = approx_replication(lbg, ts)
        assert reps["greedy"] <= reps["geometric"] * 1.05

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown grouping"):
            get_grouping_strategy("spectral")


def anchored_world(seed=0, num_objects=500, num_pivots=30, k=4, distinct=False):
    """A grid world with ties and duplicates, summarised as the partitioning
    job does: both tables with anchor hulls.  ``distinct`` draws S apart
    from R."""
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 7, (num_objects, 3)).astype(np.float64)
    s = rng.integers(0, 7, (num_objects + 37, 3)).astype(np.float64) if distinct else r
    metric = get_metric("l2")
    partitioner = VoronoiPartitioner(r[rng.choice(num_objects, num_pivots, replace=False)], metric)
    r_pids, r_dists, r_anchor = partitioner.assign_points(r)
    s_pids, s_dists, s_anchor = partitioner.assign_points(s)
    tr = build_partial_summary(r_pids, r_dists, anchor_dists=r_anchor)
    ts = build_partial_summary(s_pids, s_dists, anchor_dists=s_anchor)
    pdm = partitioner.pivot_distance_matrix()
    thetas = compute_thetas(tr, ts, pdm, k)
    return {
        "tr": tr,
        "ts": ts,
        "pdm": pdm,
        "thetas": thetas,
        "lb": compute_lb_matrix(tr, pdm, thetas),
        "s_cells": (s_pids, s_dists, s_anchor),
        "code_anchors": partitioner.anchor_index()[0],
    }


def grouped_copies(copies, groups):
    """The refinement's objective: ``sum_G sum_j max_{i in G} c[j, i]``."""
    return int(sum(copies[:, members].max(axis=1).sum() for members in groups if members))


def world_copies(world, hulls=True):
    """:func:`replica_counts` of a world; ``hulls=False`` gives the S table
    no anchors, which turns the hull term off."""
    num_pivots = len(world["pdm"])
    r_hulls = cell_anchor_hulls(world["tr"], num_pivots)
    no_anchors = (np.empty((0, num_pivots)),) * 2
    s_hulls = cell_anchor_hulls(world["ts"], num_pivots) if hulls else no_anchors
    return replica_counts(world["lb"], world["thetas"], world["ts"], r_hulls, s_hulls)


REFINE_WORLDS = [
    dict(seed=seed, distinct=distinct, strategy=strategy)
    for seed in (0, 1, 2)
    for distinct in (False, True)
    for strategy in ("geometric", "greedy")
] + [dict(world="swap")]


def swap_world():
    """Two groups of two equal R loads, so any single move breaks the cap:
    cells 0 and 3 each need all of S cell 0, cells 1 and 2 all of S cell 1,
    and each group holds one of each — 20 copies, where a swap that pairs
    the cells of one S cell leaves 10."""
    tr = build_partial_summary(np.repeat(np.arange(4), 10), np.zeros(40))
    copies = np.zeros((4, 4), dtype=np.int32)
    copies[0, [0, 3]] = copies[1, [1, 2]] = 5
    return {"tr": tr}, copies, GroupAssignment.from_groups([[0, 1], [2, 3]])


def moves_only(before, copies, tr):
    """The refinement with its swaps switched off."""
    from repro.grouping import refine

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "_swaps", lambda state: 0)
        return refine_groups(before, copies, tr)


def refined(case, num_groups=5):
    if case.get("world") == "swap":
        world, copies, before = swap_world()
    else:
        world = anchored_world(seed=case["seed"], distinct=case["distinct"])
        strategy = get_grouping_strategy(case["strategy"])
        before = strategy.group(world["tr"], world["ts"], world["pdm"], world["lb"], num_groups)
        copies = world_copies(world)
    return world, copies, before, refine_groups(before, copies, world["tr"])


@pytest.mark.parametrize("case", REFINE_WORLDS, ids=lambda case: "-".join(map(str, case.values())))
class TestRefinement:
    def test_a_cover_of_the_same_cells(self, case):
        world, _, before, after = refined(case)
        assert after.num_groups == before.num_groups
        after.validate_covers(world["tr"].partition_ids())
        assert all(after.groups)

    def test_never_raises_the_largest_r_load(self, case):
        world, _, before, after = refined(case)
        assert after.group_sizes(world["tr"]).max() <= before.group_sizes(world["tr"]).max()

    def test_never_raises_the_modelled_count(self, case):
        world, copies, before, after = refined(case)
        alone = moves_only(before, copies, world["tr"])
        assert grouped_copies(copies, alone.groups) <= grouped_copies(copies, before.groups)
        assert grouped_copies(copies, after.groups) <= grouped_copies(copies, alone.groups)
        if case.get("world") == "swap":
            # no move fits under the cap; a swap saves half
            assert alone.groups == before.groups
            assert grouped_copies(copies, after.groups) == 10

    def test_the_same_groups_on_a_second_call(self, case):
        world, copies, before, after = refined(case)
        assert refine_groups(before, copies, world["tr"]).groups == after.groups


class TestReplicationModel:
    def test_the_moves_cut_the_count(self):
        falls = [
            grouped_copies(copies, after.groups) < grouped_copies(copies, before.groups)
            for _, copies, before, after in map(refined, REFINE_WORLDS)
        ]
        assert sum(falls) >= len(falls) // 2

    @pytest.mark.parametrize("distinct", [False, True])
    def test_without_hulls_the_model_is_theorem_6s_copy_count(self, distinct):
        """Group by group, the hull-free model counts exactly the copies the
        object-by-object shipping rule makes with its hull test off."""
        from repro.core.geometry import anchor_codes
        from repro.mapreduce.types import ROLE_S, RecordBlock
        from tests.reference_pgbj import shipping_rule

        world = anchored_world(seed=4, distinct=distinct)
        tr, pdm, num_pivots = world["tr"], world["pdm"], len(world["pdm"])
        assignment = GeometricGrouping().group(tr, world["ts"], pdm, world["lb"], 4)
        anchors = world["code_anchors"]
        cache = {
            "pivot_dist_matrix": pdm,
            "uppers": dict(zip(tr.partition_ids(), tr.upper.tolist())),
            "thetas": world["thetas"],
            "code_anchors": anchors,
            "anchor_hulls": (
                np.full((anchors.size, num_pivots), -np.inf),
                np.full((anchors.size, num_pivots), np.inf),
            ),
        }
        s_pids, s_dists, s_anchor = world["s_cells"]
        shipped = 0
        for pid in np.unique(s_pids).tolist():
            rows = np.flatnonzero(s_pids == pid)
            cell = RecordBlock.of_objects(ROLE_S, rows, np.zeros((rows.size, 1)))
            cell.partition_ids = s_pids[rows]
            cell.pivot_distances = s_dists[rows]
            cell.anchor_codes = anchor_codes(
                s_anchor[rows], s_pids[rows], s_dists[rows], pdm[anchors]
            )
            admits = shipping_rule(cache, pid, cell)
            shipped += sum(
                any(admits(row, i) for i in members)
                for members in assignment.groups
                for row in range(rows.size)
            )
        copies = world_copies(world, hulls=False)
        assert grouped_copies(copies, assignment.groups) == shipped
        assert grouped_copies(world_copies(world), assignment.groups) <= shipped

    def test_a_partitioner_without_anchors(self):
        world = anchored_world(seed=5)
        none = (np.empty((0, len(world["pdm"]))),) * 2
        copies = replica_counts(world["lb"], world["thetas"], world["ts"], none, none)
        np.testing.assert_array_equal(copies, world_copies(world, hulls=False))


class TestRefinedJoins:
    """Join answers equal brute force where the refinement moved cells."""

    @pytest.fixture
    def moves(self, monkeypatch):
        """Per join, whether the refinement moved cells, and whether its
        swaps left other groups than the moves alone would have."""
        from repro.joins import pgbj

        made = []

        def recording(assignment, copies, tr):
            refined_assignment = refine_groups(assignment, copies, tr)
            made.append((
                refined_assignment.groups != assignment.groups,
                refined_assignment.groups != moves_only(assignment, copies, tr).groups,
            ))
            return refined_assignment

        monkeypatch.setattr(pgbj, "refine_groups", recording)
        return made

    def test_r_and_s_distinct(self, moves):
        from repro.joins import PgbjConfig, run_join
        from tests.conftest import ground_truth

        rng = np.random.default_rng(3)
        r = Dataset(rng.integers(0, 9, (300, 3)).astype(np.float64), ids=np.arange(900, 1200))
        s = Dataset(rng.random((450, 3)) * 9.0)
        outcome = run_join("pgbj", r, s, PgbjConfig(k=4, num_pivots=30, num_reducers=5))
        assert moves == [(True, True)]
        assert outcome.result.same_distances_as(ground_truth(r, s, 4))

    def test_a_dense_cluster(self, moves):
        from repro.joins import PgbjConfig, run_join
        from tests.conftest import ground_truth

        rng = np.random.default_rng(5)
        points = np.concatenate([rng.normal(0.0, 0.03, (400, 2)), rng.uniform(-3, 3, (200, 2))])
        data = Dataset(points)
        outcome = run_join("pgbj", data, data, PgbjConfig(k=5, num_pivots=30, num_reducers=5))
        assert moves == [(True, True)]
        assert outcome.result.same_distances_as(ground_truth(data, data, 5))
