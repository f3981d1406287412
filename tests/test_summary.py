"""Unit tests for the summary tables T_R / T_S."""

import tracemalloc

import numpy as np
import pytest

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.summary import SummaryTable, build_partial_summary, merge_partial_summaries


def masked_summary(pids, dists, anchor_dists=None):
    """The brute-force per-cell build: one boolean mask over all rows per
    cell, as plain columns."""
    cells = np.unique(pids)
    masks = [pids == cell for cell in cells]
    members = [dists[mask] for mask in masks]
    columns = {
        "cells": cells.tolist(),
        "counts": [int(mask.sum()) for mask in masks],
        "lower": [float(member.min()) for member in members],
        "upper": [float(member.max()) for member in members],
        "runs": [np.sort(member).tolist() for member in members],
        "hulls": None,
    }
    if anchor_dists is not None:
        columns["hulls"] = [
            [anchor_dists[mask].min(axis=0).tolist(), anchor_dists[mask].max(axis=0).tolist()]
            for mask in masks
        ]
    return columns


def columns_of(table: SummaryTable):
    """A table's columns in :func:`masked_summary`'s form."""
    ends = table.offsets.tolist()
    return {
        "cells": table.partition_ids(),
        "counts": table.counts.tolist(),
        "lower": table.lower.tolist(),
        "upper": table.upper.tolist(),
        "runs": [table.distances[lo:hi].tolist() for lo, hi in zip(ends, ends[1:])],
        "hulls": None if table.hulls is None else table.hulls.transpose(2, 0, 1).tolist(),
    }


class TestBuildPartial:
    def test_counts_lower_upper(self):
        table = build_partial_summary(np.array([0, 0, 1, 0]), np.array([2.0, 5.0, 1.0, 3.0]))
        assert table.partition_ids() == [0, 1]
        assert table.counts.tolist() == [3, 1]
        assert table.lower.tolist() == [2.0, 1.0]
        assert table.upper.tolist() == [5.0, 1.0]

    def test_distances_kept_ascending(self):
        table = build_partial_summary(np.zeros(5, dtype=int), np.array([5.0, 1.0, 3.0, 2.0, 4.0]))
        assert table.offsets.tolist() == [0, 5]
        assert table.distances.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestTableApi:
    def test_cells_and_len(self):
        table = build_partial_summary(np.array([2, 0]), np.array([1.0, 2.0]))
        assert table.partition_ids() == [0, 2] and len(table) == 2


class TestOnePassBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_masked_build(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 400))
        pids = rng.integers(0, int(rng.integers(1, 40)), rows)
        # repeated distances: ties inside a cell
        dists = rng.integers(0, 50, rows) / 7.0
        anchor_dists = rng.integers(0, 9, (rows, 3)) / 3.0
        expected = masked_summary(pids, dists, anchor_dists)
        assert columns_of(build_partial_summary(pids, dists, anchor_dists=anchor_dists)) == expected
        order = np.argsort(pids, kind="stable")  # the partitioning mapper's rows
        assert columns_of(
            build_partial_summary(pids[order], dists[order], anchor_dists=anchor_dists[order])
        ) == expected
        assert build_partial_summary(pids, dists).hulls is None

    def test_empty_split(self):
        table = build_partial_summary(
            np.array([], dtype=int), np.array([]), anchor_dists=np.empty((0, 4))
        )
        assert len(table) == 0 and table.offsets.tolist() == [0]
        assert table.hulls.shape == (2, 4, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_anchor_hulls_are_the_cells_extremes(self, seed):
        rng = np.random.default_rng(seed)
        pids = rng.integers(0, 12, 300)
        dists = rng.random(300)
        anchor_dists = rng.random((300, 5))
        table = build_partial_summary(pids, dists, anchor_dists=anchor_dists)
        for n, cell in enumerate(table.partition_ids()):
            members = anchor_dists[pids == cell]
            assert np.array_equal(table.hulls[0, :, n], members.min(axis=0))
            assert np.array_equal(table.hulls[1, :, n], members.max(axis=0))
        assert columns_of(table) == masked_summary(pids, dists, anchor_dists)
        assert build_partial_summary(pids, dists).hulls is None

    @pytest.mark.parametrize("seed", range(4))
    def test_merging_partials_in_any_order_gives_the_same_hulls(self, seed):
        rng = np.random.default_rng(seed)
        pids = rng.integers(0, 9, 400)
        dists = rng.random(400)
        anchor_dists = rng.random((400, 3))
        whole = build_partial_summary(pids, dists, anchor_dists=anchor_dists)
        cuts = np.sort(rng.choice(np.arange(1, 400), 5, replace=False))
        partials = [
            build_partial_summary(p, d, anchor_dists=a)
            for p, d, a in zip(*(np.split(x, cuts) for x in (pids, dists, anchor_dists)))
        ]
        for _ in range(4):
            merged = merge_partial_summaries(partials[n] for n in rng.permutation(len(partials)))
            assert np.array_equal(merged.cells, whole.cells)
            assert np.array_equal(merged.counts, whole.counts)
            assert np.array_equal(merged.lower, whole.lower)
            assert np.array_equal(merged.upper, whole.upper)
            assert np.array_equal(merged.hulls, whole.hulls)


def random_world(seed):
    """Rows with ties, one-row cells and (sometimes) a cell in one partial."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 300))
    pids = rng.integers(0, int(rng.integers(1, 60)), rows)
    dists = rng.integers(0, 20, rows) / 3.0
    return pids, dists, rng.random((rows, 4))


#: explicit partials (cells, distances): two partials of one cell, disjoint
#: cells, and an empty partial among tied distances
FIXED_PARTIALS = [
    [([0, 0], [1.0, 4.0]), ([0], [2.0])],
    [([0], [1.0]), ([3], [2.0])],
    [([2, 2], [1.5, 1.5]), ([], []), ([2, 5], [1.5, 0.0])],
]


def cut(rng, rows, parts):
    """Rows shuffled and cut at random points, and one empty partial."""
    pieces = np.split(rng.permutation(rows), np.sort(rng.integers(0, rows + 1, parts - 1)))
    return [*pieces, pieces[0][:0]]


class TestMerge:
    """Merging partials in any order equals the brute-force build of all
    their rows."""

    @pytest.mark.parametrize("hulls", [True, False])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_partials_in_any_order(self, seed, hulls):
        pids, dists, anchor_dists = random_world(seed)
        rng = np.random.default_rng(seed + 100)
        partials = [
            build_partial_summary(
                pids[rows], dists[rows], anchor_dists=anchor_dists[rows] if hulls else None
            )
            for rows in cut(rng, pids.size, int(rng.integers(1, 9)))
        ]
        expected = masked_summary(pids, dists, anchor_dists if hulls else None)
        for _ in range(3):
            order = rng.permutation(len(partials))
            assert columns_of(merge_partial_summaries(partials[n] for n in order)) == expected

    @pytest.mark.parametrize("case", range(len(FIXED_PARTIALS)))
    def test_fixed_partials(self, case):
        pieces = [(np.array(p), np.array(d)) for p, d in FIXED_PARTIALS[case]]
        partials = [build_partial_summary(p, d) for p, d in pieces]
        pids, dists = (np.concatenate(column) for column in zip(*pieces))
        for order in (partials, partials[::-1]):
            assert columns_of(merge_partial_summaries(order)) == masked_summary(pids, dists)

    def test_nothing_to_merge(self):
        assert len(merge_partial_summaries([])) == 0

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(0)
        pids = rng.integers(0, 5, 200)
        dists = rng.random(200)
        whole = build_partial_summary(pids, dists)
        chunks = [slice(lo, lo + 50) for lo in range(0, 200, 50)]
        merged = merge_partial_summaries(
            build_partial_summary(pids[chunk], dists[chunk]) for chunk in chunks
        )
        assert columns_of(merged) == columns_of(whole)

    def test_merging_stacks_no_copy_of_the_hulls(self):
        """The partials' hulls are folded into the output a partial at a
        time: the merge's traced peak stays under the bytes of all the
        partials' hulls, which stacking them once would already reach (40
        partials of 700 of 1 600 cells and 16 anchors, a 40k Forest join's
        shape; stacked and gathered they peaked at 2.2 times that)."""
        rng = np.random.default_rng(5)
        partials = []
        for _ in range(40):
            pids = np.sort(rng.choice(1600, 700, replace=False))
            partials.append(
                build_partial_summary(pids, rng.random(700), anchor_dists=rng.random((700, 16)))
            )
        stacked = sum(table.hulls.nbytes for table in partials)
        tracemalloc.start()
        try:
            merged = merge_partial_summaries(partials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.hulls.shape == (2, 16, len(merged))
        assert peak < stacked / 2

    def test_hulls_merged_only_when_every_partial_has_them(self):
        with_hulls = build_partial_summary(
            np.array([0, 1]), np.ones(2), anchor_dists=np.ones((2, 3))
        )
        without = build_partial_summary(np.array([1]), np.zeros(1))
        assert merge_partial_summaries([with_hulls, with_hulls]).hulls.shape == (2, 3, 2)
        for order in ([with_hulls, without], [without, with_hulls]):
            merged = merge_partial_summaries(order)
            assert merged.hulls is None
            expected = masked_summary(np.array([0, 1, 1]), np.array([1.0, 1.0, 0.0]))
            assert columns_of(merged) == expected

    def test_merging_merged_tables(self):
        """Index merging is associative: merging partial merges equals one
        merge of every partial."""
        pids, dists, anchor_dists = random_world(5)
        rng = np.random.default_rng(5)
        partials = [
            build_partial_summary(pids[rows], dists[rows], anchor_dists=anchor_dists[rows])
            for rows in cut(rng, pids.size, 6)
        ]
        halves = [merge_partial_summaries(partials[:3]), merge_partial_summaries(partials[3:])]
        assert columns_of(merge_partial_summaries(halves)) == columns_of(
            merge_partial_summaries(partials)
        )

    @pytest.mark.parametrize("self_join", [True, False])
    @pytest.mark.parametrize("split_size", [7, 64, 4096])
    def test_the_partitioning_jobs_tables(self, self_join, split_size):
        """``T_R`` and ``T_S`` as the partitioning job merges them, a self-join's
        ``T_S`` and an R != S join's both with hulls: the brute-force build
        of each role's rows."""
        from repro.joins import JoinConfig
        from repro.joins.partition_job import merge_summaries, run_partitioning_job

        rng = np.random.default_rng(split_size)
        r = Dataset(rng.integers(0, 6, (150, 2)).astype(float), name="r")
        s = r if self_join else Dataset(rng.integers(0, 6, (170, 2)).astype(float), name="s")
        pivots = rng.random((9, 2)) * 6
        config = JoinConfig(k=3, split_size=split_size)
        with config.make_runtime() as runtime:
            result = run_partitioning_job(r, s, pivots, config, runtime)
        tables = merge_summaries(result)[:2]
        partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
        for table, data in zip(tables, (r, s)):
            pids, dists, anchor_dists = partitioner.assign_points(data.points)
            assert columns_of(table) == masked_summary(pids, dists, anchor_dists)
