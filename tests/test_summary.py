"""Unit tests for the summary tables T_R / T_S."""

import numpy as np
import pytest

from repro.core.summary import PartitionStat, SummaryTable, build_partial_summary


class TestBuildPartial:
    def test_counts_lower_upper(self):
        pids = np.array([0, 0, 1, 0])
        dists = np.array([2.0, 5.0, 1.0, 3.0])
        table = build_partial_summary(pids, dists, k=0)
        row = table.get(0)
        assert row.count == 3
        assert row.lower == 2.0
        assert row.upper == 5.0
        assert table.get(1).count == 1

    def test_knn_distances_kept_ascending(self):
        pids = np.zeros(5, dtype=int)
        dists = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        table = build_partial_summary(pids, dists, k=3)
        assert table.get(0).knn_distances == (1.0, 2.0, 3.0)

    def test_knn_distances_empty_for_tr(self):
        table = build_partial_summary(np.zeros(3, dtype=int), np.ones(3), k=0)
        assert table.get(0).knn_distances == ()

    def test_fewer_objects_than_k(self):
        table = build_partial_summary(np.zeros(2, dtype=int), np.array([2.0, 1.0]), k=5)
        assert table.get(0).knn_distances == (1.0, 2.0)


class TestMerge:
    def test_merge_two_partials(self):
        left = build_partial_summary(np.array([0, 0]), np.array([1.0, 4.0]), k=2)
        right = build_partial_summary(np.array([0]), np.array([2.0]), k=2)
        left.merge(right)
        row = left.get(0)
        assert row.count == 3
        assert row.lower == 1.0
        assert row.upper == 4.0
        assert row.knn_distances == (1.0, 2.0)

    def test_merge_disjoint_partitions(self):
        left = build_partial_summary(np.array([0]), np.array([1.0]), k=1)
        right = build_partial_summary(np.array([3]), np.array([2.0]), k=1)
        left.merge(right)
        assert left.partition_ids() == [0, 3]

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(0)
        pids = rng.integers(0, 5, 200)
        dists = rng.random(200)
        whole = build_partial_summary(pids, dists, k=4)
        merged = SummaryTable(k=4)
        for chunk in range(4):
            lo, hi = chunk * 50, (chunk + 1) * 50
            merged.merge(build_partial_summary(pids[lo:hi], dists[lo:hi], k=4))
        for pid in whole.partition_ids():
            a, b = whole.get(pid), merged.get(pid)
            assert a.count == b.count
            assert a.lower == b.lower
            assert a.upper == b.upper
            assert a.knn_distances == b.knn_distances

    def test_row_merge_rejects_different_partitions(self):
        a = PartitionStat(0, 1, 0.0, 1.0)
        b = PartitionStat(1, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            a.merged_with(b, k=0)


class TestTableApi:
    def test_contains_and_len(self):
        table = build_partial_summary(np.array([0, 2]), np.array([1.0, 2.0]), k=0)
        assert 0 in table and 2 in table and 1 not in table
        assert len(table) == 2

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            SummaryTable().get(0)

    def test_counts_dense(self):
        table = build_partial_summary(np.array([1, 1, 3]), np.ones(3), k=0)
        assert table.counts(5).tolist() == [0, 2, 0, 1, 0]

    def test_upper_of(self):
        table = build_partial_summary(np.array([0, 0]), np.array([1.0, 9.0]), k=0)
        assert table.upper_of(0) == 9.0

    def test_estimated_bytes_grows_with_knn_list(self):
        small = build_partial_summary(np.zeros(5, dtype=int), np.arange(5.0), k=0)
        big = build_partial_summary(np.zeros(5, dtype=int), np.arange(5.0), k=5)
        assert big.estimated_bytes() > small.estimated_bytes()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            SummaryTable(k=-1)


def masked_summary(pids, dists, k):
    """The per-cell build this module's one-pass build replaced: one boolean
    mask over the whole split per cell."""
    table = SummaryTable(k=k)
    for pid in np.unique(pids):
        cell = dists[pids == pid]
        knn = tuple(np.sort(cell)[:k].tolist()) if k else ()
        low, high = float(cell.min()), float(cell.max())
        table.add(PartitionStat(int(pid), int(cell.size), low, high, knn))
    return table


def rows_of(table):
    return [
        (row.partition_id, row.count, row.lower, row.upper, row.knn_distances)
        for row in table.rows()
    ]


class TestOnePassBuild:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", (0, 1, 3, 1000))
    def test_equals_the_masked_build(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 400))
        pids = rng.integers(0, int(rng.integers(1, 40)), rows)
        # repeated distances: ties inside a cell
        dists = rng.integers(0, 50, rows) / 7.0
        assert rows_of(build_partial_summary(pids, dists, k)) == rows_of(
            masked_summary(pids, dists, k)
        )
        order = np.argsort(pids, kind="stable")  # the partitioning mapper's rows
        assert rows_of(build_partial_summary(pids[order], dists[order], k)) == rows_of(
            masked_summary(pids, dists, k)
        )

    def test_empty_split(self):
        assert len(build_partial_summary(np.array([], dtype=int), np.array([]))) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_anchor_hulls_are_the_cells_extremes(self, seed):
        rng = np.random.default_rng(seed)
        pids = rng.integers(0, 12, 300)
        dists = rng.random(300)
        anchor_dists = rng.random((300, 5))
        table = build_partial_summary(pids, dists, anchor_dists=anchor_dists)
        for row in table.rows():
            members = anchor_dists[pids == row.partition_id]
            assert np.array_equal(row.anchor_hull[0], members.min(axis=0))
            assert np.array_equal(row.anchor_hull[1], members.max(axis=0))
        assert rows_of(table) == rows_of(masked_summary(pids, dists, 0))
        assert build_partial_summary(pids, dists).get(int(pids[0])).anchor_hull is None

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
            merged = SummaryTable(k=0)
            for index in rng.permutation(len(partials)):
                merged.merge(partials[index])
            for row in whole.rows():
                other = merged.get(row.partition_id)
                assert (other.count, other.lower, other.upper) == (row.count, row.lower, row.upper)
                assert np.array_equal(other.anchor_hull, row.anchor_hull)
