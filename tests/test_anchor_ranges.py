"""Cell anchor ranges: a reducer judges each (row, cell) pair by the ranges of
the cell's decoded anchor codes before it pays for ``|r, p_j|``.

The guarantees under test:

* whenever the rule rejects a (row, cell) pair, the per-pair code filter
  ``_codes_admit`` rejects every member of that cell at the same theta, at
  every scale up to 1e12 and with theta a few ulps either side of the gap;
  so the rule never hands a scan fewer pairs than the filter would compute;
* the gap never exceeds the distance from the row to a member of the cell;
* the gap is evaluated an anchor at a time: its memory is per pair, not per
  pair and anchor;
* :func:`knn_join_kernel` is pair-equal to :func:`knn_join_kernel_reference`
  (``tests/reference_oracle.py``)
  with 13 codes, every pivot an anchor, coincident twin pivots, duplicate
  points and PBJ's ``theta = inf``;
* on pinned worlds and joins the scans compute the same pairs as before the
  rule, and only the object-pivot pairs fall;
* on collinear worlds at 1e9-1e12 the rule never rejects a cell that holds a
  member within theta.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_metric
from repro.core.geometry import PRUNE_EPS, anchor_range_gaps, anchor_ranges, anchor_reach
from repro.datasets import generate_forest
from repro.joins import get_join, kernels, run_join
from repro.joins.kernels import _codes_admit, knn_join_kernel, local_ring_stats
from tests.test_anchor_codes import coded, collinear_world
from tests.test_kernels import (
    assert_matches_reference,
    kernel_world,
    pairs_by_kind,
    replace_world,
    run_counting_pivots,
    world_from,
)


def cells_of(points, pivots, metric_name):
    """``points`` decoded as the partitioning job ships them, grouped by cell:
    ``(mids, radius, offsets)`` with the rows in cell order."""
    pids, _, _, _, _, (mids, radius) = coded(points, pivots, metric_name)
    order = np.argsort(pids, kind="stable")
    starts = np.flatnonzero(np.diff(pids[order], prepend=-1))
    return mids[:, order], radius[order], np.append(starts, len(points)), order


def every_pair(num_rows, num_cells):
    rows, cells = np.divmod(np.arange(num_rows * num_cells), num_cells)
    return rows, cells


@st.composite
def ranged_worlds(draw):
    """R and S at any scale up to 1e12: uniform, on a coarse grid, drawn from
    the pivots, on one line through a pivot, or one side 1e8 times farther
    out than the other (so the rounding of one side's mids dwarfs the other's
    ends); l1, l2 or l-infinity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from((1, 2, 3, 10)))
    scale = 10.0 ** draw(st.integers(0, 12))
    pivots = rng.random((draw(st.integers(1, 20)), dims)) * scale
    sizes = draw(st.integers(1, 30)), draw(st.integers(1, 60))
    shape = draw(st.sampled_from(("uniform", "grid", "pivots", "line", "far r", "far s")))
    sides = []
    for size in sizes:
        points = rng.random((size, dims)) * scale
        if shape == "grid":
            points = np.round(points / scale * 3) * scale / 3
        elif shape == "pivots":
            points = pivots[rng.integers(0, len(pivots), size)]
        elif shape == "line":
            points = pivots[0] + np.outer(rng.integers(0, 30, size), pivots[-1] - pivots[0])
        sides.append(points)
    if shape.startswith("far"):
        sides[shape == "far s"] += 1e8 * scale
    ulps = draw(st.integers(-3, 3))
    return sides[0], sides[1], pivots, draw(st.sampled_from(("l1", "l2", "linf"))), ulps


class TestRule:
    @given(ranged_worlds())
    @settings(max_examples=200, deadline=None)
    def test_a_rejected_cell_fails_the_code_filter_for_every_member(self, world):
        """Theta sits a few ulps either side of each pair's gap (less
        ``PRUNE_EPS``), where rounding would decide; a rejected pair's every
        member still fails the code filter, and no gap exceeds a distance."""
        r_points, s_points, pivots, metric_name, ulps = world
        _, _, _, _, _, (r_mids, r_radius) = coded(r_points, pivots, metric_name)
        s_mids, s_radius, offsets, order = cells_of(s_points, pivots, metric_name)
        rows, cells = every_pair(len(r_points), len(offsets) - 1)
        gaps = anchor_range_gaps(
            r_mids, anchor_reach(r_mids, r_radius), rows,
            *anchor_ranges(s_mids, s_radius, offsets), cells,
        )
        thetas = np.maximum(gaps - PRUNE_EPS, 0.0)
        for _ in range(abs(ulps)):
            thetas = np.nextafter(thetas, np.sign(ulps) * np.inf)
        dists = get_metric(metric_name).cross_distances(r_points, s_points[order])
        for row, cell, gap, theta in zip(rows, cells, gaps, thetas):
            members = slice(offsets[cell], offsets[cell + 1])
            assert gap <= dists[row, members].min()
            if gap > theta + PRUNE_EPS:
                limit = theta + r_radius[row] + s_radius[members]
                assert not _codes_admit(r_mids[:, row, None], s_mids[:, members], limit).any()

    def test_the_ranges_and_gap_by_hand(self):
        """Two anchors; cell 0 holds objects 0-1, cell 1 object 2.  A gap is
        the largest over the anchors and the two sides, and the ends move
        out by their rounding slack only."""
        mids = np.array([[1.0, 3.0, 10.0], [5.0, 5.0, 5.0]])
        radius = np.array([0.5, 0.25, 1.0])
        lo, hi = anchor_ranges(mids, radius, np.array([0, 2, 3]))
        exact_lo, exact_hi = [[0.5, 9.0], [4.5, 4.0]], [[3.25, 11.0], [5.5, 6.0]]
        assert np.allclose(lo, exact_lo) and np.allclose(hi, exact_hi)
        assert (lo < exact_lo).all() and (hi > exact_hi).all()
        rows, cells = np.array([0, 0, 1]), np.array([0, 1, 1])
        r_mids, r_radius = np.array([[6.0, 10.0], [5.0, 5.0]]), np.array([0.5, 0.5])
        gaps = anchor_range_gaps(r_mids, anchor_reach(r_mids, r_radius), rows, lo, hi, cells)
        assert np.allclose(gaps, [6.0 - 3.25 - 0.5, 9.0 - 6.0 - 0.5, 4.0 - 5.0 - 0.5])

    def test_the_gap_takes_memory_per_pair_not_per_pair_and_anchor(self):
        """13 anchors over 200 000 pairs: a ``(C, pairs)`` temporary would
        take 20.8 MB; the running maximum stays within a few per-pair arrays."""
        rng = np.random.default_rng(5)
        anchors, pairs = 13, 200_000
        mids = rng.random((anchors, 500)) * 100
        radius = rng.random(500)
        lo, hi = anchor_ranges(mids, radius, np.arange(0, 501, 5))
        rows, cells = rng.integers(0, 500, pairs), rng.integers(0, 100, pairs)
        reach = anchor_reach(mids, radius)
        tracemalloc.start()
        try:
            anchor_range_gaps(mids, reach, rows, lo, hi, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * pairs

    @pytest.mark.parametrize("extra_pivots", (0, 10), ids=("3-anchors", "13-anchors"))
    @pytest.mark.parametrize("seed", range(20))
    def test_no_cell_holding_a_member_within_theta_is_rejected_on_collinear_worlds(
        self, seed, extra_pivots
    ):
        """Each (row, cell) pair passes at theta = the distance to its nearest
        member, so no theta a row can hold rejects a cell it needs."""
        r_points, s_points, pivots, metric_name = collinear_world(seed, extra_pivots)
        _, _, _, _, _, (r_mids, r_radius) = coded(r_points, pivots, metric_name)
        s_mids, s_radius, offsets, order = cells_of(s_points, pivots, metric_name)
        rows, cells = every_pair(len(r_points), len(offsets) - 1)
        gaps = anchor_range_gaps(
            r_mids, anchor_reach(r_mids, r_radius), rows,
            *anchor_ranges(s_mids, s_radius, offsets), cells,
        )
        dists = get_metric(metric_name).cross_distances(r_points, s_points[order])
        nearest = np.minimum.reduceat(dists, offsets[:-1], axis=1)
        assert (gaps <= nearest[rows, cells] + PRUNE_EPS).all()


def without_ranges(monkeypatch):
    """Switch the rule off in both kernels: every gap reads ``-inf``."""
    def no_gap(r_mids, r_reach, rows, *ranges):
        return np.full(rows.shape, -np.inf)

    monkeypatch.setattr(kernels, "anchor_range_gaps", no_gap)


def pbj_world(world):
    """PBJ's view of a world: ``theta = inf`` and the local ring bounds."""
    return replace_world(
        world, thetas=dict.fromkeys(world[2], np.inf), ring=local_ring_stats(world[3])
    )


def duplicates_world(metric_name):
    """Coincident objects and equal distances: points on a 3 x 3 grid, each
    three times over, pivots among them."""
    base = np.random.default_rng(31).integers(0, 3, size=(30, 2)).astype(float)
    points = np.vstack([base, base, base])
    return world_from(points, points.copy(), points[[0, 7, 19, 44, 61]], 6, metric_name)


#: each world, under a given metric
WORLDS = {
    "13-codes": lambda metric_name: kernel_world(
        seed=5, num_r=120, num_s=200, num_pivots=13, k=5, metric_name=metric_name
    ),
    "2-pivots": lambda metric_name: kernel_world(
        seed=29, num_r=60, num_s=150, num_pivots=2, k=4, metric_name=metric_name
    ),
    "twins": lambda metric_name: kernel_world(
        seed=67, num_r=90, num_s=140, num_pivots=8, k=5, metric_name=metric_name, twin_pivots=True
    ),
    "duplicates": duplicates_world,
    "pbj": lambda metric_name: pbj_world(
        kernel_world(seed=37, num_r=80, num_s=160, num_pivots=11, k=4, metric_name=metric_name)
    ),
}


class TestKernels:
    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("name", sorted(WORLDS))
    def test_pair_equal_to_the_reference_and_only_pivot_pairs_fall(
        self, name, metric_name, monkeypatch
    ):
        """Both kernels, with the rule and without it: the same neighbours and
        scanned pairs, and no more object-pivot pairs with it."""
        world = WORLDS[name](metric_name)
        got = assert_matches_reference(world, metric_name)
        _, pairs, pivot_pairs = run_counting_pivots(knn_join_kernel, world, metric_name)
        without_ranges(monkeypatch)
        assert assert_matches_reference(world, metric_name) == got
        _, old_pairs, old_pivot_pairs = run_counting_pivots(knn_join_kernel, world, metric_name)
        assert pairs - pivot_pairs == old_pairs - old_pivot_pairs
        assert pivot_pairs <= old_pivot_pairs

    def test_a_pinned_world_scans_the_pairs_it_scanned_without_the_rule(self, monkeypatch):
        """``kernel_world(seed=5, num_r=120, num_s=200, num_pivots=13, k=5)``:
        before the rule the kernel computed 2 846 pairs, 959 of them
        object-pivot, and was handed 5 380 ring-slice pairs; with it 2 183, 296
        and 4 652 — the scans' 1 887 computed pairs did not move.  Since each
        row's first cells are scanned in ascending anchor bound the scans
        compute 1 446 pairs, with the rule (handed 3 615) or without it; a
        slice no longer than round 0 has since been bound-ordered too, not
        handed whole, which hands 3 604 (4 334 → 4 320 without the rule) and
        computes the same pairs.  Without the rule the kernel computes 2 529
        pairs, 2 405 while each row's nearest computed pivots bounded its
        later cells; with it the count did not move."""
        world = WORLDS["13-codes"]("l2")
        assert all(block.codes.shape[1] == 13 for block in world[3].values())
        assert pairs_by_kind(world) == (1742, 1446, 3604)
        without_ranges(monkeypatch)
        assert pairs_by_kind(world) == (2529, 1446, 4320)


@pytest.mark.parametrize(
    "join, before, after, digest",
    [
        ("pgbj", (26158, 4014), 2396, "0a5c5b194e54d721"),
        ("pbj", (42869, 8302), 5003, "0a5c5b194e54d721"),
    ],
)
def test_joins_scan_the_pairs_they_scanned_without_the_rule(join, before, after, digest):
    """A 600-object Forest self-join, k = 5, 24 pivots, 4 reducers: the scans'
    pairs (``distance_pairs - reducer_pivot_pairs``) and the neighbours are
    the ones computed without the rule; only ``reducer_pivot_pairs`` falls
    (``before`` is ``(scans, object-pivot)`` without it).  The scans' pairs
    were 33 883 and 44 468 before each row's first cells were scanned in
    ascending anchor bound, and PGBJ's 32 317 before its reducers computed
    each own-cell distance once (PBJ ships R and S apart: no memo).  The
    object-pivot pairs with the rule were 2 387 and 4 994 while each row's
    nearest computed pivots bounded its later cells (and PGBJ's reducers
    ranged a pair by its admitted objects)."""
    data = generate_forest(600, seed=3)
    config = get_join(join).make_config(k=5, num_pivots=24, num_reducers=4)
    outcome = run_join(join, data, data, config)
    pivot_pairs = outcome.counters.value("selectivity", "reducer_pivot_pairs")
    scans = outcome.counters.value("selectivity", "distance_pairs") - pivot_pairs
    assert (scans, pivot_pairs) == (before[0], after) and after < before[1]
    pairs = repr(list(outcome.result.pairs())).encode()
    assert hashlib.sha1(pairs).hexdigest()[:16] == digest
