"""Reducer-side kNN kernels (paper Algorithm 3, lines 12-25).

The kernel answers, inside one reducer, the kNN of every ``r`` it received
against the S objects it received, using the paper's three pruning levels,
two more built from its Theorem 2, and a sixth rule that spares a
self-join's repeated distances:

1. scan candidate S-partitions in ascending pivot-distance order, so good
   candidates appear early and ``theta`` tightens fast (line 14);
2. skip a whole partition when the generalized hyperplane lies beyond
   ``theta`` (Corollary 1, line 19);
3. within a partition, examine only the objects whose pivot distance falls in
   the Theorem 2 ring — a contiguous slice of the distance-sorted block
   (lines 21-22);
4. within a ring slice, drop each object outside the Theorem 2 ring of
   ``r`` around each *anchor* of the partitioner before gathering it: ``|
   |r, a| - |s, a| | > theta`` (the LAESA filter the partitioner applies to
   pivots), with ``|o, a|`` known only to the byte its partitioning job
   shipped;
5. before ``|r, p_j|`` is computed, drop a whole (row, cell) pair whose
   ranges around some anchor lie more than ``theta`` apart: the row's ``[mid
   - radius, mid + radius]`` and the hull of all the S cell's present
   members' (:func:`~repro.core.geometry.anchor_ranges`, own cell included).
   Every member then fails rule 4 at that theta and every later one, so
   only object-pivot pairs are spared;
6. in a self-join's own cell, mirrored pairs and the diagonal: an S entry
   that is a row's record (:attr:`SPartitionBlock.twins`) reads 0.0 for that
   row, and a pair of two rows is computed for whichever asks first and
   stored for the other in a per-cell memo (while the cell's ``rows x rows``
   floats fit ``_TILE_BYTES``).  A row is handed only what it asks, so no
   theta, cut or k-best moves, and the count is the distinct unordered pairs
   asked, whatever the order.

The same kernel serves PGBJ (bounds from the global summary tables) and PBJ
(bounds recomputed locally over the reducer's random block of S, which is why
PBJ's bounds are looser — the paper's stated reason PBJ trails PGBJ).

Vectorization layout — a lock-step wavefront over the whole reducer.  The
scan order over S-partitions depends only on the *R-partition* (line 14
sorts by ``|p_i, p_jl|``), so all scan orders are one stable argsort of the
``(R-cells, present S-cells)`` pivot-distance sub-matrix.  The reducer's R
blocks are concatenated (sorted cell order) and so are its S blocks (each
still pivot-distance sorted); at step ``t`` every row visits the ``t``-th
S-partition of *its own* cell's order: one hyperplane mask with per-row
pivot distances, one segmented ``searchsorted`` for the Theorem 2 rings
(per-row ``L``/``U``, compared as ``(cell, distance)`` pairs), then one scan
— a gathered distance pass over the flat ``(row, ring-member)`` pair list and
a padded-matrix k-best merge.  Only the pairs the pruning rules admit are
ever gathered, and numpy call overhead is paid per *step*, not per
(R-cell, S-cell).

Object-pivot distances on demand.  Both rules need ``|r, p_j|``, which the
paper's selectivity counts ("the objects also include the pivots"), so it is
computed only where neither the own pivot's bound ``|p_i, p_j| - |r, p_i|``
(:func:`~repro.core.geometry.pivot_distance_needed`: both rules at that
lower bound on ``|r, p_j|``, against the running ``theta + PRUNE_EPS``, each
under its ablation switch) nor the cell's anchor ranges (rule 5, under ring
pruning when codes are present) decide the (row, cell) pair, and never for
the row's own cell (identified by cell id), whose distance the partitioning
job shipped.  Both rules are monotone in ``|r, p_j|``, so the bound rejects
only cells the distance would have.  The window rule keeps numpy overhead per
*window*: at the start of each step window ``[0,1) [1,2) [2,4) [4,8) ...``
the bounds are evaluated for every (row, step) of the window with the theta
of that moment, and the admitted pairs go through one gathered
``metric.pair_distances`` call.  A step no row visits is skipped.

Bound-ordered rounds (under ring pruning) — LAESA's "approximate, then
eliminate" inside a cell: every visit at steps 0 and 1 (the own cell and the
nearest other cell), and the own cell at any step (behind a coincident twin
pivot), sorts its ring slice by a lower bound on ``|r, s|`` that costs no
distance, ``max(max_a |mid_r - mid_s| - radius_r - radius_s, | |r, p_j| -
|s, p_j| |)``, ties by entry, and scans it ``k`` (3 in another cell), then
twice as many, entries a round.  Each round hands the scan the entries the
ring cut admits at the theta of that moment, and a row stops once its next
bound exceeds theta plus the ring cut's slack: every entry left lies
outside the cut or fails the code filter.  The nearest candidates come
first, so theta tightens before the scans pay for the rest; without codes the
bound is the ring distance and the rounds run from the ring centre outward.
The k-best fold does not depend on order, so no result changes, and the
later steps fold their ring slices in strips.

Anchors (under ring pruning, whose rule they apply): the ``code_anchors``,
all ``C = A`` of the partitioner's.  The partitioning job computed
``|o, a|`` to assign each object and shipped it as a one-byte code
(:func:`~repro.core.geometry.anchor_codes`); the kernel decodes each row's
codes into mids and one radius (:func:`~repro.core.geometry.anchor_intervals`)
and computes no anchor distance.  A scan folds its entries (a ring slice, or
a round's) in strips of ``max(128, 16 k)`` and drops each pair with ``max_a
|mid_r - mid_s|`` above the row's theta of that moment plus both radii; a
dropped pair lies beyond theta, so it changes no k-best and no theta.

A row starts from its own bound ``theta_i - U_i + |r, p_i|``: Theorem 3 with
its pivot distance in place of the cell's largest, ``U_i``, so every bound
of Algorithm 1 moves by the same constant and so does the k-th smallest.

The per-record oracle the tests keep (``tests/reference_oracle.py``)
applies the same rules, so the results and the pairs counted on ``metric``
(other cells), ``own_metric`` (the own cell) and ``pivot_metric``
(object-pivot pairs) are equal pair for pair; their sum is the paper's
selectivity numerator.  Two byte budgets bound memory: a scan, a window or
the bounds of a round's rows gather at most ``_GATHER_BYTES`` of pairs per
batch, and R is tiled by whole cells so a window's ``(steps, rows)``
matrices stay near ``_TILE_BYTES``, the cap of a cell's own-cell memo too.

Inputs are :class:`~repro.mapreduce.types.RecordBlock` batches, the one row
format: a reducer gathers its values into one block, and
:func:`build_partition_blocks` splits it by role and groups it per Voronoi
cell with array ops only.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.bounds import theta_bounds
from repro.core.distance import Metric
from repro.core.geometry import (
    PRUNE_EPS,
    PRUNE_RTOL,
    anchor_intervals,
    anchor_range_gaps,
    anchor_ranges,
    anchor_reach,
    hyperplane_distances,
    pivot_distance_needed,
    ring_slices,
    segment_keys,
)
from repro.core.zorder import ZOrderTransform
from repro.mapreduce.types import ROLE_BOTH, RecordBlock, group_rows_by, ranks_within

__all__ = [
    "KERNELS",
    "KernelProvider",
    "RPartitionBlock",
    "SPartitionBlock",
    "build_partition_blocks",
    "build_r_blocks",
    "build_s_blocks",
    "local_ring_stats",
    "local_thetas",
    "knn_join_kernel",
    "scan_partition_numpy",
]


@dataclass
class RPartitionBlock:
    """The R objects of one Voronoi cell present in a reducer."""

    partition_id: int
    ids: np.ndarray
    points: np.ndarray
    pivot_dists: np.ndarray
    #: ``(n, C)`` anchor codes (:attr:`RecordBlock.anchor_codes`)
    codes: np.ndarray | None = None

    def local_upper(self) -> float:
        """Local ``U``: max pivot distance among the present objects."""
        return float(self.pivot_dists.max())


@dataclass
class SPartitionBlock:
    """The S objects of one Voronoi cell present in a reducer.

    Arrays are sorted ascending by pivot distance (ties by id), so Theorem 2
    rings become contiguous slices.
    """

    partition_id: int
    ids: np.ndarray
    points: np.ndarray
    pivot_dists: np.ndarray
    #: as :attr:`RPartitionBlock.codes`, in the block's sorted order
    codes: np.ndarray | None = None
    #: per entry, the index in its cell's R block of the row that is the same
    #: record (a self-join's row of both roles), else -1; None: no entry is
    twins: np.ndarray | None = None

    def __len__(self) -> int:
        return self.ids.shape[0]


def build_r_blocks(block: RecordBlock) -> dict[int, RPartitionBlock]:
    """Group a reducer's R objects by Voronoi cell, points widened to float64
    and ids to int64."""
    points = block.points.astype(np.float64, copy=False)
    ids = block.object_ids.astype(np.int64, copy=False)
    return {
        pid: RPartitionBlock(
            partition_id=pid,
            ids=ids[rows],
            points=points[rows],
            pivot_dists=block.pivot_distances[rows],
            codes=block.anchor_codes[rows],
        )
        for pid, rows in group_rows_by(block.partition_ids)
    }


def build_s_blocks(
    block: RecordBlock, twins: np.ndarray | None = None
) -> dict[int, SPartitionBlock]:
    """Group a reducer's S objects by cell, sorted by pivot distance, points
    widened to float64 and ids to int64 (no copy when they are) before any
    arithmetic, sort or sentinel; ``twins`` per row become the blocks'
    :attr:`SPartitionBlock.twins`."""
    points = block.points.astype(np.float64, copy=False)
    all_ids = block.object_ids.astype(np.int64, copy=False)
    blocks: dict[int, SPartitionBlock] = {}
    for pid, rows in group_rows_by(block.partition_ids):
        ids = all_ids[rows]
        dists = block.pivot_distances[rows]
        order = np.lexsort((ids, dists))
        blocks[pid] = SPartitionBlock(
            partition_id=pid,
            ids=ids[order],
            points=points[rows][order],
            pivot_dists=dists[order],
            codes=block.anchor_codes[rows][order],
            twins=None if twins is None else twins[rows][order],
        )
    return blocks


def build_partition_blocks(
    block: RecordBlock,
) -> tuple[dict[int, RPartitionBlock], dict[int, SPartitionBlock]]:
    """Split a reducer's gathered input by role and group it per cell:
    ``(r_blocks, s_blocks)``, built with array operations only.  A row of
    both roles lands on both sides, and its S entry names its R row
    (:attr:`SPartitionBlock.twins`)."""
    r_rows, s_rows = np.flatnonzero(block.is_r), np.flatnonzero(block.is_s)
    twins = None
    if (block.role == ROLE_BOTH).any():
        # each R row's index in its cell's R block, as build_r_blocks groups
        r_cells = block.partition_ids[r_rows]
        twins = np.full(len(block), -1, dtype=np.intp)
        twins[r_rows[np.argsort(r_cells, kind="stable")]] = ranks_within(
            np.unique(r_cells, return_counts=True)[1]
        )
        twins = twins[s_rows]
    return build_r_blocks(block.take(r_rows)), build_s_blocks(block.take(s_rows), twins)


def local_ring_stats(s_blocks: dict[int, SPartitionBlock]) -> dict[int, tuple[float, float]]:
    """Per-cell ``(L, U)`` over the objects actually present (PBJ bounds)."""
    return {
        pid: (float(block.pivot_dists[0]), float(block.pivot_dists[-1]))
        for pid, block in s_blocks.items()
    }


def local_thetas(
    r_blocks: dict[int, RPartitionBlock],
    s_blocks: dict[int, SPartitionBlock],
    pdm: np.ndarray,
    k: int,
) -> dict[int, float]:
    """Algorithm 1 over a reducer's local S blocks, for every R cell present.

    Used by PBJ, whose reducers see only a random ``1/sqrt(N)`` slice of S:
    the theta bound must be recomputed from what is present —
    :func:`~repro.core.bounds.theta_bounds` over the local ``U`` of each R
    cell and the k nearest-to-pivot objects of each S cell (the blocks are
    pivot-distance sorted).  Every cell gets ``inf`` when the local S holds
    fewer than k objects (the merge job resolves such partial candidate
    lists).
    """
    if sum(len(block) for block in s_blocks.values()) < k:
        return dict.fromkeys(r_blocks, math.inf)
    r_pids, s_pids = list(r_blocks), list(s_blocks)
    uppers = np.array([r_blocks[pid].local_upper() for pid in r_pids], dtype=np.float64)
    nearest = [s_blocks[pid].pivot_dists[:k] for pid in s_pids]
    offsets = np.cumsum([0] + [len(run) for run in nearest])
    thetas = theta_bounds(uppers, pdm[np.ix_(r_pids, s_pids)], offsets, np.concatenate(nearest), k)
    return dict(zip(r_pids, thetas))


#: sentinel id for unfilled k-best slots — sorts after every real id
_ID_SENTINEL = np.iinfo(np.int64).max

#: bytes of the two ``(pairs, d)`` gather buffers of one distance batch (a
#: scan's, or a window's ``|r, p_j|``) — caps the gathered pairs per batch,
#: and with them the batch's peak memory, at every dimension
_GATHER_BYTES = 1 << 20

#: bytes of a ``rows x present pivots`` float matrix of one R tile; a step
#: window's bound matrices are a few of these, over at most half the pivots.
#: Also the cap on a cell's ``rows x rows`` own-cell memo (:class:`_OwnCellMemo`)
_TILE_BYTES = 1 << 22

#: steps whose every visit is scanned in bound-ordered rounds: the own cell
#: and the nearest other cell (an own cell behind a coincident twin pivot is
#: scanned in rounds at any step); the later steps fold their slices in strips
_ROUND_STEPS = 2


#: entries of a bound-ordered round 0 in another cell than the row's own,
#: where the row's theta is already finite and its few nearest entries are
#: the likeliest to tighten it
_OTHER_FIRST_ROUND = 3


def _first_round(k: int, own: bool) -> int:
    """Entries of a bound-ordered round 0: ``k`` in the row's own cell, which
    makes an unbounded theta finite; each later round doubles."""
    return k if own else min(k, _OTHER_FIRST_ROUND)


def _strip_length(k: int) -> int:
    """Entries of a ring slice a scan folds (and filters by anchors) at once."""
    return max(128, 16 * k)


def _upper(r_blocks: dict, uppers: dict | None, pid: int) -> float:
    """``U_i`` of R cell ``pid``: ``uppers``' if given, else the local one."""
    return r_blocks[pid].local_upper() if uppers is None else uppers[pid]


def _codes_admit(r_mids, s_mids, limit):
    """Theorem 2 around every code anchor: ``s`` may be within theta of ``r``
    only if no gap between decoded mids (``(C, pairs)``) exceeds ``limit``,
    theta plus both rows' radii (aligned pairs, or one ``r`` against many
    ``s``)."""
    gaps = np.subtract(r_mids, s_mids)
    np.abs(gaps, out=gaps)
    return gaps.max(axis=0) <= limit


#: a memo slot index far below any slot: a pair outside the memo
_NO_SLOT = -(1 << 40)
#: memo values: "asked in this batch, not yet computed", and slot 0's,
#: "outside the memo" (an unknown pair's is NaN)
_ASKED, _OUTSIDE = -1.0, -2.0


class _OwnCellMemo:
    """The own-cell distances of one R tile of a self-join, each computed once.

    An own-cell scan asks ``|r, s|`` of rows and entries of one cell, and an
    entry that is the S copy of a row's record names that row.  A cell whose
    ``rows x rows`` float matrix fits ``_TILE_BYTES`` keeps one: a row's own
    entry reads 0.0, and a pair of two rows is computed for whichever asks
    first (the direction of the lower slot, if one batch asks both) and
    stored both ways.  A row is answered only what it asks, so no k-best,
    theta or cut changes.  Slot 0 holds ``_OUTSIDE``, read by every pair
    outside the memo.
    """

    def __init__(self, twins: np.ndarray, sizes: np.ndarray) -> None:
        """``twins`` per S entry: the tile row of its record, else outside
        ``[0, rows)``; ``sizes``: the tile's rows per cell."""
        areas = np.where(sizes * sizes * 8 <= _TILE_BYTES, sizes * sizes, 0)
        self.local = ranks_within(sizes)
        cell_slots = np.where(areas > 0, 1 + np.cumsum(areas) - areas, _NO_SLOT)
        # per row: the slot of its pair with the cell's row 0
        self.row_slots = np.repeat(cell_slots, sizes) + self.local * np.repeat(sizes, sizes)
        self.values = np.full(1 + int(areas.sum()), np.nan)
        # the diagonal; a row outside the memo clips to slot 0, set after
        np.put(self.values, self.row_slots + self.local, 0.0, mode="clip")
        self.values[0] = _OUTSIDE
        twinned = (twins >= 0) & (twins < sizes.sum())
        self.entry_local = np.where(twinned, self.local.take(twins, mode="clip"), _NO_SLOT)
        self.entry_slots = np.where(twinned, self.row_slots.take(twins, mode="clip"), _NO_SLOT)

    def distances(self, rows, pair_row, entries, compute) -> np.ndarray:
        """``|r, s|`` of the pairs ``(rows[pair_row[i]], entries[i])``;
        ``compute(at)`` returns the counted distances of the pairs at
        positions ``at``."""
        slots = self.row_slots.take(rows).take(pair_row) + self.entry_local.take(entries)
        dists = self.values.take(slots, mode="clip")
        asked = np.flatnonzero(np.isnan(dists))
        own = slots[asked]
        mirror = self.entry_slots.take(entries[asked]) + self.local.take(rows).take(pair_row[asked])
        # asked both ways in this batch: the direction of the lower slot computes
        self.values[own] = _ASKED
        later = (self.values.take(mirror) == _ASKED) & (own > mirror)
        fresh = np.concatenate((asked[~later], np.flatnonzero(dists == _OUTSIDE)))
        dists[fresh] = compute(fresh)
        # stored both ways; a later direction reads the first's in between
        self.values[own] = dists[asked]
        dists[asked[later]] = self.values.take(mirror[later])
        self.values[mirror] = dists[asked]
        return dists


def _gathered(metric: Metric, r_points, r_rows, s_points, s_rows):
    """The counted ``|r_points[r_rows[i]], s_points[s_rows[i]]|``."""
    return metric.pair_distances(r_points.take(r_rows, 0), s_points.take(s_rows, 0))


def _chunk_bounds(lengths: np.ndarray, cap: int) -> Iterator[tuple[int, int]]:
    """Split segment list ``lengths`` into ``[lo, hi)`` runs of <= cap pairs.

    A single segment larger than the cap still forms its own (oversized)
    chunk — segments are never split, so per-row results cannot change.
    """
    cumulative = np.cumsum(lengths)
    lo = 0
    consumed = 0
    while lo < lengths.size:
        hi = int(np.searchsorted(cumulative, consumed + cap, side="right"))
        if hi <= lo:
            hi = lo + 1
        yield lo, hi
        consumed = int(cumulative[hi - 1])
        lo = hi


def _step_windows(num_steps: int) -> Iterator[tuple[int, int]]:
    """Scan steps in growing windows ``[0,1) [1,2) [2,4) [4,8) ...``: theta
    tightens fastest over the first steps, so the long late windows are
    judged with a tight theta, at ``log2`` numpy-call overhead."""
    edges = [0, *(1 << i for i in range(num_steps.bit_length()) if 1 << i < num_steps), num_steps]
    return zip(edges[:-1], edges[1:])


def _stop_limit(theta, dist_r_pj):
    """The bound beyond which a row's rounds stop: theta plus the slack of
    its Theorem 2 ring cut (:func:`~repro.core.geometry.ring_slices`), so an
    entry past it lies outside the cut or fails the code filter.  Scalars or
    aligned arrays, the same IEEE operations either way; ``inf`` while theta
    is."""
    finite = np.where(np.isfinite(theta), theta, 0.0)
    return theta + (PRUNE_EPS + PRUNE_RTOL * (dist_r_pj + finite))


def _entry_bounds(dist_r_pj, s_dists, anchors, rows, entries):
    """Per pair ``(rows[i], entries[i])`` a lower bound on ``|r, s|`` that
    costs no distance: ``max(max_a |mid_r - mid_s| - radius_r - radius_s, |
    |r, p_j| - |s, p_j| |)`` — the code anchors' (``anchors`` as
    :func:`_scan_segments` takes them, if any) and the ring's, with
    ``dist_r_pj`` per pair and ``s_dists`` the entries' pivot distances.  An
    anchor at a time: memory per pair, not per pair and anchor."""
    bounds = np.abs(dist_r_pj - s_dists)
    if anchors is not None:
        r_mids, s_mids, r_radius, s_radius = anchors
        codes = np.full(entries.shape, -np.inf)
        for r_mids_a, s_mids_a in zip(r_mids, s_mids):
            gap = np.subtract(r_mids_a.take(rows), s_mids_a.take(entries))
            np.maximum(codes, np.abs(gap, out=gap), out=codes)
        codes -= r_radius.take(rows)
        codes -= s_radius.take(entries)
        np.maximum(bounds, codes, out=bounds)
    return bounds


def _scan_segments(
    metric: Metric,
    k: int,
    r_points: np.ndarray,
    s_block: SPartitionBlock,
    rows: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    best_dists: np.ndarray,
    best_ids: np.ndarray,
    theta: np.ndarray,
    anchors: tuple | None = None,
    entries: np.ndarray | None = None,
    memo: _OwnCellMemo | None = None,
) -> None:
    """One gathered scan: one ring slice of ``s_block`` per R row in ``rows``.

    Builds the flat ``(row, s-index)`` pair list covering exactly the ring
    members each row admits (the slices index ``entries``, if given, which
    holds ``s_block`` indices), drops the pairs the ``anchors`` (``(r mids,
    s mids, r radii, s radii)`` of the decoded anchor codes, if given) prove
    farther than the row's theta, computes the rest in one counted call (an
    own-cell scan's through ``memo``, if given), then folds each row's
    candidates into its running k-best matrix:

    * discard candidates strictly beyond their row's current k-th distance —
      the row already holds k candidates at or below it, so such a candidate
      can never enter the k-best (ties survive: an equal distance with a
      smaller id still displaces);
    * per-segment top-``min(survivors, k)`` via one three-key lexsort over
      the (now few) survivors, needed only when a segment has more than k;
    * merge with the current k-best (``inf``/sentinel-padded), ordering each
      row by (distance, id) with two stable row-wise argsorts — the same
      lexicographic tie-breaking as ``np.lexsort``, so results match the
      per-record :class:`~repro.core.knn.ReferenceKBestList` exactly.

    Updates ``best_dists``/``best_ids``/``theta`` in place.
    """
    offsets = np.cumsum(lengths) - lengths
    total = int(offsets[-1] + lengths[-1])
    # flat pair list: seg_of_pair repeats each segment, col walks its slice
    col = np.arange(total) - np.repeat(offsets - starts, lengths)
    if entries is not None:
        col = entries.take(col)
    seg_of_pair = np.repeat(np.arange(rows.size), lengths)
    if anchors is not None:
        # a dropped pair is farther than theta: it changes no k-best, no theta
        r_mids, s_mids, r_radius, s_radius = anchors
        admitted = _codes_admit(
            r_mids.take(rows, 1).take(seg_of_pair, 1), s_mids.take(col, 1),
            (theta.take(rows) + r_radius.take(rows)).take(seg_of_pair) + s_radius.take(col),
        )
        col, seg_of_pair = col[admitted], seg_of_pair[admitted]
        total = col.size
        if total == 0:
            return
    if memo is None:
        # r_points[rows]: a small, cache-resident gather source
        flat_dists = _gathered(metric, r_points[rows], seg_of_pair, s_block.points, col)
    else:
        r_sub = r_points[rows]
        flat_dists = memo.distances(rows, seg_of_pair, col, lambda at: _gathered(
            metric, r_sub, seg_of_pair[at], s_block.points, col[at]
        ))

    kth_per_segment = best_dists[rows, k - 1]
    keep = np.flatnonzero(flat_dists <= kth_per_segment[seg_of_pair])
    if keep.size == 0:
        # every candidate lost to the current k-best; the reference's theta
        # update is a no-op here too (theta <= kth + eps already holds)
        return
    seg_kept = seg_of_pair[keep]
    dists_kept = flat_dists[keep]
    ids_kept = s_block.ids[col[keep]]

    survivors = np.bincount(seg_kept, minlength=rows.size)
    active = np.flatnonzero(survivors)
    take = np.minimum(survivors[active], k)
    kept_offsets = np.cumsum(survivors) - survivors
    picks = int(take.sum())
    slot = np.arange(picks) - np.repeat(np.cumsum(take) - take, take)
    picked = np.repeat(kept_offsets[active], take) + slot
    if picks < keep.size:
        # (segment, distance, id) order => contiguous survivor runs, best
        # first; else every survivor is picked, and the merge orders them
        picked = np.lexsort((ids_kept, dists_kept, seg_kept))[picked]

    num_active = active.size
    new_dists = np.full((num_active, k), np.inf)
    new_ids = np.full((num_active, k), _ID_SENTINEL, dtype=np.int64)
    scatter_row = np.repeat(np.arange(num_active), take)
    new_dists[scatter_row, slot] = dists_kept[picked]
    new_ids[scatter_row, slot] = ids_kept[picked]

    updated = rows[active]
    merged_dists = np.hstack((best_dists[updated], new_dists))
    merged_ids = np.hstack((best_ids[updated], new_ids))
    lane = np.arange(num_active)[:, None]
    by_id = np.argsort(merged_ids, axis=1, kind="stable")
    by_dist = np.argsort(merged_dists[lane, by_id], axis=1, kind="stable")
    # compose the two stable passes (== per-row lexsort by (distance, id))
    # and truncate to k before gathering the final columns
    keep_perm = by_id[lane, by_dist[:, :k]]
    best_dists[updated] = merged_dists[lane, keep_perm]
    best_ids[updated] = merged_ids[lane, keep_perm]
    # theta tightens only once a row's list is full: an unfilled k-th slot is
    # +inf, so np.minimum leaves those rows' theta untouched
    theta[updated] = np.minimum(theta[updated], best_dists[updated, k - 1] + PRUNE_EPS)


def scan_partition_numpy(
    metric: Metric,
    k: int,
    r_points: np.ndarray,
    s_block: SPartitionBlock,
    rows: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    best_dists: np.ndarray,
    best_ids: np.ndarray,
    theta: np.ndarray,
    anchors: tuple | None = None,
    entries: np.ndarray | None = None,
    memo: _OwnCellMemo | None = None,
) -> None:
    """The scan: strip-mined gathered batches.

    One wavefront step of :func:`knn_join_kernel` — the step's admitted ring
    slices (``[start, start + length)`` of ``s_block``, or of ``entries``,
    the ``s_block`` indices of a bound-ordered round, one per surviving R
    row, each row at most once), folded into the running k-best state.
    Without ``anchors`` exactly the ``sum(lengths)`` admitted pairs are
    computed (counted through the metric); with them, those of each strip
    the anchors admit at the theta of that moment; with a ``memo`` (an own
    cell of a self-join), of those only the ones it has no distance for.
    """
    # strip-mine long slices: after the first strip every row's k-th
    # distance is a real bound, so later strips mostly fail the
    # cheap prefilter instead of flooding the candidate sort.  The
    # k-best fold is order-independent, so results are unchanged.
    strip = _strip_length(k)
    longest = int(lengths.max())
    # two float64 gather buffers of (pairs, d) must fit the byte budget
    cap = max(1, _GATHER_BYTES // (16 * r_points.shape[1]))
    if longest <= strip and int(lengths.sum()) <= cap:
        # dense-pivot common case: one batch, no strip bookkeeping
        _scan_segments(
            metric, k, r_points, s_block, rows, starts, lengths,
            best_dists, best_ids, theta, anchors, entries, memo,
        )
        return
    offset = 0
    while offset < longest:
        in_strip = np.flatnonzero(lengths > offset)
        strip_rows = rows[in_strip]
        strip_starts = starts[in_strip] + offset
        strip_lengths = np.minimum(lengths[in_strip] - offset, strip)
        for lo, hi in _chunk_bounds(strip_lengths, cap):
            _scan_segments(
                metric,
                k,
                r_points,
                s_block,
                strip_rows[lo:hi],
                strip_starts[lo:hi],
                strip_lengths[lo:hi],
                best_dists,
                best_ids,
                theta,
                anchors,
                entries,
                memo,
            )
        offset += strip


def knn_join_kernel(
    metric: Metric,
    k: int,
    r_blocks: dict[int, RPartitionBlock],
    s_blocks: dict[int, SPartitionBlock],
    thetas: dict[int, float],
    ring_stats: dict[int, tuple[float, float]],
    pivot_points: np.ndarray,
    pivot_dist_matrix: np.ndarray,
    use_hyperplane_pruning: bool = True,
    use_ring_pruning: bool = True,
    pivot_metric: Metric | None = None,
    code_anchors: np.ndarray | None = None,
    uppers: dict[int, float] | None = None,
    own_metric: Metric | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run Algorithm 3's reduce phase; yields ``(r_id, neighbor_ids, dists)``.

    Bit-identical to the per-record oracle of the tests (same neighbor lists,
    same pairs counted on each metric): every per-row pruning decision, computed
    ``|r, p_j|`` and ring slice is the same, every admitted pair's distance is
    computed with the same IEEE operations — only evaluated batched, one scan
    step (one step window, for the object-pivot distances) at a time across
    all rows of the reducer (see the module docstring).  Rows come out in
    sorted R-cell order, then block row order.

    Parameters
    ----------
    thetas:
        ``theta_i`` per R-partition (Equation 6); ``inf`` disables the initial
        radius (PBJ blocks smaller than k).  A row starts from ``theta_i -
        U_i + |r, p_i|``.
    ring_stats:
        ``(L, U)`` per S-partition for Theorem 2 — global table values for
        PGBJ, local block extremes for PBJ.
    pivot_points, pivot_dist_matrix:
        Pivot coordinates and the ``|p_i, p_j|`` matrix.
    use_hyperplane_pruning, use_ring_pruning:
        Ablation switches (both on reproduces the paper).
    pivot_metric:
        The counted metric of the object-pivot distances ``|r, p_j|`` (the
        reducers count them apart); ``metric`` when omitted.
    code_anchors:
        The pivots the blocks' anchor codes refer to (the partitioner's
        anchors); no anchor filter when omitted or empty.
    uppers:
        ``U_i`` per R-partition, as ``thetas`` was computed with (PGBJ: from
        ``T_R``); the largest pivot distance among the present rows when
        omitted (PBJ's local ``U``).
    own_metric:
        The counted metric of the pairs of a row and its own cell's members
        (the reducers count them apart); ``metric`` when omitted.
    """
    if not s_blocks:
        raise ValueError("reducer received R objects but no S objects")
    pivot_metric = pivot_metric or metric
    own_metric = own_metric or metric
    present = sorted(s_blocks)
    cells = sorted(r_blocks)
    num_present = len(present)
    present_points = pivot_points[present]
    # Equation 3 is exact only in Euclidean space; other metrics fall back to
    # the generic GH bound inside hyperplane_distances
    euclidean = metric.name == "l2"

    # every present S-partition back to back, each still pivot-distance
    # sorted, so a ring slice is a [start, stop) range of one array
    s_sizes = np.array([len(s_blocks[pid]) for pid in present], dtype=np.intp)
    s_offsets = np.concatenate(([0], np.cumsum(s_sizes)))
    s_all = SPartitionBlock(
        partition_id=-1,
        ids=np.concatenate([s_blocks[pid].ids for pid in present]),
        points=np.concatenate([s_blocks[pid].points for pid in present]),
        pivot_dists=np.concatenate([s_blocks[pid].pivot_dists for pid in present]),
    )
    coded = use_ring_pruning and code_anchors is not None and len(code_anchors) > 0
    if use_ring_pruning:
        s_keys = segment_keys(np.repeat(np.arange(num_present), s_sizes), s_all.pivot_dists)
    if coded:
        code_rows = pivot_dist_matrix[code_anchors]
        s_mids, s_radius = anchor_intervals(
            np.concatenate([s_blocks[pid].codes for pid in present]),
            np.repeat(present, s_sizes), s_all.pivot_dists, code_rows,
        )
        s_lo, s_hi = anchor_ranges(s_mids, s_radius, s_offsets)
    lower, upper = np.array([ring_stats[pid] for pid in present], dtype=np.float64).T

    # line 14 for every R-partition at once: column c is the scan order of
    # cell c over the present S-partitions, ascending |p_i, p_jl| (stable, so
    # equidistant cells keep the scan order of sorted()); step-major, so the
    # rows that share a step are contiguous
    pdm = pivot_dist_matrix[np.ix_(cells, present)]
    order = np.argsort(pdm, axis=1, kind="stable")
    pdm_in_order = np.ascontiguousarray(np.take_along_axis(pdm, order, axis=1).T)
    order = np.ascontiguousarray(order.T)
    cell_ids, present_ids = np.array(cells), np.array(present)

    r_sizes = np.array([r_blocks[pid].ids.shape[0] for pid in cells], dtype=np.intp)
    # a self-join's S entries: the row (cells back to back) of their record
    r_starts = dict(zip(cells, (np.cumsum(r_sizes) - r_sizes).tolist()))
    twins = [s_blocks[pid].twins for pid in present]
    twinned = any(cell_twins is not None for cell_twins in twins)
    if twinned:
        local = np.concatenate([
            np.full(size, -1) if cell_twins is None else cell_twins
            for cell_twins, size in zip(twins, s_sizes)
        ])
        s_twins = np.where(
            local >= 0, local + np.repeat([r_starts.get(pid, 0) for pid in present], s_sizes), -1
        )
    pivot_cap = max(1, _GATHER_BYTES // (16 * pivot_points.shape[1]))
    # rows are independent, so R is tiled (by whole cells) to bound a
    # window's (steps, rows) matrices; each tile runs the full wavefront
    for first, last in _chunk_bounds(r_sizes, max(1, _TILE_BYTES // (8 * num_present))):
        tile_cells, tile_sizes = cells[first:last], r_sizes[first:last]
        tile = [r_blocks[pid] for pid in tile_cells]
        cell_of_row = np.repeat(np.arange(first, last), tile_sizes)
        r_ids = np.concatenate([block.ids for block in tile])
        r_points = np.concatenate([block.points for block in tile])
        own_dists = np.concatenate([block.pivot_dists for block in tile])
        num_rows = r_ids.shape[0]
        memo = None
        if twinned:
            memo = _OwnCellMemo(s_twins - r_starts[tile_cells[0]], tile_sizes)
        anchors = None
        if coded:
            r_mids, r_radius = anchor_intervals(
                np.concatenate([block.codes for block in tile]),
                np.repeat(tile_cells, tile_sizes), own_dists, code_rows,
            )
            anchors = (r_mids, s_mids, r_radius, s_radius)
            r_reach = anchor_reach(r_mids, r_radius)

        offsets = [thetas[pid] - _upper(r_blocks, uppers, pid) for pid in tile_cells]
        theta = np.repeat(np.array(offsets, dtype=np.float64), tile_sizes) + own_dists
        best_dists = np.full((num_rows, k), np.inf, dtype=np.float64)
        best_ids = np.full((num_rows, k), _ID_SENTINEL, dtype=np.int64)

        def scan(counted, rows, starts, stops, entries=None, memo=None):
            lengths = stops - starts
            occupied = np.flatnonzero(lengths > 0)
            if occupied.size:
                scan_partition_numpy(
                    counted, k, r_points, s_all, rows[occupied], starts[occupied],
                    lengths[occupied], best_dists, best_ids, theta, anchors, entries,
                    memo,
                )

        def rounds(counted, memo, first_round, rows, visit, dist_r_pj, starts, stops):
            # each row's ring slice in ascending bound, ties by entry, a batch
            # of rows within the budget at a time; a round hands the scan
            # the entries its re-cut ring admits
            lengths = stops - starts
            for lo, hi in _chunk_bounds(lengths, max(1, _GATHER_BYTES // 64)):
                rows_b, visit_b, dist_b = rows[lo:hi], visit[lo:hi], dist_r_pj[lo:hi]
                lengths_b = lengths[lo:hi]
                ends = np.cumsum(lengths_b)
                pos = ends - lengths_b
                pair_row = np.repeat(np.arange(hi - lo), lengths_b)
                entries = np.arange(pair_row.size) - np.repeat(pos - starts[lo:hi], lengths_b)
                bounds = _entry_bounds(
                    dist_b.take(pair_row), s_all.pivot_dists.take(entries), anchors,
                    rows_b.take(pair_row), entries,
                )
                # (row, bound) keys, stable: ties keep the entries' order
                by_bound = np.argsort(segment_keys(pair_row, bounds), kind="stable")
                entries, bounds = entries[by_bound], bounds[by_bound]
                live, size = np.arange(hi - lo), first_round
                while True:
                    live = live[pos[live] < ends[live]]
                    live = live[
                        bounds[pos[live]] <= _stop_limit(theta[rows_b[live]], dist_b[live])
                    ]
                    if live.size == 0:
                        break
                    at_rows, at_visit, at_dist = rows_b[live], visit_b[live], dist_b[live]
                    start, stop = ring_slices(
                        s_keys, lower[at_visit], upper[at_visit], at_dist, theta[at_rows], at_visit
                    )
                    count = np.minimum(ends[live] - pos[live], size)
                    taken = entries[
                        np.repeat(pos[live] - (np.cumsum(count) - count), count)
                        + np.arange(int(count.sum()))
                    ]
                    seg = np.repeat(np.arange(live.size), count)
                    in_ring = (taken >= start[seg]) & (taken < stop[seg])
                    admitted = np.bincount(seg[in_ring], minlength=live.size)
                    first = np.cumsum(admitted) - admitted
                    scan(counted, at_rows, first, first + admitted, taken[in_ring], memo)
                    pos[live] += count
                    size *= 2

        for first_step, window_end in _step_windows(num_present):
            # |r, p_j| — an object-pivot pair, counted toward selectivity
            # (Equation 13) — is computed only where neither the own pivot's
            # bound nor the cell's anchor ranges decide the (row, cell) pair
            # under the theta of this moment
            visits = order[first_step:window_end][:, cell_of_row]
            gaps = pdm_in_order[first_step:window_end][:, cell_of_row]
            needed = pivot_distance_needed(
                own_dists, gaps, upper[visits], theta, use_hyperplane_pruning, use_ring_pruning
            )
            at_step, at_row = np.nonzero(np.broadcast_to(needed, visits.shape))
            at_visit, at_gap = visits[at_step, at_row], gaps[at_step, at_row]
            if coded:
                # the cell's anchor ranges: every member beyond theta
                keep = np.flatnonzero(
                    anchor_range_gaps(r_mids, r_reach, at_row, s_lo, s_hi, at_visit)
                    <= theta[at_row] + PRUNE_EPS
                )
                at_step, at_row, at_visit, at_gap = (
                    at_step[keep], at_row[keep], at_visit[keep], at_gap[keep]
                )
            ends = np.searchsorted(at_step, np.arange(window_end - first_step + 1)).tolist()
            # the own cell's distance is the row's pivot distance (by cell id:
            # a coincident pivot's cell is another cell, computed like any)
            at_own = present_ids[at_visit] == cell_ids[cell_of_row[at_row]]
            at_dist = own_dists[at_row]
            computed = np.flatnonzero(~at_own)
            for lo in range(0, computed.size, pivot_cap):
                chunk = computed[lo : lo + pivot_cap]
                at_dist[chunk] = pivot_metric.pair_distances(
                    r_points[at_row[chunk]], present_points[at_visit[chunk]]
                )
            # every row visits the step-th S-partition of its own cell's order
            own_steps = set(at_step[at_own].tolist())
            for step in range(window_end - first_step):
                if ends[step] == ends[step + 1]:
                    continue  # no row visits a cell at this step
                mine = slice(ends[step], ends[step + 1])
                rows, visit, dist_r_pj = at_row[mine], at_visit[mine], at_dist[mine]
                own = at_own[mine] if step in own_steps else None
                if use_hyperplane_pruning:
                    # Corollary 1: a row survives unless the hyperplane provably
                    # exceeds its current theta; its own cell is never tested
                    keep = hyperplane_distances(
                        own_dists[rows], dist_r_pj, at_gap[mine], euclidean
                    ) <= theta[rows] + PRUNE_EPS
                    if own is not None:
                        keep |= own
                        own = own[keep]
                    rows, visit, dist_r_pj = rows[keep], visit[keep], dist_r_pj[keep]
                if rows.size == 0:
                    continue
                if use_ring_pruning:
                    starts, stops = ring_slices(
                        s_keys, lower[visit], upper[visit], dist_r_pj, theta[rows], visit
                    )
                else:
                    starts, stops = s_offsets[visit], s_offsets[visit + 1]
                rounded = use_ring_pruning and first_step + step < _ROUND_STEPS
                if own is None and not rounded:
                    scan(metric, rows, starts, stops)
                    continue
                # the first steps, and the own cell, in bound-ordered rounds;
                # the own cell's pairs are counted apart, through the memo
                own = np.zeros(rows.size, dtype=bool) if own is None else own
                ordered = (own & use_ring_pruning) | rounded
                for is_own, counted, group in ((True, own_metric, own), (False, metric, ~own)):
                    strips, in_rounds = group & ~ordered, np.flatnonzero(group & ordered)
                    in_memo = memo if is_own else None
                    scan(counted, rows[strips], starts[strips], stops[strips], memo=in_memo)
                    if in_rounds.size:
                        rounds(
                            counted, in_memo, _first_round(k, is_own), rows[in_rounds],
                            visit[in_rounds], dist_r_pj[in_rounds], starts[in_rounds],
                            stops[in_rounds],
                        )
        # unfilled slots are +inf / sentinel padding at the tail
        counts = (best_dists < np.inf).sum(axis=1).tolist()
        for row, (r_id, count) in enumerate(zip(r_ids.tolist(), counts)):
            yield r_id, best_ids[row, :count].copy(), best_dists[row, :count].copy()


class KernelProvider:
    """The reducers' two kernel entry points, behind one class.

    Reducers call :data:`KERNELS`, its one instance.  The class exists so a
    tracer can wrap both entry points in one place: ``benchmarks/e2e``
    attributes its ``kernels.knn_join`` and ``kernels.morton`` spans by
    patching these two methods.
    """

    def knn_join_kernel(self, *args, **kwargs) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """:func:`knn_join_kernel`."""
        return knn_join_kernel(*args, **kwargs)

    def morton_codes(self, transform: ZOrderTransform, points: np.ndarray) -> np.ndarray:
        """Morton codes of ``points`` as a byte-key array
        (:meth:`~repro.core.zorder.ZOrderTransform.z_keys`)."""
        return transform.z_keys(points)


KERNELS = KernelProvider()
