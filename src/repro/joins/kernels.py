"""Reducer-side kNN kernels (paper Algorithm 3, lines 12-25).

The kernel answers, inside one reducer, the kNN of every ``r`` it received
against the S objects it received, using the paper's three pruning levels:

1. scan candidate S-partitions in ascending pivot-distance order, so good
   candidates appear early and ``theta`` tightens fast (line 14);
2. skip a whole partition when the generalized hyperplane lies beyond
   ``theta`` (Corollary 1, line 19);
3. within a partition, examine only the objects whose pivot distance falls in
   the Theorem 2 ring — a contiguous slice of the distance-sorted block
   (lines 21-22).

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
computed only where :func:`~repro.core.geometry.pivot_distance_needed` — the
distance-free forms of Corollary 1 and Theorem 5, against the running
``theta + PRUNE_EPS``, each under its rule's ablation switch — cannot decide
the (row, cell) pair.  The window rule keeps numpy overhead per *window*, not
per step: at the start of each step window ``[0,1) [1,2) [2,4) [4,8) ...`` the
bounds are evaluated for every (row, step) of the window with the theta of
that moment, and the admitted pairs go through one gathered
``metric.pair_distances`` call.  :func:`knn_join_kernel_reference`, the
per-record oracle, applies the same rule, so results and
``metric.pairs_computed`` (the paper's selectivity numerator) are equal pair
for pair.  Two byte budgets bound memory: a scan or a window gathers at most
``_GATHER_BYTES`` of pairs per batch, and R is tiled by whole cells so a
window's ``(steps, rows)`` matrices stay near ``_TILE_BYTES``.

Inputs arrive either as per-object :class:`~repro.mapreduce.types.ObjectRecord`
values or as columnar :class:`~repro.mapreduce.types.RecordBlock` batches;
:func:`build_partition_blocks` splits a reducer's mixed value list by origin
and groups it per Voronoi cell with array ops only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.distance import Metric
from repro.core.geometry import (
    PRUNE_EPS,
    hyperplane_distances,
    partition_pruned_by_hyperplane,
    pivot_distance_needed,
    ring_slice,
    ring_slices,
    segment_keys,
)
from repro.core.knn import ReferenceKBestList
from repro.mapreduce.types import ObjectRecord, RecordBlock, group_rows_by

__all__ = [
    "RPartitionBlock",
    "SPartitionBlock",
    "ScratchPool",
    "build_partition_blocks",
    "build_r_blocks",
    "build_s_blocks",
    "local_ring_stats",
    "local_theta",
    "knn_join_kernel",
    "knn_join_kernel_reference",
    "scan_partition_numpy",
]


@dataclass
class RPartitionBlock:
    """The R objects of one Voronoi cell present in a reducer."""

    partition_id: int
    ids: np.ndarray
    points: np.ndarray
    pivot_dists: np.ndarray

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

    def __len__(self) -> int:
        return self.ids.shape[0]


def _as_block(values: "RecordBlock | Iterable") -> RecordBlock:
    if isinstance(values, RecordBlock):
        return values
    return RecordBlock.gather(values)


def build_r_blocks(
    records: "RecordBlock | Iterable[ObjectRecord | RecordBlock]",
) -> dict[int, RPartitionBlock]:
    """Group a reducer's R records by Voronoi cell (columnar)."""
    block = _as_block(records)
    return {
        pid: RPartitionBlock(
            partition_id=pid,
            ids=block.object_ids[rows],
            points=block.points[rows],
            pivot_dists=block.pivot_distances[rows],
        )
        for pid, rows in group_rows_by(block.partition_ids)
    }


def build_s_blocks(
    records: "RecordBlock | Iterable[ObjectRecord | RecordBlock]",
) -> dict[int, SPartitionBlock]:
    """Group a reducer's S records by cell, sorted by pivot distance."""
    block = _as_block(records)
    blocks: dict[int, SPartitionBlock] = {}
    for pid, rows in group_rows_by(block.partition_ids):
        ids = block.object_ids[rows]
        dists = block.pivot_distances[rows]
        order = np.lexsort((ids, dists))
        blocks[pid] = SPartitionBlock(
            partition_id=pid,
            ids=ids[order],
            points=block.points[rows][order],
            pivot_dists=dists[order],
        )
    return blocks


def build_partition_blocks(
    values: Iterable,
) -> tuple[dict[int, RPartitionBlock], dict[int, SPartitionBlock]]:
    """Split a reducer's mixed value list by origin and group per cell.

    Accepts whatever the shuffle delivered — per-object records, columnar
    blocks, or a mix — and returns ``(r_blocks, s_blocks)`` built with array
    operations only (no per-record Python objects on the block path).
    """
    block = _as_block(values)
    r_rows = np.flatnonzero(block.is_r)
    s_rows = np.flatnonzero(~block.is_r)
    return build_r_blocks(block.take(r_rows)), build_s_blocks(block.take(s_rows))


def local_ring_stats(s_blocks: dict[int, SPartitionBlock]) -> dict[int, tuple[float, float]]:
    """Per-cell ``(L, U)`` over the objects actually present (PBJ bounds)."""
    return {
        pid: (float(block.pivot_dists[0]), float(block.pivot_dists[-1]))
        for pid, block in s_blocks.items()
    }


def local_theta(
    u_ri: float,
    pdm_row: np.ndarray,
    s_blocks: dict[int, SPartitionBlock],
    k: int,
) -> float:
    """Algorithm 1 evaluated over a reducer's local S blocks.

    Used by PBJ, whose reducers see only a random ``1/sqrt(N)`` slice of S:
    the theta bound must be recomputed from what is present.  Returns ``inf``
    when the local blocks hold fewer than k objects (the merge job resolves
    such partial candidate lists).

    Vectorized: each block contributes upper bounds
    ``u_ri + |p_i, p_j| + |s, p_j|`` for its k nearest-to-pivot objects
    (the blocks are pivot-distance sorted); the k-th smallest of the pooled
    bounds is the theta — one ``np.partition`` instead of a Python heap.
    """
    bounds = [
        (u_ri + float(pdm_row[pid])) + block.pivot_dists[:k]
        for pid, block in s_blocks.items()
    ]
    if not bounds:
        return float("inf")
    pooled = np.concatenate(bounds)
    if pooled.size < k:
        return float("inf")
    return float(np.partition(pooled, k - 1)[k - 1])


#: sentinel id for unfilled k-best slots — sorts after every real id
_ID_SENTINEL = np.iinfo(np.int64).max

#: bytes of the two ``(pairs, d)`` gather buffers of one distance batch (a
#: scan's, or a window's ``|r, p_j|``) — caps the gathered pairs per batch,
#: and with them the batch's peak memory, at every dimension
_GATHER_BYTES = 1 << 20

#: bytes of a ``rows x present pivots`` float matrix of one R tile; a step
#: window's bound matrices are a few of these, over at most half the pivots
_TILE_BYTES = 1 << 22


class ScratchPool:
    """The work arrays of one gathered scan, reused from scan to scan.

    A scan takes the same few arrays in the same order every time (two
    ``(pairs, d)`` gather buffers, then the k-best merge matrices), so the
    pool is one byte buffer per *position*: the i-th :meth:`take` since the
    last :meth:`reset` is served from the i-th buffer, which is replaced only
    when a request outgrows it.  The gather cap bounds every request, so a
    worker retains a handful of buffers of bounded size however many scans
    it runs.

    Callers must treat a buffer as dead once the scan that took it
    completes — the contract ``_scan_segments`` satisfies by never holding
    state across calls.
    """

    def __init__(self) -> None:
        self._slots: list[np.ndarray] = []
        self._next = 0

    def reset(self) -> None:
        """Start a new scan: the next :meth:`take` reuses the first buffer."""
        self._next = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable ``shape`` view over a pooled buffer (contents stale)."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if self._next == len(self._slots) or self._slots[self._next].nbytes < nbytes:
            # appends a new position, or replaces one the request outgrew
            self._slots[self._next : self._next + 1] = [np.empty(nbytes, dtype=np.uint8)]
        view = self._slots[self._next][:nbytes].view(dtype).reshape(shape)
        self._next += 1
        return view


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
    scratch: ScratchPool | None = None,
) -> None:
    """One gathered scan: one ring slice of ``s_block`` per R row in ``rows``.

    Builds the flat ``(row, s-index)`` pair list covering exactly the ring
    members each row admits, computes all distances in one counted call, then
    folds each row's candidates into its running k-best matrix:

    * discard candidates strictly beyond their row's current k-th distance —
      the row already holds k candidates at or below it, so such a candidate
      can never enter the k-best (ties survive: an equal distance with a
      smaller id still displaces);
    * per-segment top-``min(survivors, k)`` via one three-key lexsort over
      the (now few) survivors;
    * merge with the current k-best (``inf``/sentinel-padded), ordering each
      row by (distance, id) with two stable row-wise argsorts — the same
      lexicographic tie-breaking as ``np.lexsort``, so results match the
      per-record :class:`~repro.core.knn.ReferenceKBestList` exactly.

    Updates ``best_dists``/``best_ids``/``theta`` in place.  ``scratch``
    supplies the gather and merge work arrays (pooled across scans within a
    job); values written through it are identical to the fresh-allocation
    code it replaced, so results are unchanged.
    """
    if scratch is None:
        scratch = ScratchPool()
    scratch.reset()
    offsets = np.cumsum(lengths) - lengths
    total = int(offsets[-1] + lengths[-1])
    # flat pair list: seg_of_pair repeats each segment, col walks its slice
    col = np.arange(total) - np.repeat(offsets - starts, lengths)
    seg_of_pair = np.repeat(np.arange(rows.size), lengths)
    r_sub = r_points[rows]  # small, cache-resident gather source
    dims = r_points.shape[1]
    r_gather = np.take(r_sub, seg_of_pair, axis=0, out=scratch.take((total, dims)))
    s_gather = np.take(s_block.points, col, axis=0, out=scratch.take((total, dims)))
    flat_dists = metric.pair_distances(r_gather, s_gather)

    kth_per_segment = best_dists[rows, k - 1]
    keep = np.flatnonzero(flat_dists <= kth_per_segment[seg_of_pair])
    if keep.size == 0:
        # every candidate lost to the current k-best; the reference's theta
        # update is a no-op here too (theta <= kth + eps already holds)
        return
    seg_kept = seg_of_pair[keep]
    dists_kept = flat_dists[keep]
    ids_kept = s_block.ids[col[keep]]

    # (segment, distance, id) order => contiguous survivor runs, best first
    order = np.lexsort((ids_kept, dists_kept, seg_kept))
    survivors = np.bincount(seg_kept, minlength=rows.size)
    active = np.flatnonzero(survivors)
    take = np.minimum(survivors[active], k)
    kept_offsets = np.cumsum(survivors) - survivors
    slot = np.arange(int(take.sum())) - np.repeat(np.cumsum(take) - take, take)
    picked = order[np.repeat(kept_offsets[active], take) + slot]

    num_active = active.size
    new_dists = scratch.take((num_active, k))
    new_dists.fill(np.inf)
    new_ids = scratch.take((num_active, k), dtype=np.int64)
    new_ids.fill(_ID_SENTINEL)
    scatter_row = np.repeat(np.arange(num_active), take)
    new_dists[scatter_row, slot] = dists_kept[picked]
    new_ids[scatter_row, slot] = ids_kept[picked]

    updated = rows[active]
    merged_dists = scratch.take((num_active, 2 * k))
    merged_dists[:, :k] = best_dists[updated]
    merged_dists[:, k:] = new_dists
    merged_ids = scratch.take((num_active, 2 * k), dtype=np.int64)
    merged_ids[:, :k] = best_ids[updated]
    merged_ids[:, k:] = new_ids
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
    scratch: ScratchPool | None = None,
) -> None:
    """The numpy scan: strip-mined gathered batches.

    This is the pluggable unit of :func:`knn_join_kernel` — one wavefront
    step's admitted ring slices (``[start, start + length)`` of ``s_block``,
    one per surviving R row, each row at most once), folded into the running
    k-best state.  Kernel providers substitute compiled equivalents; every
    implementation must fold exactly the ``sum(lengths)`` admitted pairs
    (counted through the metric) and leave bit-identical
    ``best_dists``/``best_ids``/``theta``.
    """
    # strip-mine long slices: after the first strip every row's k-th
    # distance is a real bound, so later strips mostly fail the
    # cheap prefilter instead of flooding the candidate sort.  The
    # k-best fold is order-independent, every admitted pair is still
    # computed — results and pair counts are unchanged.
    strip = max(128, 16 * k)
    longest = int(lengths.max())
    # two float64 gather buffers of (pairs, d) must fit the byte budget
    cap = max(1, _GATHER_BYTES // (16 * r_points.shape[1]))
    if longest <= strip and int(lengths.sum()) <= cap:
        # dense-pivot common case: one batch, no strip bookkeeping
        _scan_segments(
            metric, k, r_points, s_block, rows, starts, lengths,
            best_dists, best_ids, theta, scratch,
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
                scratch,
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
    scan=None,
    scratch: ScratchPool | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Run Algorithm 3's reduce phase; yields ``(r_id, neighbor_ids, dists)``.

    Bit-identical to :func:`knn_join_kernel_reference` (same neighbor lists,
    same ``metric.pairs_computed``): every per-row pruning decision, computed
    ``|r, p_j|`` and ring slice is the same, every admitted pair's distance is
    computed with the same IEEE operations — only evaluated batched, one scan
    step (one step window, for the object-pivot distances) at a time across
    all rows of the reducer (see the module docstring).  Rows come out in
    sorted R-cell order, then block row order.

    Parameters
    ----------
    thetas:
        ``theta_i`` per R-partition (Equation 6); ``inf`` disables the initial
        radius (PBJ blocks smaller than k).
    ring_stats:
        ``(L, U)`` per S-partition for Theorem 2 — global table values for
        PGBJ, local block extremes for PBJ.
    pivot_points, pivot_dist_matrix:
        Pivot coordinates and the ``|p_i, p_j|`` matrix.
    use_hyperplane_pruning, use_ring_pruning:
        Ablation switches (both on reproduces the paper).
    scan:
        The scan implementation (defaults to
        :func:`scan_partition_numpy`); kernel providers pass their own.
        Every implementation folds the same admitted pairs with the same
        IEEE operations, so the choice never changes results or counts.
    scratch:
        A :class:`ScratchPool` shared across kernel invocations (reducers
        keep one per worker); a private pool is created when omitted.
    """
    if not s_blocks:
        raise ValueError("reducer received R objects but no S objects")
    if scan is None:
        scan = scan_partition_numpy
    if scratch is None:
        scratch = ScratchPool()
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
    if use_ring_pruning:
        s_keys = segment_keys(np.repeat(np.arange(num_present), s_sizes), s_all.pivot_dists)
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

        theta = np.repeat(
            np.array([thetas[pid] for pid in tile_cells], dtype=np.float64), tile_sizes
        )
        best_dists = np.full((num_rows, k), np.inf, dtype=np.float64)
        best_ids = np.full((num_rows, k), _ID_SENTINEL, dtype=np.int64)
        for first_step, window_end in _step_windows(num_present):
            # |r, p_j| — an object-pivot pair, counted toward selectivity
            # (Equation 13) — is computed only where no distance-free bound
            # decides the (row, cell) pair under the theta of this moment
            visits = order[first_step:window_end][:, cell_of_row]
            gaps = pdm_in_order[first_step:window_end][:, cell_of_row]
            needed = pivot_distance_needed(
                own_dists, gaps, upper[visits], theta, use_hyperplane_pruning, use_ring_pruning
            )
            at_step, at_row = np.nonzero(np.broadcast_to(needed, visits.shape))
            ends = np.searchsorted(at_step, np.arange(window_end - first_step + 1))
            at_visit, at_gap = visits[at_step, at_row], gaps[at_step, at_row]
            at_dist = np.empty(at_row.size, dtype=np.float64)
            for lo in range(0, at_row.size, pivot_cap):
                chunk = slice(lo, lo + pivot_cap)
                at_dist[chunk] = metric.pair_distances(
                    r_points[at_row[chunk]], present_points[at_visit[chunk]]
                )
            # every row visits the step-th S-partition of its own cell's order
            for mine in map(slice, ends[:-1], ends[1:]):
                rows, visit, dist_r_pj = at_row[mine], at_visit[mine], at_dist[mine]
                if use_hyperplane_pruning:
                    # Corollary 1: a row survives unless the hyperplane provably
                    # exceeds its current theta; its own cell is never tested
                    hyperplane = hyperplane_distances(
                        own_dists[rows], dist_r_pj, at_gap[mine], euclidean
                    )
                    own = present_ids[visit] == cell_ids[cell_of_row[rows]]
                    keep = own | (hyperplane <= theta[rows] + PRUNE_EPS)
                    rows, visit, dist_r_pj = rows[keep], visit[keep], dist_r_pj[keep]
                if rows.size == 0:
                    continue
                if use_ring_pruning:
                    starts, stops = ring_slices(
                        s_keys, lower[visit], upper[visit], dist_r_pj, theta[rows], visit
                    )
                else:
                    starts, stops = s_offsets[visit], s_offsets[visit + 1]
                lengths = stops - starts
                occupied = np.flatnonzero(lengths > 0)
                if occupied.size == 0:
                    continue
                scan(
                    metric, k, r_points, s_all, rows[occupied], starts[occupied],
                    lengths[occupied], best_dists, best_ids, theta, scratch,
                )
        # unfilled slots are +inf / sentinel padding at the tail
        counts = (best_dists < np.inf).sum(axis=1).tolist()
        for row, (r_id, count) in enumerate(zip(r_ids.tolist(), counts)):
            yield r_id, best_ids[row, :count].copy(), best_dists[row, :count].copy()


def knn_join_kernel_reference(
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
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The per-record kernel, kept as the correctness oracle.

    One R point at a time, scalar pruning tests, full-lexsort k-best list —
    the seed's loop, computing ``|r, p_j|`` by the same window rule as
    :func:`knn_join_kernel` (one ``metric.distances`` per record and window).
    The equivalence tests (``tests/test_kernels.py``) hold
    :func:`knn_join_kernel` to byte-identical outputs and pair counts against
    this implementation.
    """
    if not s_blocks:
        raise ValueError("reducer received R objects but no S objects")
    present = sorted(s_blocks)
    present_points = pivot_points[present]
    euclidean = metric.name == "l2"

    for pid_r in sorted(r_blocks):
        r_block = r_blocks[pid_r]
        theta_i = thetas[pid_r]
        pdm_row = pivot_dist_matrix[pid_r]
        order = sorted(range(len(present)), key=lambda idx: pdm_row[present[idx]])

        for row in range(r_block.ids.shape[0]):
            kbest = ReferenceKBestList(k)
            theta = theta_i
            dist_r_own = float(r_block.pivot_dists[row])
            for first_step, window_end in _step_windows(len(order)):
                # the window rule of knn_join_kernel, one record at a time
                wanted = [
                    idx
                    for idx in order[first_step:window_end]
                    if pivot_distance_needed(
                        dist_r_own, float(pdm_row[present[idx]]), ring_stats[present[idx]][1],
                        theta, use_hyperplane_pruning, use_ring_pruning,
                    )
                ]
                dr_to_pivots = metric.distances(r_block.points[row], present_points[wanted])
                for idx, dist_r_pj in zip(wanted, dr_to_pivots.tolist()):
                    pid_s = present[idx]
                    if (
                        use_hyperplane_pruning
                        and pid_s != pid_r
                        and partition_pruned_by_hyperplane(
                            dist_r_own, dist_r_pj, float(pdm_row[pid_s]), theta, euclidean
                        )
                    ):
                        continue  # Corollary 1 discards the whole cell
                    block = s_blocks[pid_s]
                    if use_ring_pruning and np.isfinite(theta):
                        lower, upper = ring_stats[pid_s]
                        start, stop = ring_slice(
                            block.pivot_dists, lower, upper, dist_r_pj, theta
                        )
                    else:
                        start, stop = 0, len(block)
                    if start >= stop:
                        continue
                    dists = metric.distances(r_block.points[row], block.points[start:stop])
                    kbest.update(dists, block.ids[start:stop])
                    if kbest.is_full():
                        theta = min(theta, kbest.theta + PRUNE_EPS)
            neighbor_ids, neighbor_dists = kbest.as_arrays()
            yield int(r_block.ids[row]), neighbor_ids, neighbor_dists
