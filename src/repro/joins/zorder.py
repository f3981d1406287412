"""Extension: H-zkNNJ-style *approximate* kNN join on z-order curves.

The paper cites H-zkNNJ (Zhang et al., EDBT 2012) as the approximate
competitor and explicitly excludes it ("we focus on exactly processing kNN
join queries ... thus excluding approximate methods, like LSH or H-zkNNJ").
This module implements it as an extension so the exact/approximate trade-off
can be measured inside the same harness.

Algorithm sketch (``min(num_shifts, 2)`` MapReduce jobs):

1. Draw ``num_shifts`` random shift vectors (the first is zero) in the cube
   the curve's grid covers — one cell size for every dimension, because an
   L_p distance weighs every coordinate equally.  For each shift, both
   datasets are mapped onto the z-order curve of the shifted space; ``S``'s
   curve is range-partitioned into ``num_reducers // num_shifts`` blocks by
   z-value quantiles estimated from a master-side sample.  Every ``r`` goes
   to the block covering its z-value; every ``s`` goes to its own block and
   — to heal block boundaries — to the neighboring block when it lies within
   ``k`` curve positions of the boundary estimate.  A self-join (``r is s``)
   reads each object once (:func:`~repro.mapreduce.splits.join_splits`) and
   ships it once per shift: the row to its own block carries both roles, its
   healing copies only S, so no ``r`` is answered twice in one shift.
2. Each reducer sorts its S block by z-value and, for each ``r``, takes the
   ``2k`` nearest S objects *along the curve* as candidates, computing their
   true distances.  In a self-join an ``s`` in ``r``'s window nearly always
   has ``r`` in its own window too: each such pair is computed once and
   read twice, and an object's own entry not at all.
3. H-zkNNJ then runs a merge round over every copy's lists.  Here the last
   curve copy is that round: the first job (``zorder/join``) runs copies
   ``0 … num_shifts − 2`` and keys each ``r``'s k best under ``r``'s own
   block of the last copy (:func:`curve_blocks`, the mapper's own rule);
   the second (``zorder/last``) routes copy ``num_shifts − 1`` beside those
   lists, and each of its reducers folds the lists into its own windows'
   (:func:`~repro.joins.block_framework.merge_candidates`).  Each ``r``'s
   lists thus ship ``num_shifts − 1`` times, not ``num_shifts``; top-k by
   ``(distance, id)`` with id dedup is associative, so the result is the
   merge round's.  One copy needs the second job alone.

The join is array-shaped end to end.  Z-values are fixed-width byte keys
(:meth:`~repro.core.zorder.ZOrderTransform.z_keys`), so a map task places its
whole input with one ``searchsorted`` per shift and decides healing by
comparing keys against ``boundary ± margin`` keys the master precomputed; it
emits one :class:`~repro.mapreduce.types.RecordBlock` per (shift, z-block)
reducer key.  A row weighs what the historical ``(is_r, id, point, z)`` tuple
did — the block's payload column is zero, and its two 8-byte annotation
columns weigh what the tuple's framing and z-value did — and z itself is not
shipped: the reducer recomputes it from the shift its key names.  The reducer
answers all its ``r`` with one ``(z, id)`` lexsort, one ``searchsorted``, one
windowed gather, a few gathers that pair each window entry with its mirror
(:func:`mirror_entries`) and one counted pair-distance call; its candidate
lists travel as :class:`~repro.mapreduce.types.NeighborBlock` values.

The result is approximate: a true neighbor may be z-far in every shift.
Quality is measured by :func:`recall_against` (fraction of exact neighbors
found) and the distance ratio.  A curve copy ships every object once more
in a self-join (an R row and an S row apart when R ≠ S), every ``r``'s
candidate list once more beyond the first copy, and scans ``2 *
candidates_per_side`` more pairs per ``r`` (about half of them computed in a
self-join, the rest mirrors); on 10-d Forest x10 it buys
recall 0.60 → 0.75 → 0.85 → 0.89 (1–4 copies, README's table).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.result import KnnJoinResult
from repro.core.zorder import ZOrderTransform
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import join_splits
from repro.mapreduce.types import ROLE_S, NeighborBlock, RecordBlock, group_rows_by, ranks_within

from .base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME, JoinConfig
from .block_framework import chain_splits, knn_outcome_assembler, merge_candidates
from .kernels import KERNELS
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["ZOrderConfig", "curve_blocks", "plan_zorder", "recall_against"]

#: per-dimension quantization of the curve
CURVE_BITS = 16
#: S objects the master samples per curve copy to place its block boundaries
BOUNDARY_SAMPLE_SIZE = 1024


@dataclass
class ZOrderConfig(JoinConfig):
    """Configuration for the approximate z-order join.

    ``num_shifts`` is the alpha of H-zkNNJ (copies of the curve; the default,
    the plain curve plus one shifted copy, targets recall 0.75 on Forest x10);
    ``candidates_per_side`` how many curve neighbors each side contributes
    (``None``: k, the classic choice, resolved when the join is planned so it
    follows ``with_changes(k=...)``).  The curve's quantization
    (:data:`CURVE_BITS`) and the master's boundary sample
    (:data:`BOUNDARY_SAMPLE_SIZE`) are constants.
    """

    num_shifts: int = 2
    candidates_per_side: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shifts < 1:
            raise ValueError("num_shifts must be >= 1")
        if self.candidates_per_side is not None and self.candidates_per_side < 0:
            raise ValueError("candidates_per_side must be >= 0 (or None for k)")


def curve_blocks(
    transform: ZOrderTransform, points: np.ndarray, shift: np.ndarray, boundaries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's z-key on the curve copy ``shift`` moves it by, and the
    block of that copy it falls in (``boundaries``: the copy's block
    boundary keys).  The one rule that routes an object's row and keys its
    candidate list for the last copy, so the two always meet."""
    keys = KERNELS.morton_codes(transform, points + shift)
    return keys, np.searchsorted(boundaries, keys, side="right")


class ZOrderRoutingMapper(BlockBufferingMapper):
    """Routes objects to (shift, z-range block) reducers, a block at a time.

    Per shift of its job the task's whole input is placed with one
    :func:`curve_blocks` call; an ``s`` additionally feeds the neighbor
    block when its z-value sits within the margin of the boundary between
    them (boundary healing), decided by comparing keys against the
    precomputed ``boundary ± margin`` keys.  Candidate lists an earlier job
    keyed (:class:`~repro.mapreduce.types.NeighborBlock` values) pass
    through under their key.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._shifts: np.ndarray = ctx.cache["shifts"]
        self._transform: ZOrderTransform = ctx.cache["transform"]
        #: per shift: (boundary keys, boundary + margin, boundary - margin)
        self._boundaries: list[tuple[np.ndarray, ...]] = ctx.cache["boundaries"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])

    def map(self, key, value, ctx: Context):
        if isinstance(value, NeighborBlock):
            return ((key, value),)
        return super().map(key, value, ctx)

    def route_block(self, block: RecordBlock, ctx: Context):
        # the wire row is (role, id, point, z): no payload bytes travel
        block = replace(block, payloads=np.zeros_like(block.payloads))
        s_rows = np.flatnonzero(block.is_s)
        r_count = len(block) - int(s_rows.size)
        last = self._blocks_per_shift - 1
        for shift_index, (shift, (boundaries, above, below)) in enumerate(
            zip(self._shifts, self._boundaries)
        ):
            keys, own = curve_blocks(self._transform, block.points, shift, boundaries)
            rows, targets = [np.arange(len(block))], [own]
            if last:
                s_own, s_keys = own[s_rows], keys[s_rows]
                down = (s_own > 0) & (s_keys <= above[s_own - 1])
                up = (s_own < last) & (s_keys >= below[np.minimum(s_own, last - 1)])
                rows += [s_rows[down], s_rows[up]]
                targets += [s_own[down] - 1, s_own[up] + 1]
            rows, targets = np.concatenate(rows), np.concatenate(targets)
            ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, int(rows.size) - r_count)
            # a healing copy is S only: its r is answered in its own block
            roles = block.role[rows]
            roles[len(block):] &= ROLE_S
            # within a reducer key, rows keep the task's record order
            by_row = np.argsort(rows, kind="stable")
            rows, targets, roles = rows[by_row], targets[by_row], roles[by_row]
            for target, picks in group_rows_by(targets):
                part = replace(block.take(rows[picks]), role=roles[picks])
                yield shift_index * self._blocks_per_shift + target, part


class ZOrderJoinReducer(Reducer):
    """Per (shift, block): curve-neighbor candidates with true distances.

    In ``zorder/join`` (the cache's ``last`` names the last copy's shift and
    boundary keys) each ``r``'s k best leave under ``r``'s block of the last
    copy.  In ``zorder/last`` (``last`` is ``None``) they are folded with
    the lists that arrived under the reducer's own key into ``r``'s final k
    — also where the block holds no S row to add a list of its own.
    """

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._per_side = int(ctx.cache["candidates_per_side"])
        self._shifts: np.ndarray = ctx.cache["shifts"]
        self._transform: ZOrderTransform = ctx.cache["transform"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])
        self._last: tuple[np.ndarray, np.ndarray] | None = ctx.cache["last"]

    def reduce(self, key, values, ctx: Context):
        rows, lists = [], []
        for value in values:
            (lists if isinstance(value, NeighborBlock) else rows).append(value)
        block = RecordBlock.gather(rows)
        r_rows = np.flatnonzero(block.is_r)
        own = self._windows(key, block, r_rows)
        if self._last is None:
            if own is not None:
                lists.append(own)
            if lists:
                yield key, merge_candidates(NeighborBlock.gather(lists), self._k)
        elif own is not None:
            _, targets = curve_blocks(self._transform, block.points[r_rows], *self._last)
            yield from own.with_id_dtype(block.object_ids.dtype).split_by(targets)

    def _windows(self, key, block: RecordBlock, r_rows: np.ndarray) -> NeighborBlock | None:
        """The k best of every ``r`` row's window (``None``: no R or no S row)."""
        s_rows = np.flatnonzero(block.is_s)
        if r_rows.size == 0 or s_rows.size == 0:
            return None
        object_ids = block.object_ids.astype(np.int64)
        shift = self._shifts[int(key) // self._blocks_per_shift]
        keys = KERNELS.morton_codes(self._transform, block.points + shift)
        s_rows = s_rows[np.lexsort((object_ids[s_rows], keys[s_rows]))]
        # each r's window: per_side curve positions either side of where its
        # z-value falls in the sorted S block, clipped at the block's ends
        # (never empty: per_side >= 1 and the block holds at least one s)
        center = np.searchsorted(keys[s_rows], keys[r_rows], side="left")
        start = np.maximum(center - self._per_side, 0)
        lengths = np.minimum(center + self._per_side, s_rows.size) - start
        owner = np.repeat(np.arange(r_rows.size), lengths)
        rank = ranks_within(lengths)
        window = s_rows[start[owner] + rank]
        asker, ids = r_rows[owner], object_ids[window]
        # in a self-join the window row often asks for the asker too: such a
        # mirrored pair is computed once, by the entry whose asker is the
        # smaller row, and read by the other (the metrics are bitwise
        # symmetric); a row's own entry (the same row, of both roles) is 0.0
        # uncomputed, as PGBJ's own-cell memo reads it
        mirror = mirror_entries(len(block), r_rows, s_rows, start, lengths, owner, window)
        computed = np.flatnonzero((asker < window) | ((asker > window) & (mirror < 0)))
        dists = np.zeros(window.size)
        dists[computed] = self._metric.pair_distances(
            block.points[asker[computed]], block.points[window[computed]]
        )
        copied = np.flatnonzero((asker > window) & (mirror >= 0))
        dists[copied] = dists[mirror[copied]]
        # the k best of every window under (distance, id): sorting keeps each
        # r's candidates in its own span, so rank still counts from its start
        best = np.lexsort((ids, dists, owner))[rank < self._k]
        return NeighborBlock.from_counts(
            object_ids[r_rows], np.minimum(lengths, self._k), ids[best], dists[best]
        )

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def mirror_entries(
    rows: int,
    r_rows: np.ndarray,
    s_rows: np.ndarray,
    start: np.ndarray,
    lengths: np.ndarray,
    owner: np.ndarray,
    window: np.ndarray,
) -> np.ndarray:
    """Each window entry's mirror: the entry in which its window row asks
    for its asker, or -1 where there is none.

    ``r_rows[i]``'s window is ``s_rows[start[i] : start[i] + lengths[i]]``
    (positions in the z-sorted S block of ``rows`` rows), and the entries
    lie window after window: entry ``e`` is ``(r_rows[owner[e]],
    window[e])``.  A mirror needs the window row to ask (to be an R row) and
    the asker to lie in that row's window, so it is read off the windows'
    ranges, with no search, whatever ties on z did to their centres.  Only a
    row of both roles can mirror: an R != S join has none.
    """
    r_index = np.full(rows, -1)
    r_index[r_rows] = np.arange(r_rows.size)
    s_index = np.full(rows, -1)
    s_index[s_rows] = np.arange(s_rows.size)
    # the window row's own window (if it asks), and the asker's place in it
    theirs = r_index[window]
    at = s_index[r_rows[owner]] - start[theirs]
    found = (theirs >= 0) & (at >= 0) & (at < lengths[theirs])
    first = np.cumsum(lengths) - lengths
    return np.where(found, first[theirs] + at, -1)


def plan_zorder(r: Dataset, s: Dataset, config: ZOrderConfig) -> JoinPlan:
    """Plan the approximate join: ``zorder/join`` (curve copies ``0 …
    num_shifts − 2``; absent for one copy) → ``zorder/last`` (the last copy,
    fed the first job's candidate lists beside the data, emits the result)."""
    graph = JobGraph("zorder")
    # out-of-core configs stage the candidate lists between the stages on disk
    dfs = graph.resource(config.chain_dfs())
    final = config.num_shifts - 1

    @functools.cache
    def curves():
        rng = np.random.default_rng(config.seed)
        # master-side preprocessing: shifts, transform, quantile boundaries
        # (untimed, as the imperative driver had it — a new master phase
        # would change simulated_seconds vs the pre-plan outcomes)
        lo = np.minimum(r.points.min(axis=0), s.points.min(axis=0))
        hi = np.maximum(r.points.max(axis=0), s.points.max(axis=0))
        # box-wide shift vectors: one scale for every coordinate, the grid's
        side = max(float(np.max(hi - lo)), 1e-9)
        shifts = np.vstack(
            [np.zeros(r.dimensions)]
            + [rng.random(r.dimensions) * side * 0.25 for _ in range(final)]
        )
        transform = ZOrderTransform.for_box(lo, hi, bits=CURVE_BITS, padding=0.3)
        blocks_per_shift = max(1, config.num_reducers // config.num_shifts)
        sample_rows = rng.choice(len(s), size=min(BOUNDARY_SAMPLE_SIZE, len(s)), replace=False)
        top = (1 << transform.total_bits) - 1
        boundaries: list[tuple[np.ndarray, ...]] = []
        for shift in shifts:
            # a sample's worth of codes as ints: gaps need real subtraction
            sample_z = sorted(transform.z_values(s.points[sample_rows] + shift))
            quantiles = [
                sample_z[int(len(sample_z) * q / blocks_per_shift)]
                for q in range(1, blocks_per_shift)
            ]
            # boundary margin: median z-gap between curve neighbors, times k
            gaps = [b - a for a, b in zip(sample_z, sample_z[1:])] or [0]
            margin = int(sorted(gaps)[len(gaps) // 2] * config.k)
            boundaries.append(
                (
                    transform.keys_of(quantiles),
                    transform.keys_of(min(q + margin, top) for q in quantiles),
                    transform.keys_of(max(q - margin, 0) for q in quantiles),
                )
            )
        return shifts, transform, boundaries, blocks_per_shift

    def copies_job(name: str, copies: range) -> MapReduceJob:
        """The job routing and joining the curve ``copies``; the last copy's
        job folds the lists, an earlier one keys them for it."""
        shifts, transform, boundaries, blocks_per_shift = curves()
        return MapReduceJob(
            name=name,
            mapper_factory=ZOrderRoutingMapper,
            reducer_factory=ZOrderJoinReducer,
            partitioner=ModPartitioner(),
            num_reducers=len(copies) * blocks_per_shift,
            cache={
                "shifts": shifts[copies.start : copies.stop],
                "transform": transform,
                "boundaries": boundaries[copies.start : copies.stop],
                "blocks_per_shift": blocks_per_shift,
                "metric_name": config.metric_name,
                "k": config.k,
                "candidates_per_side": config.candidates_per_side or config.k,
                "last": None if final in copies else (shifts[final], boundaries[final][0]),
            },
        )

    upstream = ()
    if final:

        def build_join(ctx):
            return copies_job("zorder-join", range(final)), join_splits(r, s, config.split_size)

        upstream = (graph.stage("zorder/join", build_join),)

    def build_last(ctx):
        splits = join_splits(r, s, config.split_size)
        for stage in upstream:
            lists = chain_splits(config, dfs, "zorder-lists", ctx.result_of(stage).outputs)
            splits += [replace(split, split_id=len(splits) + i) for i, split in enumerate(lists)]
        return copies_job("zorder-last", range(final, final + 1)), splits

    stages = (*upstream, graph.stage("zorder/last", build_last, deps=upstream))
    assemble = knn_outcome_assembler(
        "zorder", r, s, config, stages, ("knn_join",) * len(stages)
    )
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="zorder",
        config_class=ZOrderConfig,
        plan=plan_zorder,
        summary="approximate H-zkNNJ-style join on shifted z-order curves",
    )
)


def recall_against(
    approximate: KnnJoinResult, exact: KnnJoinResult
) -> tuple[float, float]:
    """Quality of an approximate join: ``(recall, distance_ratio)``.

    Recall is measured on distances (tie-insensitive): an approximate
    neighbor counts when its distance is within the exact k-th radius.  The
    distance ratio is mean(approx kth / exact kth) — 1.0 means perfect.
    """
    hits = 0
    total = 0
    ratios = []
    for r_id in exact.r_ids():
        _, exact_dists = exact.neighbors_of(r_id)
        if r_id not in approximate:
            total += exact_dists.size
            continue
        _, approx_dists = approximate.neighbors_of(r_id)
        radius = exact_dists[-1] + 1e-9
        hits += int((approx_dists <= radius).sum())
        total += exact_dists.size
        if approx_dists.size and exact_dists[-1] > 0:
            ratios.append(approx_dists[-1] / exact_dists[-1])
        else:
            ratios.append(1.0)
    recall = hits / total if total else 0.0
    ratio = float(np.mean(ratios)) if ratios else float("inf")
    return recall, ratio
