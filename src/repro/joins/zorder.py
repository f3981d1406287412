"""Extension: H-zkNNJ-style *approximate* kNN join on z-order curves.

The paper cites H-zkNNJ (Zhang et al., EDBT 2012) as the approximate
competitor and explicitly excludes it ("we focus on exactly processing kNN
join queries ... thus excluding approximate methods, like LSH or H-zkNNJ").
This module implements it as an extension so the exact/approximate trade-off
can be measured inside the same harness.

Algorithm sketch (two MapReduce jobs, like the block framework):

1. Draw ``num_shifts`` random shift vectors (the first is zero) in the cube
   the curve's grid covers — one cell size for every dimension, because an
   L_p distance weighs every coordinate equally.  For each shift, both
   datasets are mapped onto the z-order curve of the shifted space; ``S``'s
   curve is range-partitioned into ``num_reducers`` blocks by z-value
   quantiles estimated from a master-side sample.  Every ``r`` goes to the
   block covering its z-value; every ``s`` goes to its own block and — to
   heal block boundaries — to the neighboring block when it lies within ``k``
   curve positions of the boundary estimate.
2. Each reducer sorts its S block by z-value and, for each ``r``, takes the
   ``2k`` nearest S objects *along the curve* as candidates, computing their
   true distances.  A merge job keeps the best k per ``r`` across all shifts.

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
windowed gather and one counted pair-distance call, and hands the candidate
lists to the shared merge job as
:class:`~repro.mapreduce.types.NeighborBlock` values
(:func:`~repro.joins.block_framework.candidate_emissions`).

The result is approximate: a true neighbor may be z-far in every shift.
Quality is measured by :func:`recall_against` (fraction of exact neighbors
found) and the distance ratio.  A curve copy ships every object once more
and scans ``2 * candidates_per_side`` more pairs per ``r``; on 10-d Forest
x10 it buys recall 0.59 → 0.78 → 0.86 → 0.91 (1–4 copies, README's table).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.result import KnnJoinResult
from repro.core.zorder import ZOrderTransform
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import dataset_splits
from repro.mapreduce.types import NeighborBlock, RecordBlock, group_rows_by, ranks_within

from .base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME, JoinConfig
from .block_framework import candidate_emissions, knn_outcome_assembler, merge_stage
from .kernels import KERNELS
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["ZOrderConfig", "plan_zorder", "recall_against"]


@dataclass
class ZOrderConfig(JoinConfig):
    """Configuration for the approximate z-order join.

    ``num_shifts`` is the alpha of H-zkNNJ (copies of the curve; the default,
    the plain curve plus one shifted copy, targets recall 0.75 on Forest x10);
    ``bits`` the per-dimension quantization; ``candidates_per_side`` how many
    curve neighbors each side contributes (``None``: k, the classic choice,
    resolved when the join is planned so it follows ``with_changes(k=...)``);
    ``sample_size`` how many S objects the master samples per shift to place
    the block boundaries.
    """

    num_shifts: int = 2
    bits: int = 16
    candidates_per_side: int | None = None
    sample_size: int = 1024

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_shifts < 1:
            raise ValueError("num_shifts must be >= 1")
        if not 1 <= self.bits <= 32:
            raise ValueError("bits must be in [1, 32]")
        if self.candidates_per_side is not None and self.candidates_per_side < 0:
            raise ValueError("candidates_per_side must be >= 0 (or None for k)")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


class ZOrderRoutingMapper(BlockBufferingMapper):
    """Routes objects to (shift, z-range block) reducers, a block at a time.

    Per shift the task's whole input is encoded in one
    :meth:`~repro.joins.kernels.KernelProvider.morton_codes` call
    and placed with one ``searchsorted`` against the block boundaries; an
    ``s`` additionally feeds the neighbor block when its z-value sits within
    the margin of the boundary between them (boundary healing), decided by
    comparing keys against the precomputed ``boundary ± margin`` keys.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._shifts: np.ndarray = ctx.cache["shifts"]
        self._transform: ZOrderTransform = ctx.cache["transform"]
        #: per shift: (boundary keys, boundary + margin, boundary - margin)
        self._boundaries: list[tuple[np.ndarray, ...]] = ctx.cache["boundaries"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])

    def route_block(self, block: RecordBlock, ctx: Context):
        # the wire row is (is_r, id, point, z): no payload bytes travel
        block = replace(block, payloads=np.zeros_like(block.payloads))
        s_rows = np.flatnonzero(~block.is_r)
        r_count = len(block) - int(s_rows.size)
        last = self._blocks_per_shift - 1
        for shift_index, shift in enumerate(self._shifts):
            keys = KERNELS.morton_codes(self._transform, block.points + shift)
            boundaries, above, below = self._boundaries[shift_index]
            own = np.searchsorted(boundaries, keys, side="right")
            rows, targets = [np.arange(len(block))], [own]
            if last:
                s_own, s_keys = own[s_rows], keys[s_rows]
                down = (s_own > 0) & (s_keys <= above[s_own - 1])
                up = (s_own < last) & (s_keys >= below[np.minimum(s_own, last - 1)])
                rows += [s_rows[down], s_rows[up]]
                targets += [s_own[down] - 1, s_own[up] + 1]
            rows, targets = np.concatenate(rows), np.concatenate(targets)
            ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, int(rows.size) - r_count)
            # within a reducer key, rows keep the task's record order
            by_row = np.argsort(rows, kind="stable")
            rows, targets = rows[by_row], targets[by_row]
            for target, picks in group_rows_by(targets):
                yield shift_index * self._blocks_per_shift + target, block.take(rows[picks])


class ZOrderJoinReducer(Reducer):
    """Per (shift, block): curve-neighbor candidates with true distances."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._per_side = int(ctx.cache["candidates_per_side"])
        self._shifts: np.ndarray = ctx.cache["shifts"]
        self._transform: ZOrderTransform = ctx.cache["transform"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])

    def reduce(self, key, values, ctx: Context):
        block = RecordBlock.gather(values)
        r_rows = np.flatnonzero(block.is_r)
        s_rows = np.flatnonzero(~block.is_r)
        if r_rows.size == 0 or s_rows.size == 0:
            return ()
        shift = self._shifts[int(key) // self._blocks_per_shift]
        keys = KERNELS.morton_codes(self._transform, block.points + shift)
        s_rows = s_rows[np.lexsort((block.object_ids[s_rows], keys[s_rows]))]
        # each r's window: per_side curve positions either side of where its
        # z-value falls in the sorted S block, clipped at the block's ends
        # (never empty: per_side >= 1 and the block holds at least one s)
        center = np.searchsorted(keys[s_rows], keys[r_rows], side="left")
        start = np.maximum(center - self._per_side, 0)
        lengths = np.minimum(center + self._per_side, s_rows.size) - start
        owner = np.repeat(np.arange(r_rows.size), lengths)
        rank = ranks_within(lengths)
        window = s_rows[start[owner] + rank]
        ids = block.object_ids[window]
        dists = self._metric.pair_distances(block.points[r_rows[owner]], block.points[window])
        # the k best of every window under (distance, id): sorting keeps each
        # r's candidates in its own span, so rank still counts from its start
        best = np.lexsort((ids, dists, owner))[rank < self._k]
        candidates = NeighborBlock.from_counts(
            block.object_ids[r_rows], np.minimum(lengths, self._k), ids[best], dists[best]
        )
        return candidate_emissions(candidates, ctx)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_zorder(r: Dataset, s: Dataset, config: ZOrderConfig) -> JoinPlan:
    """Plan the approximate join: ``zorder/join`` → ``zorder/merge``."""
    graph = JobGraph("zorder")
    # out-of-core configs stage the candidate lists between the stages on disk
    dfs = graph.resource(config.chain_dfs())

    def build_join(ctx):
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
            + [
                rng.random(r.dimensions) * side * 0.25
                for _ in range(config.num_shifts - 1)
            ]
        )
        transform = ZOrderTransform.for_box(lo, hi, bits=config.bits, padding=0.3)
        blocks_per_shift = max(1, config.num_reducers // config.num_shifts)
        sample_rows = rng.choice(
            len(s), size=min(config.sample_size, len(s)), replace=False
        )
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

        job = MapReduceJob(
            name="zorder-join",
            mapper_factory=ZOrderRoutingMapper,
            reducer_factory=ZOrderJoinReducer,
            partitioner=ModPartitioner(),
            num_reducers=config.num_shifts * blocks_per_shift,
            cache={
                "shifts": shifts,
                "transform": transform,
                "boundaries": boundaries,
                "blocks_per_shift": blocks_per_shift,
                "metric_name": config.metric_name,
                "k": config.k,
                "candidates_per_side": config.candidates_per_side or config.k,
                "merge_reducers": config.num_reducers,
            },
        )
        return job, dataset_splits(r, s, config.split_size)

    join = graph.stage("zorder/join", build_join)

    stages = (join, merge_stage(graph, config, dfs, join))
    assemble = knn_outcome_assembler("zorder", r, s, config, stages, ("knn_join", "merge"))
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
