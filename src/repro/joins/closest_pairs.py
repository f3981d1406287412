"""Top-k closest pairs in MapReduce (paper ref [11], Kim & Shim, ICDE 2012).

The paper's related work singles out the *parallel top-k similarity join* —
"extract k closest object pairs from two input datasets" — as the special
case of the kNN join.  This operator implements it on the same substrate:

1. both datasets are pivot-partitioned (the shared, content-keyed
   ``partition`` stage — the same plan prefix PGBJ and PBJ reuse);
2. block reducers compute their local kNN join with the Algorithm 3 kernel
   and emit only their k *globally smallest* candidate pairs — any global
   top-k pair (r, s) meets in exactly one block and there appears among r's
   local k nearest, so the union of local top-k lists covers the answer;
3. a single-reducer merge job keeps the k smallest pairs overall.

Planned as ``closest-pairs/partition`` → ``closest-pairs/block`` →
``closest-pairs/merge``.  Self-joins may exclude the trivial zero-distance
identity pairs via ``exclude_self``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.mapreduce.job import Context, MapReduceJob, Mapper, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph

from .base import PAIRS_GROUP, PAIRS_NAME, BlockJoinConfig
from .block_framework import block_join_spec, chain_splits, fused_or_chained
from .kernel_providers import get_kernel_provider
from .kernels import (
    ScratchPool,
    build_partition_blocks,
    local_ring_stats,
    local_theta,
)
from .partition_job import partition_stage
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["ClosestPairsOutcome", "plan_closest_pairs"]


class ClosestPairsBlockReducer(Reducer):
    """Local kNN join, then keep the block's k smallest (r, s) pairs."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._pivots: np.ndarray = ctx.cache["pivots"]
        self._pdm: np.ndarray = ctx.cache["pivot_dist_matrix"]
        self._exclude_self = bool(ctx.cache["exclude_self"])
        self._provider = get_kernel_provider(ctx.cache.get("kernel_provider", "auto"))
        self._scratch = ScratchPool()

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(values)
        if not r_blocks or not s_blocks:
            return
        ring_stats = local_ring_stats(s_blocks)
        thetas = {
            pid: local_theta(block.local_upper(), self._pdm[pid], s_blocks, self._k)
            for pid, block in r_blocks.items()
        }
        # max-heap (negated) of the k smallest pairs seen in this block
        heap: list[tuple[float, int, int]] = []
        for r_id, ids, dists in self._provider.knn_join_kernel(
            self._metric, self._k, r_blocks, s_blocks, thetas, ring_stats,
            self._pivots, self._pdm, scratch=self._scratch,
        ):
            for s_id, dist in zip(ids.tolist(), dists.tolist()):
                if self._exclude_self and s_id == r_id:
                    continue
                entry = (-dist, r_id, s_id)
                if len(heap) < self._k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:  # smaller distance than the worst kept
                    heapq.heapreplace(heap, entry)
        for neg_dist, r_id, s_id in heap:
            yield 0, (r_id, s_id, -neg_dist)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


class PairMergeMapper(Mapper):
    """Identity; all candidate pairs flow to the single merge reducer."""

    def map(self, key, value, ctx: Context):
        yield 0, value


class PairMergeReducer(Reducer):
    """Global k smallest pairs, ties broken by (distance, r_id, s_id)."""

    def setup(self, ctx: Context) -> None:
        self._k = int(ctx.cache["k"])

    def reduce(self, key, values, ctx: Context):
        ranked = sorted(values, key=lambda pair: (pair[2], pair[0], pair[1]))
        for r_id, s_id, dist in ranked[: self._k]:
            yield (r_id, s_id), dist


class ClosestPairsOutcome:
    """The top-k pairs plus the run's measurements."""

    def __init__(self, pairs, distance_pairs, shuffle_bytes, r_size, s_size) -> None:
        #: list of ``(r_id, s_id, distance)`` ascending by distance
        self.pairs = pairs
        self.distance_pairs = distance_pairs
        self.shuffle_bytes = shuffle_bytes
        self._r_size = r_size
        self._s_size = s_size

    def selectivity(self) -> float:
        """Computed pairs over |R| x |S|."""
        return self.distance_pairs / (self._r_size * self._s_size)


def plan_closest_pairs(
    r: Dataset, s: Dataset, config: BlockJoinConfig, exclude_self: bool = False
) -> JoinPlan:
    """Plan the distributed top-k closest-pairs operator."""
    if config.k > len(r) * len(s):
        raise ValueError("k exceeds |R| x |S|")
    graph = JobGraph("closest-pairs")
    dfs = graph.resource(config.chain_dfs())
    state: dict = {}

    partition = partition_stage(
        graph, r, s, config, min(config.num_pivots, len(r)), state
    )

    def build_block(ctx):
        job1 = ctx.result_of(partition)
        # Coverage: a global top-k pair (r, s) appears among r's local k
        # nearest in its block (fewer than k better pairs exist anywhere).
        # Excluding identity pairs costs one slot per r, hence k + 1.
        kernel_k = min(config.k + (1 if exclude_self else 0), len(s))
        job2 = block_join_spec(
            name="closest-pairs-block",
            reducer_factory=ClosestPairsBlockReducer,
            num_blocks=config.num_blocks,
            cache={
                "metric_name": config.metric_name,
                "k": kernel_k,
                "pivots": state["pivots"],
                "pivot_dist_matrix": state["pivot_dist_matrix"],
                "exclude_self": exclude_self,
                "kernel_provider": config.kernel_provider,
            },
        )
        return job2, chain_splits(config, dfs, "partitioned", job1.outputs)

    block = graph.stage("closest-pairs/block", build_block, deps=(partition,))

    def build_merge(ctx):
        job3 = MapReduceJob(
            name="closest-pairs-merge",
            mapper_factory=PairMergeMapper,
            reducer_factory=PairMergeReducer,
            partitioner=ModPartitioner(),
            num_reducers=1,
            cache={"k": config.k},
        )
        # the block reducer already keys every pair 0, so PairMergeMapper is
        # the identity over this producer's outputs: premapped fusion applies
        return job3, fused_or_chained(config, dfs, "block-pairs", ctx, block)

    merge = graph.stage("closest-pairs/merge", build_merge, deps=(block,))

    def assemble(run) -> ClosestPairsOutcome:
        jobs = [run.result_of(stage) for stage in (partition, block, merge)]
        pairs = [
            (int(r_id), int(s_id), float(dist))
            for (r_id, s_id), dist in jobs[-1].outputs
        ]
        distance_pairs = state["metric"].pairs_computed
        for job in jobs:
            distance_pairs += job.counters.value(PAIRS_GROUP, PAIRS_NAME)
        return ClosestPairsOutcome(
            pairs=pairs,
            distance_pairs=distance_pairs,
            shuffle_bytes=jobs[1].stats.shuffle_bytes + jobs[2].stats.shuffle_bytes,
            r_size=len(r),
            s_size=len(s),
        )

    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="closest-pairs",
        config_class=BlockJoinConfig,
        plan=plan_closest_pairs,
        kind="operator",
        summary="parallel top-k similarity join (k closest pairs) on the shared substrate",
    )
)
