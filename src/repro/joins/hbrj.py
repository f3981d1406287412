"""H-BRJ: the R-tree block-join baseline (Zhang et al., EDBT 2012).

Paper Section 3/6: R and S are split into ``sqrt(N)`` random subsets; each
reducer bulk-loads an R-tree over its block of S and answers the kNN of each
received r by best-first traversal ("maintaining candidate objects as well as
intermediate nodes in a priority queue"); a second job merges the per-block
candidates.  No pivots, no partitioning job — but also no cross-reducer
pruning, which is why its selectivity and shuffle grow with k, dimensionality
and node count in the paper's figures.

Planned as the two-stage chain ``hbrj/block-join`` → ``hbrj/merge``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.mapreduce.job import Context, Reducer
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import dataset_splits
from repro.mapreduce.types import NeighborBlock, RecordBlock
from repro.rtree import RTree

from .base import PAIRS_GROUP, PAIRS_NAME, BlockJoinConfig
from .block_framework import (
    block_join_spec,
    candidate_emissions,
    knn_outcome_assembler,
    merge_stage,
)
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_hbrj"]

#: entries per R-tree node of a reducer's S block
RTREE_CAPACITY = 32


class HbrjJoinReducer(Reducer):
    """Builds an R-tree over the S block, then answers each r's kNN query."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])

    def reduce(self, key, values, ctx: Context):
        block = RecordBlock.gather(values)
        r_rows = np.flatnonzero(block.is_r)
        s_rows = np.flatnonzero(block.is_s)
        if r_rows.size == 0 or s_rows.size == 0:
            return ()
        tree = RTree.bulk_load(
            block.points[s_rows], block.object_ids[s_rows], self._metric, RTREE_CAPACITY
        )
        candidates = NeighborBlock.from_lists(
            (r_id, *tree.knn(point, self._k))
            for r_id, point in zip(block.object_ids[r_rows], block.points[r_rows])
        )
        return candidate_emissions(candidates, ctx, block.object_ids.dtype)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_hbrj(r: Dataset, s: Dataset, config: BlockJoinConfig) -> JoinPlan:
    """Plan the comparison baseline of the paper's evaluation."""
    graph = JobGraph("hbrj")
    # out-of-core configs stage the candidate lists between the stages on disk
    dfs = graph.resource(config.chain_dfs())

    def build_block_join(ctx):
        job = block_join_spec(
            name="hbrj-block-join",
            reducer_factory=HbrjJoinReducer,
            num_blocks=config.num_blocks,
            cache={
                "metric_name": config.metric_name,
                "k": config.k,
                "merge_reducers": config.num_reducers,
            },
        )
        return job, dataset_splits(r, s, config.split_size)

    block_join = graph.stage("hbrj/block-join", build_block_join)

    stages = (block_join, merge_stage(graph, config, dfs, block_join))
    assemble = knn_outcome_assembler("hbrj", r, s, config, stages, ("knn_join", "merge"))
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="hbrj",
        config_class=BlockJoinConfig,
        plan=plan_hbrj,
        summary="R-tree block-join baseline (no pivots, no cross-reducer pruning)",
    )
)
