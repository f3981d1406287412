"""iJoin-style baseline: the block framework with an iDistance reducer index.

The paper's related work (Yu et al. [19]) answers kNN joins centrally with a
B+-tree/iDistance index per partition.  This baseline drops that kernel into
the same sqrt(N) x sqrt(N) MapReduce block framework H-BRJ uses: each reducer
builds an :class:`~repro.idistance.IDistanceIndex` over its block of S
(pivots sampled from the block) and answers each received r by expanding
ring search; the standard merge job combines the per-block candidates.

Together with H-BRJ (R-tree) and PBJ (summary-bound kernel) this completes a
three-way comparison of reducer-side index structures on identical shuffles
(`benchmarks/bench_ext_reducer_index.py`).

Planned as the two-stage chain ``ijoin/block-join`` → ``ijoin/merge``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.idistance import IDistanceIndex
from repro.mapreduce.job import Context, Reducer
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import dataset_splits
from repro.mapreduce.types import NeighborBlock, RecordBlock

from .base import PAIRS_GROUP, PAIRS_NAME, BlockJoinConfig
from .block_framework import (
    block_join_spec,
    candidate_emissions,
    knn_outcome_assembler,
    merge_stage,
)
from .kernel_providers import get_kernel_provider
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_ijoin"]


class IJoinBlockReducer(Reducer):
    """Builds an iDistance index over the S block; ring-searches each r."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._num_pivots = int(ctx.cache["index_pivots"])
        self._seed = int(ctx.cache["seed"])
        self._provider = get_kernel_provider(ctx.cache.get("kernel_provider", "auto"))

    def reduce(self, key, values, ctx: Context):
        block = RecordBlock.gather(values)
        r_rows = np.flatnonzero(block.is_r)
        s_rows = np.flatnonzero(~block.is_r)
        if r_rows.size == 0 or s_rows.size == 0:
            return ()
        s_points = block.points[s_rows]
        s_ids = block.object_ids[s_rows]
        rng = np.random.default_rng(self._seed + int(key))
        num_pivots = min(self._num_pivots, s_points.shape[0])
        pivot_rows = rng.choice(s_points.shape[0], size=num_pivots, replace=False)
        index = IDistanceIndex(
            s_points,
            s_ids,
            s_points[pivot_rows],
            self._metric,
            kbest_factory=self._provider.kbest,
        )
        candidates = NeighborBlock.from_lists(
            (r_id, *index.knn(point, self._k))
            for r_id, point in zip(block.object_ids[r_rows], block.points[r_rows])
        )
        return candidate_emissions(candidates, ctx)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_ijoin(r: Dataset, s: Dataset, config: BlockJoinConfig) -> JoinPlan:
    """Plan H-BRJ's framework with iDistance in place of the R-tree."""
    graph = JobGraph("ijoin")
    # out-of-core configs stage the candidate lists between the stages on disk
    dfs = graph.resource(config.chain_dfs())

    def build_block_join(ctx):
        job = block_join_spec(
            name="ijoin-block-join",
            reducer_factory=IJoinBlockReducer,
            num_blocks=config.num_blocks,
            cache={
                "metric_name": config.metric_name,
                "k": config.k,
                # a handful of reference points per block, like iDistance's
                # "sampling-based" reference selection
                "index_pivots": max(4, config.num_pivots // max(config.num_blocks, 1)),
                "seed": config.seed,
                "kernel_provider": config.kernel_provider,
                "merge_reducers": config.num_reducers,
            },
        )
        return job, dataset_splits(r, s, config.split_size)

    block_join = graph.stage("ijoin/block-join", build_block_join)

    stages = (block_join, merge_stage(graph, config, dfs, block_join))
    assemble = knn_outcome_assembler("ijoin", r, s, config, stages, ("knn_join", "merge"))
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="ijoin",
        config_class=BlockJoinConfig,
        plan=plan_ijoin,
        summary="block framework with an iDistance (B+-tree style) reducer index",
    )
)
