"""PBJ: the paper's pruning kernel inside the block framework.

Paper Section 6: "the only difference between PBJ and PGBJ is that PBJ does
not have the grouping part.  Instead, it employs the same framework used in
H-BRJ" — R and S are split into ``sqrt(N)`` random subsets, each reducer
joins one block pair, and a second job merges the partial results.

PBJ still runs pivot selection and the partitioning job, so every object
arrives in a reducer annotated with its Voronoi cell and pivot distance; the
reducer recomputes the theta bound and the ring statistics *locally* over the
random slice of S it received.  That randomness makes the local bounds loose
— the paper's stated reason PBJ sits between H-BRJ and PGBJ.

Planned as a three-stage chain ``pbj/partition`` → ``pbj/block-join`` →
``pbj/merge``; the partition stage is the same content-keyed stage PGBJ
plans, so a sweep (or a fused PGBJ+PBJ run) holding a
:class:`~repro.mapreduce.plan.PlanCache` partitions once.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.mapreduce.job import Context, Reducer
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.types import NeighborBlock

from .base import PAIRS_GROUP, PAIRS_NAME, BlockJoinConfig
from .block_framework import (
    block_join_spec,
    candidate_emissions,
    chain_splits,
    knn_outcome_assembler,
    merge_stage,
)
from .kernel_providers import get_kernel_provider
from .kernels import (
    ScratchPool,
    build_partition_blocks,
    local_ring_stats,
    local_theta,
)
from .partition_job import partition_stage
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_pbj"]


class PbjJoinReducer(Reducer):
    """Joins one (R_i, S_j) block pair with locally recomputed bounds."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._pivots: np.ndarray = ctx.cache["pivots"]
        self._pdm: np.ndarray = ctx.cache["pivot_dist_matrix"]
        self._provider = get_kernel_provider(ctx.cache.get("kernel_provider", "auto"))
        self._scratch = ScratchPool()

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(values)
        if not r_blocks or not s_blocks:
            return ()  # lone half of a pair: other block columns cover these r
        ring_stats = local_ring_stats(s_blocks)
        thetas = {
            pid: local_theta(block.local_upper(), self._pdm[pid], s_blocks, self._k)
            for pid, block in r_blocks.items()
        }
        candidates = NeighborBlock.from_lists(
            self._provider.knn_join_kernel(
                self._metric,
                self._k,
                r_blocks,
                s_blocks,
                thetas,
                ring_stats,
                self._pivots,
                self._pdm,
                scratch=self._scratch,
            )
        )
        return candidate_emissions(candidates, ctx)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_pbj(r: Dataset, s: Dataset, config: BlockJoinConfig) -> JoinPlan:
    """Plan PBJ: shared partition stage, block join, candidate merge."""
    graph = JobGraph("pbj")
    # out-of-core configs stage both intermediates on disk
    dfs = graph.resource(config.chain_dfs())
    state: dict = {}

    partition = partition_stage(graph, r, s, config, config.num_pivots, state)

    def build_block_join(ctx):
        job1 = ctx.result_of(partition)
        job2 = block_join_spec(
            name="pbj-block-join",
            reducer_factory=PbjJoinReducer,
            num_blocks=config.num_blocks,
            cache={
                "metric_name": config.metric_name,
                "k": config.k,
                "pivots": state["pivots"],
                "pivot_dist_matrix": state["pivot_dist_matrix"],
                "kernel_provider": config.kernel_provider,
                "merge_reducers": config.num_reducers,
            },
        )
        return job2, chain_splits(config, dfs, "partitioned", job1.outputs)

    block_join = graph.stage("pbj/block-join", build_block_join, deps=(partition,))

    stages = (partition, block_join, merge_stage(graph, config, dfs, block_join))
    assemble = knn_outcome_assembler(
        "pbj", r, s, config, stages, ("data_partitioning", "knn_join", "merge"), state
    )
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="pbj",
        config_class=BlockJoinConfig,
        plan=plan_pbj,
        summary="PGBJ's pruning kernel inside the sqrt(N) block framework (no grouping)",
    )
)
