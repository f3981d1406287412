"""The basic broadcast strategy (paper Section 3).

R is hash-split into ``N`` disjoint subsets; the *entire* S is replicated to
every reducer, giving the worst-case shuffling cost ``|R| + N * |S|`` the
paper uses as its upper bound (and which PGBJ's replication converges to in
the worst case, Section 6.3).  Each reducer answers its R subset by a naive
scan.  Included as a correctness anchor and as the ablation baseline with
every pruning idea turned off.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.knn import select_k_smallest
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import dataset_splits
from repro.mapreduce.types import NeighborBlock, RecordBlock

from .base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME, JoinConfig
from .block_framework import block_of_ids, knn_outcome_assembler
from .kernel_providers import get_kernel_provider
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_broadcast"]

#: rows of R per distance-matrix chunk in the reducer (bounds peak memory)
_SCAN_CHUNK = 256


class BroadcastMapper(BlockBufferingMapper):
    """R objects to one reducer each; S objects to all reducers (columnar)."""

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._num_reducers = ctx.num_reducers

    def route_block(self, block: RecordBlock, ctx: Context):
        num_reducers = self._num_reducers
        r_rows = np.flatnonzero(block.is_r)
        if r_rows.size:
            r_block = block.take(r_rows)
            yield from r_block.split_by(block_of_ids(r_block.object_ids, num_reducers))
        s_rows = np.flatnonzero(~block.is_r)
        if s_rows.size:
            ctx.counters.incr(
                REPLICA_GROUP, REPLICA_NAME, int(s_rows.size) * num_reducers
            )
            s_block = block.take(s_rows)
            for reducer_index in range(num_reducers):
                yield reducer_index, s_block


class BroadcastReducer(Reducer):
    """Naive scan: exact kNN of each local r over the full S.

    The scan is chunk-batched: one ``cross_distances`` call per ``_SCAN_CHUNK``
    rows of R (the same ``|R_i| * |S|`` pairs the per-record scan computed and
    counted), then an argpartition selection per row; the reducer answers
    with one :class:`~repro.mapreduce.types.NeighborBlock` (a row per r).
    """

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._provider = get_kernel_provider(ctx.cache.get("kernel_provider", "auto"))

    def reduce(self, key, values, ctx: Context):
        block = RecordBlock.gather(values)
        r_rows = np.flatnonzero(block.is_r)
        if r_rows.size == 0:
            return
        s_rows = np.flatnonzero(~block.is_r)
        s_points = block.points[s_rows]
        s_ids = block.object_ids[s_rows]
        r_points = block.points[r_rows]
        r_ids = block.object_ids[r_rows]
        lists = []
        for start in range(0, r_rows.size, _SCAN_CHUNK):
            chunk = slice(start, start + _SCAN_CHUNK)
            dists = self._provider.cross_distances(
                self._metric, r_points[chunk], s_points
            )
            for offset, r_id in enumerate(r_ids[chunk].tolist()):
                selected = select_k_smallest(dists[offset], s_ids, self._k)
                lists.append((r_id, s_ids[selected], dists[offset][selected]))
        yield key, NeighborBlock.from_lists(lists)

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_broadcast(r: Dataset, s: Dataset, config: JoinConfig) -> JoinPlan:
    """Plan the single-stage broadcast join (``broadcast/join``)."""
    graph = JobGraph("broadcast")

    def build_join(ctx):
        job = MapReduceJob(
            name="broadcast-join",
            mapper_factory=BroadcastMapper,
            reducer_factory=BroadcastReducer,
            partitioner=ModPartitioner(),
            num_reducers=config.num_reducers,
            cache={
                "metric_name": config.metric_name,
                "k": config.k,
                "kernel_provider": config.kernel_provider,
            },
        )
        return job, dataset_splits(r, s, config.split_size)

    join = graph.stage("broadcast/join", build_join)
    assemble = knn_outcome_assembler("broadcast", r, s, config, (join,), ("knn_join",))
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="broadcast",
        config_class=JoinConfig,
        plan=plan_broadcast,
        summary="naive |R| + N*|S| broadcast upper bound (correctness anchor)",
    )
)
