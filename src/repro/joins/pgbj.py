"""PGBJ: the paper's Partitioning and Grouping Based kNN Join.

Pipeline (Figure 3): master-side pivot selection → map-only partitioning job
with summary collection → master-side index merging and partition grouping →
the kNN-join job whose mapper replicates S by the Corollary 2 / Theorem 6
shipping rule and whose reducer runs the Algorithm 3 kernel.

The pipeline is expressed as a two-stage :class:`~repro.mapreduce.plan.JobGraph`
(``pgbj/partition`` → ``pgbj/join``): the partition stage is content-keyed
(and k-independent), so a sweep holding a
:class:`~repro.mapreduce.plan.PlanCache` re-runs only the join stage; the
master-side merging/grouping lives in the join stage's builder, where it can
read the (possibly cached) partition result.

Shuffling cost is ``|R| + alpha * |S|`` — the headline advantage over the
block-framework baselines — because R is never replicated and every S object
ships only to the groups whose bound requires it.  A self-join ships
``alpha * |S|``: an R copy rides in its own-group S copy, one row of both roles.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import compute_lb_matrix, compute_thetas, group_lb_matrix
from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.geometry import PRUNE_EPS
from repro.grouping import get_grouping_strategy
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock

from .base import REPLICA_GROUP, REPLICA_NAME, PgbjConfig, count_kernel_pairs
from .block_framework import chain_splits, knn_outcome_assembler
from .kernels import KERNELS, ScratchPool, build_partition_blocks
from .partition_job import (
    make_pivot_selector,
    merge_summaries,
    partition_stage,
)
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_pgbj", "make_pivot_selector"]


class GroupRoutingMapper(BlockBufferingMapper):
    """Second-job mapper (Algorithm 3 lines 3-11), group-keyed.

    R objects go to their partition's group; S objects go to every group
    whose ``LB(P_j^S, G_i)`` admits them (Theorem 6) — each copy is one unit
    of replication, counted for the Figure 7(b) measurement.

    The whole split is routed as one block: Theorem 6 / Corollary 2 is one
    ``rows x groups`` role matrix, and each group receives at most one
    :class:`~repro.mapreduce.types.RecordBlock` per map task — the rows
    with a role there, in input order (the partitioning job sorted them by
    cell), which is the sequence a reducer's per-cell blocks are built from.
    A row's role in a group is the OR of two bits, R in its own group and S
    in every group that admits it, so a self-join's object reaches its own
    group (Theorem 6 always admits its own cell) as one row of both roles.

    Skew-aware repartitioning (``skew_subkeys`` in the job cache, built by
    the planner when one group's R load dominates): a split group's R bits
    are spread deterministically over its sub-keys by object id, while its
    S bits replicate to *every* sub-key — each r therefore still meets
    exactly the candidate set it would have met unsplit, so join results and
    the pairs requested are bit-identical; replication (the knob's
    documented price) and the reduce-task layout change, and so may a
    self-join's own-cell pairs: a lane reuses only the distances of its own
    rows (:func:`~repro.joins.kernels.knn_join_kernel`).
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        partition_to_group: dict[int, int] = ctx.cache["partition_to_group"]
        self._lb_group: np.ndarray = ctx.cache["lb_group"]
        self._group_of = np.full(self._lb_group.shape[0], -1, dtype=np.int64)
        self._group_of[list(partition_to_group)] = list(partition_to_group.values())
        self._subkeys: dict[int, tuple[int, ...]] = ctx.cache.get("skew_subkeys") or {}

    def route_block(self, block: RecordBlock, ctx: Context):
        cells = block.partition_ids
        # Theorem 6 for every S object of the split against every group
        admitted = block.pivot_distances[:, None] >= self._lb_group[cells] - PRUNE_EPS
        roles = np.where(admitted & block.is_s[:, None], ROLE_S, 0).astype(np.uint8)
        r_rows = np.flatnonzero(block.is_r)
        roles[r_rows, self._group_of[cells[r_rows]]] |= ROLE_R
        for group_index in range(roles.shape[1]):
            group_roles = roles[:, group_index]
            subkeys = self._subkeys.get(group_index, (group_index,))
            replicas = np.count_nonzero(group_roles & ROLE_S) * len(subkeys)
            if replicas:
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, replicas)
            lanes = block.object_ids.astype(np.int64) % len(subkeys)
            for lane, subkey in enumerate(subkeys):
                # the R bit only in the row's id lane, the S bit in every one
                lane_roles = np.where(lanes == lane, group_roles, group_roles & ROLE_S)
                rows = np.flatnonzero(lane_roles)
                if rows.size:
                    routed = block.take(rows)
                    routed.role = lane_roles[rows]
                    yield int(subkey), routed


class PgbjJoinReducer(Reducer):
    """Second-job reducer: the Algorithm 3 kernel over one group, answered as
    one :class:`~repro.mapreduce.types.NeighborBlock` (a row per r)."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._pivot_metric = get_metric(ctx.cache["metric_name"])
        self._own_metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._thetas: dict[int, float] = ctx.cache["thetas"]
        self._uppers: dict[int, float] = ctx.cache["uppers"]
        self._code_anchors: np.ndarray = ctx.cache["code_anchors"]
        self._ring_stats: dict[int, tuple[float, float]] = ctx.cache["ring_stats"]
        self._pivots: np.ndarray = ctx.cache["pivots"]
        self._pdm: np.ndarray = ctx.cache["pivot_dist_matrix"]
        self._use_hyperplane = bool(ctx.cache["use_hyperplane_pruning"])
        self._use_ring = bool(ctx.cache["use_ring_pruning"])
        self._scratch = ScratchPool()  # per worker, reused across reduce calls

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(RecordBlock.gather(values))
        if not r_blocks:
            return
        yield key, NeighborBlock.from_lists(
            KERNELS.knn_join_kernel(
                self._metric,
                self._k,
                r_blocks,
                s_blocks,
                self._thetas,
                self._ring_stats,
                self._pivots,
                self._pdm,
                use_hyperplane_pruning=self._use_hyperplane,
                use_ring_pruning=self._use_ring,
                scratch=self._scratch,
                pivot_metric=self._pivot_metric,
                own_metric=self._own_metric,
                code_anchors=self._code_anchors,
                uppers=self._uppers,
            )
        )

    def cleanup(self, ctx: Context):
        count_kernel_pairs(ctx.counters, self._metric, self._pivot_metric, self._own_metric)
        return ()


def plan_skew_split(
    tr, partition_to_group: dict[int, int], config: PgbjConfig
) -> tuple[dict[int, tuple[int, ...]], int]:
    """Decide the skew-aware repartitioning for the join job.

    Reads the exact per-cell R counts of the master's summary table ``T_R``,
    summed per group under the grouping assignment.  When the
    heaviest group's share of R exceeds ``config.skew_split_threshold``, that
    one group is split ``ways`` ways — proportional to how far it overshoots
    the mean group load, capped by ``skew_split_max_ways`` — onto fresh
    reduce keys appended past ``num_reducers`` (so :class:`ModPartitioner`
    maps every sub-key to its own reducer and no existing group moves).

    Returns ``(skew_subkeys, num_join_reducers)``; the mapping is empty and
    the reducer count unchanged when splitting is disabled or not warranted.
    """
    if config.skew_split_threshold <= 0.0:
        return {}, config.num_reducers
    loads = np.zeros(config.num_reducers, dtype=np.int64)
    for pid in tr.partition_ids():
        loads[partition_to_group[pid]] += tr.get(pid).count
    total = int(loads.sum())
    if total == 0:
        return {}, config.num_reducers
    heavy = int(np.argmax(loads))
    if loads[heavy] / total <= config.skew_split_threshold:
        return {}, config.num_reducers
    mean_load = total / config.num_reducers
    ways = int(min(config.skew_split_max_ways, max(2, np.ceil(loads[heavy] / mean_load))))
    extra = ways - 1
    subkeys = (heavy, *range(config.num_reducers, config.num_reducers + extra))
    return {heavy: subkeys}, config.num_reducers + extra


def plan_pgbj(r: Dataset, s: Dataset, config: PgbjConfig) -> JoinPlan:
    """Plan the paper's algorithm (Sections 4-5) as a two-stage graph."""
    graph = JobGraph("pgbj")
    # the DFS holds the partitioned intermediate between the stages
    # (segment-backed on disk for out-of-core configs); it lives for the
    # plan execution, like the runtime
    dfs = graph.resource(config.make_dfs())
    state: dict = {}  # master-side artifacts flowing between stage builders

    partition = partition_stage(graph, r, s, config, config.num_pivots, state)

    def build_join(ctx):
        job1 = ctx.result_of(partition)
        # -- master: index merging, theta/LB bounds and partition grouping ----
        tr, ts, merge_seconds = merge_summaries(job1, config.k)
        ctx.add_phase("index_merging", merge_seconds)
        with ctx.timed("partition_grouping"):
            pdm = state["pivot_dist_matrix"]
            thetas = compute_thetas(tr, ts, pdm, config.k)
            lb_matrix = compute_lb_matrix(tr, pdm, thetas)
            strategy = get_grouping_strategy(config.grouping)
            assignment = strategy.group(tr, ts, pdm, lb_matrix, config.num_reducers)
            lb_group = group_lb_matrix(lb_matrix, assignment.groups)
            skew_subkeys, num_join_reducers = plan_skew_split(
                tr, assignment.partition_to_group, config
            )
        ring_stats = {
            pid: (ts.get(pid).lower, ts.get(pid).upper) for pid in ts.partition_ids()
        }
        job2 = MapReduceJob(
            name="knn-join",
            mapper_factory=GroupRoutingMapper,
            reducer_factory=PgbjJoinReducer,
            partitioner=ModPartitioner(),
            num_reducers=num_join_reducers,
            cache={
                "partition_to_group": assignment.partition_to_group,
                "lb_group": lb_group,
                "skew_subkeys": skew_subkeys,
                "metric_name": config.metric_name,
                "k": config.k,
                "thetas": thetas,
                "uppers": {pid: tr.get(pid).upper for pid in tr.partition_ids()},
                "code_anchors": state["code_anchors"],
                "ring_stats": ring_stats,
                "pivots": state["pivots"],
                "pivot_dist_matrix": pdm,
                "use_hyperplane_pruning": config.use_hyperplane_pruning,
                "use_ring_pruning": config.use_ring_pruning,
            },
        )
        return job2, chain_splits(config, dfs, "partitioned", job1.outputs)

    join = graph.stage("pgbj/join", build_join, deps=(partition,))
    assemble = knn_outcome_assembler(
        "pgbj", r, s, config, (partition, join), ("data_partitioning", "knn_join"), state
    )
    return JoinPlan(graph=graph, assemble=assemble)


register_join(
    JoinSpec(
        name="pgbj",
        config_class=PgbjConfig,
        plan=plan_pgbj,
        summary="the paper's algorithm: Voronoi partitioning + grouping + pruning kernel",
        pivots_from_r=True,
    )
)
