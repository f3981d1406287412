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
ships only to the groups whose bound requires it.
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
from repro.mapreduce.types import NeighborBlock, RecordBlock

from .base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME, PgbjConfig
from .block_framework import chain_splits, knn_outcome_assembler
from .kernel_providers import get_kernel_provider
from .kernels import ScratchPool, build_partition_blocks
from .partition_job import make_pivot_selector, merge_summaries, partition_stage
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_pgbj", "make_pivot_selector"]


class GroupRoutingMapper(BlockBufferingMapper):
    """Second-job mapper (Algorithm 3 lines 3-11), group-keyed.

    R objects go to their partition's group; S objects go to every group
    whose ``LB(P_j^S, G_i)`` admits them (Theorem 6) — each extra copy is one
    unit of replication, counted for the Figure 7(b) measurement.

    The whole split is routed as one block: Theorem 6 / Corollary 2 is one
    ``rows x groups`` mask, and each group receives at most one
    :class:`~repro.mapreduce.types.RecordBlock` per map task — its R rows
    and its admitted S rows, in input order (the partitioning job sorted
    them by cell), which is the sequence a reducer's per-cell blocks are
    built from.

    Skew-aware repartitioning (``skew_subkeys`` in the job cache, built by
    the planner when one group's R load dominates): a split group's R rows
    are spread deterministically over its sub-keys by object id, while its
    admitted S candidates replicate to *every* sub-key — each r therefore
    still meets exactly the candidate set it would have met unsplit, so join
    results and ``pairs_computed`` are bit-identical; only replication (the
    knob's documented price) and the reduce-task layout change.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        partition_to_group: dict[int, int] = ctx.cache["partition_to_group"]
        self._lb_group: np.ndarray = ctx.cache["lb_group"]
        self._group_of = np.full(self._lb_group.shape[0], -1, dtype=np.int64)
        self._group_of[list(partition_to_group)] = list(partition_to_group.values())
        self._subkeys: dict[int, tuple[int, ...]] = ctx.cache.get("skew_subkeys") or {}

    def route_block(self, block: RecordBlock, ctx: Context):
        is_r, cells = block.is_r, block.partition_ids
        # Theorem 6 for every S object of the split against every group
        routed = block.pivot_distances[:, None] >= self._lb_group[cells] - PRUNE_EPS
        routed[is_r] = False
        r_rows = np.flatnonzero(is_r)
        routed[r_rows, self._group_of[cells[r_rows]]] = True
        for group_index in range(routed.shape[1]):
            rows = np.flatnonzero(routed[:, group_index])
            from_s = ~is_r[rows]
            subkeys = self._subkeys.get(group_index, (group_index,))
            replicas = int(from_s.sum()) * len(subkeys)
            if replicas:
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, replicas)
            lanes = block.object_ids[rows] % len(subkeys)
            for lane, subkey in enumerate(subkeys):
                lane_rows = rows[from_s | (lanes == lane)]
                if lane_rows.size:
                    yield int(subkey), block.take(lane_rows)


class PgbjJoinReducer(Reducer):
    """Second-job reducer: the Algorithm 3 kernel over one group, answered as
    one :class:`~repro.mapreduce.types.NeighborBlock` (a row per r)."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._thetas: dict[int, float] = ctx.cache["thetas"]
        self._ring_stats: dict[int, tuple[float, float]] = ctx.cache["ring_stats"]
        self._pivots: np.ndarray = ctx.cache["pivots"]
        self._pdm: np.ndarray = ctx.cache["pivot_dist_matrix"]
        self._use_hyperplane = bool(ctx.cache["use_hyperplane_pruning"])
        self._use_ring = bool(ctx.cache["use_ring_pruning"])
        # providers travel as names (picklable across process engines) and
        # resolve to process-local singletons; the scratch pool is per-worker
        self._provider = get_kernel_provider(ctx.cache.get("kernel_provider", "auto"))
        self._scratch = ScratchPool()

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(values)
        if not r_blocks:
            return
        yield key, NeighborBlock.from_lists(
            self._provider.knn_join_kernel(
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
            )
        )

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


def plan_skew_split(
    tr, partition_to_group: dict[int, int], config: PgbjConfig
) -> tuple[dict[int, tuple[int, ...]], int]:
    """Decide the skew-aware repartitioning for the join job.

    Reads the *sampled* load picture the partition summaries already give us:
    per-group R record counts under the grouping assignment.  When the
    heaviest group's share of R exceeds ``config.skew_split_threshold``, that
    one group is split ``ways`` ways — proportional to how far it overshoots
    the mean group load, capped by ``skew_split_max_ways`` — onto fresh
    reduce keys appended past ``num_reducers`` (so :class:`ModPartitioner`
    maps every sub-key to its own reducer and no existing group moves).

    Returns ``(skew_subkeys, num_join_reducers)``; the mapping is empty and
    the reducer count unchanged when splitting is disabled or not warranted.
    """
    if config.skew_split_threshold <= 0.0 or config.num_reducers < 1:
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
                "ring_stats": ring_stats,
                "pivots": state["pivots"],
                "pivot_dist_matrix": pdm,
                "use_hyperplane_pruning": config.use_hyperplane_pruning,
                "use_ring_pruning": config.use_ring_pruning,
                "kernel_provider": config.kernel_provider,
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
    )
)
