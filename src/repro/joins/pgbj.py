"""PGBJ: the paper's Partitioning and Grouping Based kNN Join.

Pipeline (Figure 3): master-side pivot selection → map-only partitioning job
with summary collection → master-side index merging and partition grouping →
the kNN-join job whose mapper replicates S by the shipping rule and whose
reducer runs the Algorithm 3 kernel.

The grouping step is the configured strategy (geometric or greedy, Section
5.2) and then one refinement pass (:mod:`repro.grouping.refine`): the master
counts, per S cell and R cell, the S objects Theorem 5 sends toward the R
cell (from every S cell's pivot distances, which the partitioning job ships)
and zero where the cells' anchor hulls lie more than ``theta_i`` apart, and
moves single R cells between groups, then swaps pairs of them, while the
counted copies fall, never past the strategy's largest group load.

The shipping rule is Theorem 6 taken member by member, with the anchors
added: an S object ``s`` of cell ``P_j`` goes to group ``G`` only if some R
cell ``P_i`` of ``G`` passes Theorem 5 for that one cell, ``|s, p_j| >=
|p_i, p_j| - U_i - theta_i``, and its anchor hull test, ``max_a gap([mid_a(s)
± radius(s)], [lo_a(i), hi_a(i)]) <= theta_i`` (plus slack): ``s``'s
one-byte anchor codes against the range of the cell's exact ``|r, a|``,
which ``T_R`` carries.  A kNN of ``r in P_i`` lies within ``theta_i`` of it,
and ``|r, s| >= | |r, a| - |s, a| |``, so no kNN is left behind.

The pipeline is expressed as a two-stage :class:`~repro.mapreduce.plan.JobGraph`
(``pgbj/partition`` → ``pgbj/join``): the partition stage is content-keyed
(and k-independent), so a sweep holding a
:class:`~repro.mapreduce.plan.PlanCache` re-runs only the join stage; the
master-side merging/grouping lives in the join stage's builder, where it can
read the (possibly cached) partition result.

Shuffling cost is ``|R| + alpha * |S|`` — the headline advantage over the
block-framework baselines — because R is never replicated and every S object
ships only to the groups whose bounds require it.  A self-join ships
``alpha * |S|``: an R copy rides in its own-group S copy, one row of both roles.
"""

from __future__ import annotations

import numpy as np

from repro.core.bounds import (
    cell_anchor_hulls,
    compute_lb_matrix,
    compute_thetas,
    rank_members,
)
from repro.core.dataset import Dataset
from repro.core.distance import get_metric
from repro.core.geometry import PRUNE_EPS, anchor_intervals, anchor_range_gaps, anchor_reach
from repro.grouping import get_grouping_strategy
from repro.grouping.refine import refine_groups, replica_counts
from repro.mapreduce.job import BlockBufferingMapper, Context, MapReduceJob, Reducer
from repro.mapreduce.partitioners import ModPartitioner
from repro.mapreduce.plan import JobGraph
from repro.mapreduce.splits import cell_dtype
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock

from .base import REPLICA_GROUP, REPLICA_NAME, PgbjConfig, count_kernel_pairs
from .block_framework import chain_splits, knn_outcome_assembler
from .kernels import KERNELS, build_partition_blocks
from .partition_job import (
    make_pivot_selector,
    merge_summaries,
    partition_stage,
)
from .registry import JoinPlan, JoinSpec, register_join

__all__ = ["plan_pgbj", "make_pivot_selector"]

#: (row, member) tests the routing mapper runs in one vectorised round, and
#: (row, group) pairs it follows at once: about 150 bytes of temporaries a
#: test, so a round holds about 2.4 MiB
_ROUTE_PAIRS = 16384


class GroupRoutingMapper(BlockBufferingMapper):
    """Second-job mapper (Algorithm 3 lines 3-11), group-keyed.

    R objects go to their partition's group; an S object ``s`` of cell
    ``P_j`` goes to every group with a member R cell ``P_i`` that admits it
    twice over: Theorem 5 for that one cell, ``|s, p_j| >= LB(P_j^S,
    P_i^R)``, and the anchor hull test, no anchor's gap between ``s``'s
    decoded range of ``|s, a|`` and the cell's hull of exact ``|r, a|``
    above ``theta_i`` (:mod:`repro.core.bounds`).  Each copy is one unit of
    replication, counted for the Figure 7(b) measurement.  The hull test is
    the reducers' rule 5 with the roles swapped
    (:func:`~repro.core.geometry.anchor_range_gaps` over ``s``'s
    :func:`~repro.core.geometry.anchor_reach`): ``s``'s codes against the
    exact ranges of R cells the master merged from ``T_R``.

    Each (row, group) pair tries its group's members in ascending LB
    (:func:`~repro.core.bounds.rank_members`), in rounds of 1, 2, 4, ...
    members, all pairs of a round in one vectorised pass of at most
    ``_ROUTE_PAIRS`` (row, member) tests at a time: a pair stops at the first
    member that admits ``s``, or at the first that Theorem 5 refuses (every
    later member refuses too), so a first member that admits ``s`` decides
    most pairs, and one that Theorem 5 refuses is Theorem 6's verdict.

    The whole split is routed as one block: each group receives at most one
    :class:`~repro.mapreduce.types.RecordBlock` per map task — the rows
    with a role there, in input order (the partitioning job sorted them by
    cell), which is the sequence a reducer's per-cell blocks are built from.
    A row's role in a group is the OR of two bits, R in its own group and S
    in every group that admits it, so a self-join's object reaches its own
    group (its own cell always admits it: its hull holds the object's own
    ``|s, a|``) as one row of both roles.  Each group is one reduce key.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        partition_to_group: dict[int, int] = ctx.cache["partition_to_group"]
        pdm: np.ndarray = ctx.cache["pivot_dist_matrix"]
        self._pdm = pdm.ravel()
        self._num_pivots = pdm.shape[0]
        self._code_rows = pdm[ctx.cache["code_anchors"]]
        self._ranked, self._edges = ctx.cache["ranked_members"]
        self._uppers, self._thetas = ctx.cache["cell_bounds"]
        self._hull_lo, self._hull_hi = ctx.cache["anchor_hulls"]
        self._group_of = np.full(self._num_pivots, -1, dtype=np.int64)
        self._group_of[list(partition_to_group)] = list(partition_to_group.values())

    def route_block(self, block: RecordBlock, ctx: Context):
        roles = np.zeros((len(block), len(self._edges) - 1), dtype=np.uint8)
        s_rows = np.flatnonzero(block.is_s)
        if s_rows.size:
            roles[s_rows] = np.where(self._admitted(block, s_rows), ROLE_S, 0)
        r_rows = np.flatnonzero(block.is_r)
        roles[r_rows, self._group_of[block.partition_ids[r_rows]]] |= ROLE_R
        for group_index in range(roles.shape[1]):
            group_roles = roles[:, group_index]
            replicas = np.count_nonzero(group_roles & ROLE_S)
            if replicas:
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, replicas)
            rows = np.flatnonzero(group_roles)
            if rows.size:
                routed = block.take(rows)
                routed.role = group_roles[rows]
                yield group_index, routed

    def _admitted(self, block: RecordBlock, s_rows: np.ndarray) -> np.ndarray:
        """``(S rows, groups)``: which groups the shipping rule sends each S
        row to (class docstring), as many rows at a time as have
        ``_ROUTE_PAIRS`` (row, group) pairs."""
        num_groups = len(self._edges) - 1
        per_pass = max(1, _ROUTE_PAIRS // num_groups)
        return np.concatenate([
            self._admitted_rows(block, s_rows[first : first + per_pass], num_groups)
            for first in range(0, s_rows.size, per_pass)
        ])

    def _admitted_rows(self, block: RecordBlock, s_rows: np.ndarray, num_groups: int):
        cells = block.partition_ids[s_rows].astype(np.int64)
        dists = block.pivot_distances[s_rows]
        mids, radius = anchor_intervals(block.anchor_codes[s_rows], cells, dists, self._code_rows)
        reach = anchor_reach(mids, radius)
        width, ranked = self._ranked.shape[1], self._ranked.ravel()
        # pair p is (row p // groups, group p % groups): its next member's
        # column of ``ranked`` and the end of its group's run
        pos = np.tile(self._edges[:-1], s_rows.size)
        end = np.tile(self._edges[1:], s_rows.size)
        admitted = np.zeros(pos.size, dtype=bool)
        live, size = np.flatnonzero(pos < end), 1
        while live.size:
            # 1, 2, 4, ... members a pair, ``_ROUTE_PAIRS`` tests a round (or
            # one a pair, should a pass's pairs outnumber them)
            count = np.minimum(end[live] - pos[live], max(1, min(size, _ROUTE_PAIRS // live.size)))
            seg = np.repeat(np.arange(live.size), count)
            at = np.repeat(pos[live] - (np.cumsum(count) - count), count) + np.arange(seg.size)
            rows = live.take(seg) // num_groups
            row_cells = cells.take(rows)
            members = ranked.take(row_cells * width + at)
            bound = (
                self._pdm.take(row_cells * self._num_pivots + members)
                - self._uppers.take(members)
                - self._thetas.take(members)
            )
            # Theorem 5 for the one member, then its anchor hull
            fits = np.flatnonzero(dists.take(rows) >= bound - PRUNE_EPS)
            gaps = anchor_range_gaps(
                mids, reach, rows.take(fits), self._hull_lo, self._hull_hi, members.take(fits)
            )
            near = fits[gaps <= self._thetas.take(members.take(fits)) + PRUNE_EPS]
            admitted[live.take(seg.take(near))] = True
            # members past one Theorem 5 refuses are refused too
            refused = np.bincount(seg, minlength=live.size) > np.bincount(
                seg.take(fits), minlength=live.size
            )
            pos[live] += count
            live = live[~refused & ~admitted[live] & (pos[live] < end[live])]
            size *= 2
        return admitted.reshape(s_rows.size, num_groups)


class PgbjJoinReducer(Reducer):
    """Second-job reducer: the Algorithm 3 kernel over one group, answered as
    one :class:`~repro.mapreduce.types.NeighborBlock` (a row per r).

    The kernel's rule 5 judges a (row, S cell) pair by the anchor ranges of
    all the cell's members the group received, as PBJ's reducers do: an
    object shipped for another member of the group can widen a row's ranges,
    so which cells share a group may move the object-pivot pairs the rule
    spares, never a result or a scanned pair."""

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

    def reduce(self, key, values, ctx: Context):
        r_blocks, s_blocks = build_partition_blocks(RecordBlock.gather(values))
        if not r_blocks:
            return
        yield key, NeighborBlock.from_lists(self.kernel(r_blocks, s_blocks))

    def kernel(self, r_blocks, s_blocks):
        """The kernel's ``(r_id, ids, dists)`` over one group's blocks."""
        return KERNELS.knn_join_kernel(
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
            pivot_metric=self._pivot_metric,
            own_metric=self._own_metric,
            code_anchors=self._code_anchors,
            uppers=self._uppers,
        )

    def cleanup(self, ctx: Context):
        count_kernel_pairs(ctx.counters, self._metric, self._pivot_metric, self._own_metric)
        return ()


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
        tr, ts, merge_seconds = merge_summaries(job1)
        ctx.add_phase("index_merging", merge_seconds)
        with ctx.timed("partition_grouping"):
            pdm = state["pivot_dist_matrix"]
            thetas = compute_thetas(tr, ts, pdm, config.k)
            lb_matrix = compute_lb_matrix(tr, pdm, thetas)
            strategy = get_grouping_strategy(config.grouping)
            anchor_hulls = cell_anchor_hulls(tr, len(pdm))
            assignment = refine_groups(
                strategy.group(tr, ts, pdm, lb_matrix, config.num_reducers),
                replica_counts(
                    lb_matrix, thetas, ts, anchor_hulls, cell_anchor_hulls(ts, len(pdm))
                ),
                tr,
            )
            ranked_members = rank_members(lb_matrix, assignment.groups, cell_dtype(len(pdm)))
        # U_i and theta_i by cell (NaN where R is empty: no member is)
        cell_bounds = np.full((2, len(pdm)), np.nan)
        cell_bounds[:, tr.cells] = tr.upper, list(thetas.values())
        ring_stats = dict(zip(ts.partition_ids(), zip(ts.lower.tolist(), ts.upper.tolist())))
        job2 = MapReduceJob(
            name="knn-join",
            mapper_factory=GroupRoutingMapper,
            reducer_factory=PgbjJoinReducer,
            partitioner=ModPartitioner(),
            num_reducers=config.num_reducers,
            cache={
                "partition_to_group": assignment.partition_to_group,
                "ranked_members": ranked_members,
                "cell_bounds": cell_bounds,
                "anchor_hulls": anchor_hulls,
                "metric_name": config.metric_name,
                "k": config.k,
                "thetas": thetas,
                "uppers": dict(zip(tr.partition_ids(), tr.upper.tolist())),
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
