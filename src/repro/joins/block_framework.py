"""The sqrt(N) x sqrt(N) block framework shared by H-BRJ and PBJ.

Paper Section 3: both baselines split ``R`` and ``S`` into ``sqrt(N)`` random
equal-sized subsets; reducer ``(i, j)`` joins block pair ``(R_i, S_j)``; a
second MapReduce job merges, per ``r``, the ``sqrt(N)`` partial candidate
lists into the final k.  Every object of either dataset is therefore
replicated ``sqrt(N)`` times, giving the framework's
``sqrt(N) * (|R| + |S|) + sum |R_i x S_j|`` shuffling cost.

Candidate lists travel in columnar form: every producer of the merge job
(H-BRJ, PBJ, iJoin, the z-order join) hands its reducer's lists to
:func:`candidate_emissions` as one
:class:`~repro.mapreduce.types.NeighborBlock`, which emits one sub-block per
*merge partition* (``r_id % num_reducers`` — the reducer the hash partitioner
sends ``r_id`` to); each merge reducer ranks its whole partition with two
lexsorts, and :func:`merged_result` bulk-loads the outcome.  A block weighs
its rows, so records and bytes are those of one ``(r_id, (ids, dists))`` pair
per list.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.result import KnnJoinResult
from repro.mapreduce.hdfs import DistributedFileSystem
from repro.mapreduce.job import BlockBufferingMapper, Context, Mapper, MapReduceJob, Reducer
from repro.mapreduce.partitioners import HashPartitioner, ModPartitioner
from repro.mapreduce.plan import JobGraph, PlanRun, Stage
from repro.mapreduce.splits import split_records
from repro.mapreduce.types import ROLE_R, ROLE_S, NeighborBlock, RecordBlock, ranks_within

from .base import REPLICA_GROUP, REPLICA_NAME, JoinConfig, JoinOutcome, StageStats

__all__ = [
    "block_of",
    "block_of_ids",
    "BlockRoutingMapper",
    "CandidateMergeMapper",
    "CandidateMergeReducer",
    "candidate_emissions",
    "merge_candidates",
    "merged_result",
    "chain_splits",
    "merge_job_spec",
    "merge_stage",
    "knn_outcome_assembler",
]


def block_of(object_id: int, num_blocks: int) -> int:
    """Deterministic near-uniform block assignment (Knuth multiplicative)."""
    return ((object_id * 2654435761) & 0xFFFFFFFF) % num_blocks


def block_of_ids(object_ids: np.ndarray, num_blocks: int) -> np.ndarray:
    """Vectorized :func:`block_of` (identical values, uint64 arithmetic —
    the 32-bit mask only keeps bits the modular multiply preserves)."""
    hashed = (object_ids.astype(np.uint64) * np.uint64(2654435761)) & np.uint64(
        0xFFFFFFFF
    )
    return (hashed % np.uint64(num_blocks)).astype(np.int64)


class BlockRoutingMapper(BlockBufferingMapper):
    """Routes each object to its row (R) or column (S) of block reducers.

    A row of both roles (a self-join's) ships as its R copy and its S copy
    apart, each stamped with its one role (:meth:`RecordBlock.copies_of`).

    Key encoding: reducer ``(i, j)`` is the integer ``i * B + j``, so a
    modulo partitioner keeps the one-pair-per-reducer layout.  Routing is
    columnar: the task's input is gathered into one block, hashed with one
    vectorized pass, and emitted as per-block-row sub-blocks — ``sqrt(N)``
    values per own-block instead of ``sqrt(N)`` per object.
    """

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self._num_blocks = int(ctx.cache["num_blocks"])

    def route_block(self, block: RecordBlock, ctx: Context):
        num_blocks = self._num_blocks
        r_block = block.copies_of(ROLE_R)
        if len(r_block):
            for own_block, sub in r_block.split_by(
                block_of_ids(r_block.object_ids, num_blocks)
            ):
                for j in range(num_blocks):
                    yield own_block * num_blocks + j, sub
        s_block = block.copies_of(ROLE_S)
        if len(s_block):
            ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME, len(s_block) * num_blocks)
            for own_block, sub in s_block.split_by(
                block_of_ids(s_block.object_ids, num_blocks)
            ):
                for i in range(num_blocks):
                    yield i * num_blocks + own_block, sub


def candidate_emissions(candidates: NeighborBlock, ctx: Context, id_dtype: np.dtype):
    """A reducer's candidate lists as ``(merge partition, sub-block)`` pairs,
    their ids in the join's ``id_dtype`` (the producer's input blocks' own).

    The partition is ``r_id % merge_reducers`` (the producing job's cache
    names the merge job's reducer count) — where the merge job's hash
    partitioner routes the integer key anyway — so every list of one ``r``
    meets in one reduce group, and a reducer emits at most
    ``merge_reducers`` values however many ``r`` it answered.
    """
    partitions = candidates.r_ids.astype(np.int64) % int(ctx.cache["merge_reducers"])
    return candidates.with_id_dtype(id_dtype).split_by(partitions)


class CandidateMergeMapper(Mapper):
    """Identity mapper of the merge job: candidates are already keyed by
    their merge partition."""

    def map(self, key, value, ctx: Context):
        yield key, value


def merge_candidates(candidates: NeighborBlock, k: int) -> NeighborBlock:
    """The k best distinct neighbours of every ``r`` in the block (int64 ids).

    Candidates are deduplicated by object id before ranking (each keeps its
    smallest reported distance): block pairs never overlap (H-BRJ/PBJ), but
    overlapping candidate sources — e.g. the z-order join's shifted curves —
    may report the same neighbor twice, and a duplicate must not consume two
    of the k slots.  Ranking is by (distance, id); output rows are one per
    distinct ``r``, ids ascending.
    """
    candidates = candidates.with_id_dtype(np.int64)
    owners = np.repeat(candidates.r_ids, np.diff(candidates.offsets))
    ids, dists = candidates.ids, candidates.dists
    order = np.lexsort((dists, ids, owners))
    owners, ids, dists = owners[order], ids[order], dists[order]
    first = np.ones(owners.size, dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (ids[1:] != ids[:-1])
    owners, ids, dists = owners[first], ids[first], dists[first]
    order = np.lexsort((ids, dists, owners))
    owners, ids, dists = owners[order], ids[order], dists[order]
    r_ids = np.unique(candidates.r_ids)
    sizes = np.diff(np.append(np.searchsorted(owners, r_ids), owners.size))
    keep = ranks_within(sizes) < k
    return NeighborBlock.from_counts(r_ids, np.minimum(sizes, k), ids[keep], dists[keep])


class CandidateMergeReducer(Reducer):
    """Keeps the k best of the candidate lists of every r of one partition."""

    def setup(self, ctx: Context) -> None:
        self._k = int(ctx.cache["k"])

    def reduce(self, key, values, ctx: Context):
        yield key, merge_candidates(NeighborBlock.gather(values), self._k)


def merged_result(k: int, outputs: list) -> KnnJoinResult:
    """A join's final ``NeighborBlock`` outputs, bulk-loaded into a result."""
    result = KnnJoinResult(k)
    for _, block in outputs:
        result.add_many(block.r_ids, block.offsets, block.ids, block.dists)
    return result


def chain_splits(
    config: JoinConfig,
    dfs: DistributedFileSystem | None,
    name: str,
    records: list,
) -> list:
    """Input splits for a chained job's intermediate records.

    The seam every driver routes job-chaining intermediates through: with a
    DFS (out-of-core configs hand one in, segment-backed) the records are
    written as a DFS file and read back as lazy splits — the intermediate
    leaves RAM and map workers decode their own chunks from disk.  Without
    one, the records are sliced in place, the historical path.  Chunk
    boundaries are identical either way, so task layout and all accounting
    are unaffected by where the intermediate lives.
    """
    if dfs is None:
        return split_records(records, config.split_size)
    dfs.put(name, records)
    return dfs.splits(name)


def merge_job_spec(config: JoinConfig) -> MapReduceJob:
    """Spec of the block framework's second job: merge partial candidates.

    Its input — the first job's :func:`candidate_emissions` — makes up this
    job's (counted) shuffle traffic, matching the
    ``sum |R_i knn-join S_j|`` term of the paper's cost analysis.  Plan
    builders pair it with ``chain_splits`` over the upstream stage's output.
    """
    return MapReduceJob(
        name="merge-candidates",
        mapper_factory=CandidateMergeMapper,
        reducer_factory=CandidateMergeReducer,
        partitioner=HashPartitioner(),
        num_reducers=config.num_reducers,
        cache={"k": config.k},
    )


def merge_stage(
    graph: JobGraph, config: JoinConfig, dfs: DistributedFileSystem | None, upstream: Stage
) -> Stage:
    """Add ``<graph>/merge``: :func:`merge_job_spec` over the candidate lists
    ``upstream`` emitted, chained through ``dfs``."""

    def build_merge(ctx):
        return merge_job_spec(config), chain_splits(
            config, dfs, "merge-input", ctx.result_of(upstream).outputs
        )

    return graph.stage(f"{graph.name}/merge", build_merge, deps=(upstream,))


def knn_outcome_assembler(
    name: str,
    r: Dataset,
    s: Dataset,
    config: JoinConfig,
    stages: Sequence[Stage],
    phase_names: Sequence[str],
    state: dict | None = None,
) -> Callable[[PlanRun], JoinOutcome]:
    """How every kNN plan ends: the ``assemble`` of its ``JoinPlan``.

    The last stage's ``NeighborBlock`` outputs become the result; stats (one
    per stage, under the stage's name and its Figure 6 ``phase_names`` entry),
    master phases and counters are gathered in stage order.  ``state`` is the
    dict :func:`~repro.joins.partition_job.partition_stage` filled, for plans
    whose master computed pivot distances.
    """
    r_size, s_size, k = len(r), len(s), config.k  # all the closure keeps of its inputs

    def assemble(run: PlanRun) -> JoinOutcome:
        jobs = [run.result_of(stage) for stage in stages]
        outcome = JoinOutcome(
            algorithm=name,
            result=merged_result(k, jobs[-1].outputs),
            r_size=r_size,
            s_size=s_size,
            k=k,
            master_phases=run.phases_of(stages),
            job_stats=StageStats(
                [job.stats for job in jobs], names=[stage.name for stage in stages]
            ),
            job_phase_names=list(phase_names),
            master_distance_pairs=0 if state is None else state["metric"].pairs_computed,
        )
        for job in jobs:
            outcome.counters.merge(job.counters)
        return outcome

    return assemble


def block_join_spec(
    name: str,
    reducer_factory,
    num_blocks: int,
    cache: dict,
) -> MapReduceJob:
    """Job spec for the first (block join) job of the framework."""
    cache = dict(cache)
    cache["num_blocks"] = num_blocks
    return MapReduceJob(
        name=name,
        mapper_factory=BlockRoutingMapper,
        reducer_factory=reducer_factory,
        partitioner=ModPartitioner(),
        num_reducers=num_blocks * num_blocks,
        cache=cache,
    )
