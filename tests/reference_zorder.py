"""The per-record z-order join, kept as the test-side reference.

A copy of the row-at-a-time mapper, reducer and merge reducer the library
shipped before the join went columnar, plus the Python-int Morton loop they
ran on.  ``src/`` holds only the array-shaped implementation;
``tests/test_zorder.py`` holds it equal to this one — results, distance
bytes, ``pairs_computed``, S replicas, shuffle records and bytes.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core.distance import get_metric
from repro.core.knn import KBestList
from repro.core.result import KnnJoinResult
from repro.core.zorder import ZOrderTransform
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME
from repro.mapreduce import LocalRuntime, split_records
from repro.mapreduce.job import Context, Mapper, MapReduceJob, Reducer
from repro.mapreduce.partitioners import HashPartitioner, ModPartitioner
from repro.mapreduce.splits import dataset_splits


def int_z_values(transform: ZOrderTransform, points: np.ndarray) -> list[int]:
    """Morton codes as Python ints: bit ``b`` of dimension ``d`` lands at
    position ``b * dims + d``, one ``|=`` per set bit."""
    cells = transform.quantize(points)
    num_objects, dims = cells.shape
    codes = [0] * num_objects
    for bit in range(transform.bits):
        for dim in range(dims):
            bit_values = (cells[:, dim] >> bit) & 1
            shift = bit * dims + dim
            for row in np.flatnonzero(bit_values):
                codes[row] |= 1 << shift
    return codes


class RowRoutingMapper(Mapper):
    """Routes one ``(is_r, id, point, z)`` tuple per object and target block."""

    def setup(self, ctx: Context) -> None:
        self._shifts = ctx.cache["shifts"]
        self._transform = ctx.cache["transform"]
        self._boundaries = ctx.cache["boundaries"]
        self._blocks_per_shift = int(ctx.cache["blocks_per_shift"])
        self._margins = ctx.cache["margins"]
        self._buffer: list = []

    def _block_of(self, shift_index: int, z_value: int) -> int:
        return bisect.bisect_right(self._boundaries[shift_index], z_value)

    def map(self, key, value, ctx: Context):
        self._buffer.append(value)
        return ()

    def cleanup(self, ctx: Context):
        records, self._buffer = self._buffer, []
        if not records:
            return
        points = np.array([record.point for record in records], dtype=np.float64)
        for shift_index in range(self._shifts.shape[0]):
            z_values = int_z_values(self._transform, points + self._shifts[shift_index])
            for record, z_value in zip(records, z_values):
                block = self._block_of(shift_index, z_value)
                reducer_key = shift_index * self._blocks_per_shift + block
                payload = (record.is_from_r(), record.object_id, record.point, z_value)
                if record.is_from_r():
                    yield reducer_key, payload
                    continue
                ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME)
                yield reducer_key, payload
                for neighbor in (block - 1, block + 1):
                    if 0 <= neighbor < self._blocks_per_shift and self._near_boundary(
                        shift_index, z_value, neighbor
                    ):
                        ctx.counters.incr(REPLICA_GROUP, REPLICA_NAME)
                        yield shift_index * self._blocks_per_shift + neighbor, payload

    def _near_boundary(self, shift_index: int, z_value: int, neighbor: int) -> bool:
        boundaries = self._boundaries[shift_index]
        margin = self._margins[shift_index]
        if neighbor < self._block_of(shift_index, z_value):
            return z_value - boundaries[neighbor] <= margin
        return boundaries[neighbor - 1] - z_value <= margin


class RowJoinReducer(Reducer):
    """Per (shift, block): one bisect and one distance call per ``r``."""

    def setup(self, ctx: Context) -> None:
        self._metric = get_metric(ctx.cache["metric_name"])
        self._k = int(ctx.cache["k"])
        self._per_side = int(ctx.cache["candidates_per_side"])

    def reduce(self, key, values, ctx: Context):
        r_items, s_items = [], []
        for is_r, oid, point, z in values:
            (r_items if is_r else s_items).append((z, oid, point))
        if not r_items or not s_items:
            return
        s_items.sort(key=lambda item: (item[0], item[1]))
        s_z = [z for z, _, _ in s_items]
        s_ids = np.array([oid for _, oid, _ in s_items], dtype=np.int64)
        s_points = np.array([point for _, _, point in s_items], dtype=np.float64)
        for z_value, r_id, r_point in r_items:
            center = bisect.bisect_left(s_z, z_value)
            start = max(0, center - self._per_side)
            stop = min(len(s_items), center + self._per_side)
            if start >= stop:
                continue
            dists = self._metric.distances(r_point, s_points[start:stop])
            order = np.lexsort((s_ids[start:stop], dists))[: self._k]
            yield r_id, (s_ids[start:stop][order], dists[order])

    def cleanup(self, ctx: Context):
        ctx.counters.incr(PAIRS_GROUP, PAIRS_NAME, self._metric.pairs_computed)
        return ()


class IdentityMapper(Mapper):
    def map(self, key, value, ctx: Context):
        yield key, value


def row_merge(lists, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best of one ``r``'s ``(ids, dists)`` lists, a candidate at a time."""
    best_of: dict[int, float] = {}
    for ids, dists in lists:
        for object_id, dist in zip(ids.tolist(), dists.tolist()):
            previous = best_of.get(object_id)
            if previous is None or dist < previous:
                best_of[object_id] = dist
    kbest = KBestList(k)
    kbest.update(
        np.fromiter(best_of.values(), dtype=np.float64, count=len(best_of)),
        np.fromiter(best_of.keys(), dtype=np.int64, count=len(best_of)),
    )
    return kbest.as_arrays()


class RowMergeReducer(Reducer):
    """Keeps the k best of the ``(ids, dists)`` lists of one ``r``."""

    def setup(self, ctx: Context) -> None:
        self._k = int(ctx.cache["k"])

    def reduce(self, key, values, ctx: Context):
        yield key, row_merge(values, self._k)


def row_merge_job(k: int, num_reducers: int) -> MapReduceJob:
    return MapReduceJob(
        name="merge-candidates",
        mapper_factory=IdentityMapper,
        reducer_factory=RowMergeReducer,
        partitioner=HashPartitioner(),
        num_reducers=num_reducers,
        cache={"k": k},
    )


def run_reference_zorder(r, s, config) -> dict:
    """The historical driver on the serial in-memory runtime, reduced to the
    facts the columnar join must reproduce."""
    rng = np.random.default_rng(config.seed)
    stacked = np.vstack([r.points, s.points])
    # one side for every dimension, as ``plan_zorder`` draws it
    side = max(float(np.max(stacked.max(axis=0) - stacked.min(axis=0))), 1e-9)
    shifts = np.vstack(
        [np.zeros(r.dimensions)]
        + [rng.random(r.dimensions) * side * 0.25 for _ in range(config.num_shifts - 1)]
    )
    transform = ZOrderTransform.for_points(stacked, bits=config.bits, padding=0.3)
    blocks_per_shift = max(1, config.num_reducers // config.num_shifts)
    sample_rows = rng.choice(len(s), size=min(config.sample_size, len(s)), replace=False)
    boundaries, margins = [], []
    for shift_index in range(config.num_shifts):
        sample_z = sorted(int_z_values(transform, s.points[sample_rows] + shifts[shift_index]))
        boundaries.append(
            [
                sample_z[int(len(sample_z) * q / blocks_per_shift)]
                for q in range(1, blocks_per_shift)
            ]
        )
        gaps = [b - a for a, b in zip(sample_z, sample_z[1:])] or [0]
        margins.append(int(sorted(gaps)[len(gaps) // 2] * config.k))
    join_job = MapReduceJob(
        name="zorder-join",
        mapper_factory=RowRoutingMapper,
        reducer_factory=RowJoinReducer,
        partitioner=ModPartitioner(),
        num_reducers=config.num_shifts * blocks_per_shift,
        cache={
            "shifts": shifts,
            "transform": transform,
            "boundaries": boundaries,
            "margins": margins,
            "blocks_per_shift": blocks_per_shift,
            "metric_name": config.metric_name,
            "k": config.k,
            "candidates_per_side": config.candidates_per_side or config.k,
        },
    )
    with LocalRuntime() as runtime:
        job1 = runtime.run(join_job, dataset_splits(r, s, config.split_size))
        job2 = runtime.run(
            row_merge_job(config.k, config.num_reducers),
            split_records(job1.outputs, config.split_size),
        )
    result = KnnJoinResult(config.k)
    for r_id, (ids, dists) in job2.outputs:
        result.add(r_id, ids, dists)
    return {
        "neighbors": result_bytes(result),
        "pairs_computed": job1.counters.value(PAIRS_GROUP, PAIRS_NAME),
        "s_replicas": job1.counters.value(REPLICA_GROUP, REPLICA_NAME),
        "shuffle_records": [job1.stats.shuffle_records, job2.stats.shuffle_records],
        "shuffle_bytes": [job1.stats.shuffle_bytes, job2.stats.shuffle_bytes],
    }


def result_bytes(result: KnnJoinResult) -> dict[int, tuple[bytes, bytes]]:
    """``r_id -> (id bytes, distance bytes)``: equality is bit equality."""
    return {
        r_id: tuple(column.tobytes() for column in result.neighbors_of(r_id))
        for r_id in result.r_ids()
    }


def outcome_facts(outcome) -> dict:
    """A library ``JoinOutcome`` in :func:`run_reference_zorder`'s terms."""
    return {
        "neighbors": result_bytes(outcome.result),
        "pairs_computed": outcome.counters.value(PAIRS_GROUP, PAIRS_NAME),
        "s_replicas": outcome.replication_of_s(),
        "shuffle_records": [stats.shuffle_records for stats in outcome.job_stats],
        "shuffle_bytes": [stats.shuffle_bytes for stats in outcome.job_stats],
    }
