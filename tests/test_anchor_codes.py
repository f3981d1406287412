"""Anchor codes: each object's distances to all of the partitioner's anchors,
shipped as one byte each by the partitioning job.

The guarantees under test:

* the partitioning job ships a code for every one of the ``A`` anchors
  :meth:`~repro.core.partition.VoronoiPartitioner.anchor_index` chose (every
  pivot below 16 pivots);
* a decoded code brackets the distance it was made from — ``|o, a|`` lies
  within the row's radius of its mid — under every metric and at
  coordinates up to 1e12;
* on collinear worlds at 1e9–1e12, where ``| |r, a| - |s, a| |`` equals
  ``|r, s|`` but for rounding, the code filter alone never rejects a pair
  within theta, with 3 anchors or 13;
* the columns round-trip through the record codec with ``C`` in {0, 3, 4},
  a truncated or padded stream fails loudly, and a join that spills its
  shuffle and its intermediate to disk equals the in-memory one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.geometry import anchor_codes, anchor_intervals
from repro.datasets import generate_osm
from repro.joins import JoinConfig, get_join, plan_join
from repro.joins.kernels import _codes_admit
from repro.joins.partition_job import run_partitioning_job
from repro.joins.registry import JoinPlan, execute_join_plan
from repro.mapreduce import RecordBlock, decode_record_block, encode_record_block
from repro.mapreduce.serialization import encode_block
from repro.mapreduce.types import ROLE_BOTH, ROLE_R, ROLE_S


def coded(points, pivots, metric_name):
    """What the partitioning job ships for ``points``: cells, pivot distances
    and anchor codes, plus the true anchor distances, the code anchors'
    rows of the pivot matrix and the decoded ``(mids, radius)``."""
    partitioner = VoronoiPartitioner(pivots, get_metric(metric_name))
    pids, dists, anchor_dists = partitioner.assign_points(points)
    code_rows = partitioner.pivot_distance_matrix()[partitioner.anchor_index()[0]]
    codes = anchor_codes(anchor_dists, pids, dists, code_rows)
    intervals = anchor_intervals(codes, pids, dists, code_rows)
    return pids, dists, codes, anchor_dists, code_rows, intervals


@st.composite
def coded_worlds(draw):
    """Points and pivots at any scale up to 1e12: uniform, on a coarse grid,
    or drawn from the pivots themselves (an object at its pivot codes a
    zero-width interval), under l1, l2 or l-infinity."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from((1, 2, 3, 10)))
    scale = 10.0 ** draw(st.integers(0, 12))
    pivots = rng.random((draw(st.integers(1, 24)), dims)) * scale
    points = rng.random((draw(st.integers(1, 60)), dims)) * scale
    shape = draw(st.sampled_from(("uniform", "grid", "pivots")))
    if shape == "grid":
        points = np.round(points / scale * 3) * scale / 3
    elif shape == "pivots":
        points = pivots[rng.integers(0, len(pivots), len(points))]
    return points, pivots, draw(st.sampled_from(("l1", "l2", "linf")))


class TestCodes:
    @given(coded_worlds())
    @settings(max_examples=150, deadline=None)
    def test_the_decoded_interval_holds_the_distance(self, world):
        points, pivots, metric_name = world
        _, _, codes, truth, code_rows, (mids, radius) = coded(points, pivots, metric_name)
        assert codes.dtype == np.uint8
        assert codes.shape == (len(points), code_rows.shape[0])
        assert (np.abs(truth.T - mids) <= radius).all()

    def test_a_code_is_a_256th_of_the_triangle_interval(self):
        """Pivot 0 at the origin, the anchor (pivot 1) at 10: an object 1
        from its pivot has ``|o, a|`` in [9, 11], 2 / 256 per code."""
        pivots = np.array([[0.0, 0.0], [10.0, 0.0]])
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        pids, _, codes, truth, _, (mids, radius) = coded(points, pivots, "l2")
        assert pids.tolist() == [0, 0, 0]
        # the own pivot is an exact zero-width interval, code 0
        assert codes[:, 0].tolist() == [0, 0, 0] and np.allclose(mids[0], 1.0)
        assert codes[:, 1].tolist() == [0, 255, int((np.sqrt(101) - 9) / (2 / 256))]
        assert np.allclose(radius, 1 / 256, rtol=1e-6)
        assert (np.abs(truth.T - mids) <= radius).all()


@pytest.mark.parametrize("num_pivots", (1, 9, 15, 16, 40, 160))
def test_the_mapper_ships_a_code_per_anchor(num_pivots):
    """Each row carries exactly ``A`` codes, the anchor index's own: all ``M``
    below 16 pivots, the count the master chose from the pivot matrix above."""
    rng = np.random.default_rng(num_pivots)
    data = Dataset(rng.random((400, 3)), name="d")
    pivots = data.points[rng.choice(len(data), num_pivots, replace=False)]
    with JoinConfig(k=4, split_size=128).make_runtime() as runtime:
        result = run_partitioning_job(data, data, pivots, JoinConfig(split_size=128), runtime)
    partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
    anchors = partitioner.anchor_index()[0]
    if num_pivots < 16:
        assert anchors.tolist() == list(range(num_pivots))
    for _, block in result.outputs:
        assert block.anchor_codes.shape == (len(block), anchors.size)
        _, dists, anchor_dists = partitioner.assign_points(block.points)
        code_rows = partitioner.pivot_distance_matrix()[anchors]
        expected = anchor_codes(anchor_dists, block.partition_ids, dists, code_rows)
        assert np.array_equal(block.anchor_codes, expected)


def collinear_world(seed, extra_pivots=0):
    """The ring cut's hard case at large coordinates: objects on one random line
    through a pivot, at integer steps of 1e9–1e12, three pivots (and
    ``extra_pivots`` more, anywhere in the cube), l1 or l2."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(9, 13)
    direction = rng.random(3)
    direction /= np.linalg.norm(direction)
    origin = rng.random(3) * scale
    r_points, s_points = (
        origin + np.outer(rng.integers(0, 30, count).astype(float), direction) * scale
        for count in (20, 40)
    )
    pivots = np.vstack(
        [origin, origin + direction * scale * 31, origin + rng.random(3) * scale]
        + [origin + rng.random(3) * scale * 31 for _ in range(extra_pivots)]
    )
    return r_points, s_points, pivots, ("l2", "l1")[seed % 2]


@pytest.mark.parametrize("extra_pivots", (0, 10), ids=("3-anchors", "13-anchors"))
@pytest.mark.parametrize("seed", range(40))
def test_the_code_filter_never_rejects_a_pair_within_theta_on_collinear_worlds(seed, extra_pivots):
    """Every pair passes the filter at theta = its own distance, so no theta
    a row can hold drops a pair within it — with a code per anchor, ``C =
    A`` (every pivot below 16)."""
    r_points, s_points, pivots, metric_name = collinear_world(seed, extra_pivots)
    r_coded = coded(r_points, pivots, metric_name)
    assert r_coded[2].shape[1] == len(pivots)
    r_side = r_coded[-1]
    s_side = coded(s_points, pivots, metric_name)[-1]
    dists = get_metric(metric_name).cross_distances(r_points, s_points)
    (r_mids, r_radius), (s_mids, s_radius) = r_side, s_side
    for row in range(len(r_points)):
        limit = dists[row] + r_radius[row] + s_radius
        assert _codes_admit(r_mids[:, row, None], s_mids, limit).all()


def sample_block(rows, codes, seed=0):
    rng = np.random.default_rng(seed)
    block = RecordBlock.of_objects(
        np.array([ROLE_R, ROLE_S, ROLE_BOTH])[np.arange(rows) % 3],
        np.arange(rows),
        rng.random((rows, 2)),
        rng.integers(0, 50, rows),
    )
    block.partition_ids = rng.integers(0, 300, rows).astype(np.int32)
    block.pivot_distances = rng.random(rows)
    block.anchor_codes = rng.integers(0, 256, (rows, codes), dtype=np.uint8)
    return block


class TestCodec:
    @pytest.mark.parametrize("codes", (0, 3, 4))
    def test_round_trip(self, codes):
        block = sample_block(9, codes)
        clone = decode_record_block(encode_record_block(block))
        assert clone.partition_ids.dtype == np.int32 and clone.anchor_codes.dtype == np.uint8
        assert clone.anchor_codes.shape == (9, codes)
        for column in ("role", "object_ids", "points", "payloads", "partition_ids",
                       "pivot_distances", "anchor_codes"):
            assert np.array_equal(getattr(clone, column), getattr(block, column)), column

    @pytest.mark.parametrize("codes", (3, 4))
    def test_truncated_and_oversized_streams_are_refused(self, codes):
        encoded = encode_record_block(sample_block(5, codes))
        for cut in (1, codes, 5 * codes):
            with pytest.raises(ValueError, match=f"truncated RecordBlock.*{codes} codes"):
                decode_record_block(encoded[:-cut])
        with pytest.raises(ValueError, match="oversized RecordBlock"):
            decode_record_block(encoded + b"\x00" * codes)

    def test_the_header_declares_the_code_count(self):
        """Rows of 0 codes read as rows of 1 would need 5 more bytes."""
        encoded = bytearray(encode_record_block(sample_block(5, 0)))
        encoded[12:16] = (1).to_bytes(4, "little")
        with pytest.raises(ValueError, match="truncated RecordBlock"):
            decode_record_block(bytes(encoded))

    def test_a_spilled_block_is_the_encoded_block(self):
        block = sample_block(6, 4)
        assert encode_block(block) == encode_record_block(block)


def stages(name, data, **knobs):
    config = get_join(name).make_config(
        k=4, num_reducers=3, num_pivots=40, split_size=128, seed=2, **knobs
    )
    plan = plan_join(name, data, data, config)
    run = execute_join_plan(JoinPlan(graph=plan.graph, assemble=lambda run: run), config)
    return plan.assemble(run), [run.result_of(stage) for stage in plan.graph.stages]


@pytest.mark.parametrize("name", ("pgbj", "pbj"))
def test_spill_equals_memory_with_codes(name):
    """Through on-disk segments (shuffle and intermediate alike) every code
    arrives as written: the same partitioned rows, answer, counters and
    shuffle accounting as in memory."""
    data = Dataset(generate_osm(600, seed=4).points, name="osm")
    memory, memory_jobs = stages(name, data)
    spill, spill_jobs = stages(name, data, memory_budget=4096)
    assert sum(job.stats.spill_segments for job in spill_jobs) > 0  # it did spill
    partitioned = [
        RecordBlock.gather(block for _, block in jobs[0].outputs)
        for jobs in (memory_jobs, spill_jobs)
    ]
    assert partitioned[0].anchor_codes.shape[1] >= 1
    assert np.array_equal(partitioned[0].anchor_codes, partitioned[1].anchor_codes)
    assert list(memory.result.pairs()) == list(spill.result.pairs())
    assert memory.counters.as_dict() == spill.counters.as_dict()
    assert [(job.stats.shuffle_records, job.stats.shuffle_bytes) for job in memory_jobs] == [
        (job.stats.shuffle_records, job.stats.shuffle_bytes) for job in spill_jobs
    ]
