"""The pruned nearest-pivot search against the all-pairs scan it replaced.

``VoronoiPartitioner.assign_points`` must return the partition ids and the
*bytes* of the pivot distances ``tests/reference_voronoi.py`` returns, on
worlds built to break a triangle-inequality prune: ties of every kind
(coincident pivots, identical points, points on bisectors, integer grids),
one dense cluster with far outliers, more pivots than points, and coordinates
scaled until an absolute slack alone is either everything or nothing.  Its
pair counter must equal the count of the rule stated there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric, partition
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, JoinConfig
from repro.joins.partition_job import SKIPPED_NAME, run_partitioning_job
from tests.reference_voronoi import assign_points_all_pairs, pruned_pair_count
from tests.test_plan_equivalence import env_params

SHAPES = ("uniform", "grid", "coincident", "identical", "bisector", "cluster", "sparse")


def make_world(shape, rng, rows, num_pivots, dims, scale):
    """``(points, pivots)`` of one adversarial shape, before scaling by ``scale``."""
    points = rng.random((rows, dims))
    pivots = rng.random((num_pivots, dims))
    if shape == "grid":  # integer coordinates: exact ties everywhere
        points = rng.integers(0, 4, (rows, dims)).astype(float)
        pivots = rng.integers(0, 4, (num_pivots, dims)).astype(float)
    elif shape == "coincident":  # pivots repeat, so every object ties
        pivots = pivots[rng.integers(0, max(1, num_pivots // 3), num_pivots)]
    elif shape == "identical":
        points = np.repeat(points[:1], rows, axis=0)
    elif shape == "bisector" and num_pivots > 1:
        # midpoints of pivot pairs, exactly representable: halves of small integers
        pivots = rng.integers(-8, 8, (num_pivots, dims)).astype(float)
        pairs = rng.integers(0, num_pivots, (rows, 2))
        points = (pivots[pairs[:, 0]] + pivots[pairs[:, 1]]) / 2.0
    elif shape == "cluster":  # one dense cluster, a few objects and pivots far away
        points = 0.5 + rng.normal(0.0, 1e-3, (rows, dims))
        points[: max(1, rows // 50)] += rng.normal(0.0, 50.0, (max(1, rows // 50), dims))
        pivots = points[rng.integers(0, rows, num_pivots)] + rng.normal(
            0.0, 1e-4, (num_pivots, dims)
        )
    elif shape == "sparse":  # more pivots than points
        points = points[: max(1, min(rows, num_pivots // 2))]
    return points * scale, pivots * scale


def check_equal(metric_name, points, pivots):
    reference_metric, metric = get_metric(metric_name), get_metric(metric_name)
    want_pids, want_dists = assign_points_all_pairs(pivots, reference_metric, points)
    anchors = VoronoiPartitioner(pivots, get_metric(metric_name)).anchor_index()
    pids, dists = VoronoiPartitioner(pivots, metric, anchors).assign_points(points)
    assert pids.dtype == want_pids.dtype and np.array_equal(pids, want_pids)
    assert dists.tobytes() == want_dists.tobytes()
    assert metric.pairs_computed <= reference_metric.pairs_computed
    assert metric.pairs_computed == pruned_pair_count(pivots, get_metric(metric_name), points)
    return metric.pairs_computed, reference_metric.pairs_computed


class TestPrunedSearchMatchesAllPairs:
    @given(
        shape=st.sampled_from(SHAPES),
        metric_name=st.sampled_from(["l1", "l2", "linf", "l3"]),
        dims=st.sampled_from([1, 2, 10]),
        num_pivots=st.sampled_from([1, 2, 3, 17, 200]),
        rows=st.integers(1, 1500),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_ids_and_distance_bytes(self, shape, metric_name, dims, num_pivots, rows, scale, seed):
        rng = np.random.default_rng(seed)
        check_equal(metric_name, *make_world(shape, rng, rows, num_pivots, dims, scale))

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_130_dimensions(self, shape, metric_name):
        """Past 128 coordinates the column fold splits: same bytes there too."""
        rng = np.random.default_rng(130)
        check_equal(metric_name, *make_world(shape, rng, 300, 40, 130, 1.0))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_ties_span_tie_windows(self, scale):
        """Footnote 1 over several 1 024-row windows: the running counts of
        the all-pairs scan, window by window, decide every tied object."""
        rng = np.random.default_rng(5)
        points, pivots = make_world("grid", rng, 3000, 200, 2, scale)
        check_equal("l2", points, pivots)

    def test_the_slack_is_relative_as_well_as_absolute(self):
        """At coordinates near 1e6 the tie tolerance (1e-12 relative) is 1e-6:
        a pivot 4e-7 past ``2u`` from the anchor still ties, and an absolute
        ``PRUNE_EPS`` alone would have skipped it."""
        pivots = np.array([[0.0], [2e6 + 4e-7]] + [[1e9 * i] for i in range(1, 16)])
        assert 1 not in VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()[0]
        points = np.full((2, 1), 1e6)
        check_equal("l2", points, pivots)
        assert assign_points_all_pairs(pivots, get_metric("l2"), points)[0].tolist() == [0, 1]

    def test_a_long_call_is_searched_in_row_windows(self, monkeypatch):
        """Memory stays bounded on a call of any length: rows are searched a
        window at a time (the count is the rule's per window), while footnote
        1 still runs over the whole call."""
        monkeypatch.setattr(partition, "_WINDOW_ELEMENTS", 200 * 1100)
        points, pivots = make_world("grid", np.random.default_rng(2), 2500, 200, 2, 1.0)
        want_pids, want_dists = assign_points_all_pairs(pivots, get_metric("l2"), points)
        anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()
        metric = get_metric("l2")
        pids, dists = VoronoiPartitioner(pivots, metric, anchors).assign_points(points)
        assert np.array_equal(pids, want_pids) and dists.tobytes() == want_dists.tobytes()
        assert metric.pairs_computed == sum(
            pruned_pair_count(pivots, get_metric("l2"), points[start : start + 1100])
            for start in range(0, 2500, 1100)
        )

    def test_the_index_prunes(self):
        """Not vacuous: on clustered 2-d data most pairs are never computed."""
        rng = np.random.default_rng(11)
        centres = rng.random((12, 2))
        points = centres[rng.integers(0, 12, 4000)] + rng.normal(0.0, 0.01, (4000, 2))
        computed, all_pairs = check_equal("l2", points, points[:200])
        assert computed < 0.4 * all_pairs

    def test_below_sixteen_pivots_every_pivot_is_an_anchor(self):
        metric = get_metric("l2")
        partitioner = VoronoiPartitioner(np.random.default_rng(0).random((15, 2)), metric)
        partitioner.assign_points(np.random.default_rng(1).random((40, 2)))
        assert metric.pairs_computed == 40 * 15  # no pivot-pivot pair either
        assert partitioner.anchor_index()[0].tolist() == list(range(15))

    def test_a_standalone_partitioner_counts_its_matrix_once(self):
        metric = get_metric("l2")
        pivots = np.random.default_rng(0).random((20, 2))
        points = np.random.default_rng(1).random((50, 2))
        partitioner = VoronoiPartitioner(pivots, metric)
        partitioner.assign_points(points)
        partitioner.assign_points(points)
        partitioner.pivot_distance_matrix()
        assert metric.pairs_computed == 20 * 20 + 2 * pruned_pair_count(
            pivots, get_metric("l2"), points
        )


class TestPartitioningJobOverInterleavedSplits:
    """2 048-row splits of ``R`` then ``S`` through the real job (the CI legs put
    a process boundary and a spill budget under it): each map task's output
    is the reference's answer on its split, and the two counters add up."""

    def test_blocks_match_the_reference_and_counters_add_up(self):
        rng = np.random.default_rng(3)
        centres = rng.random((9, 2))
        r = Dataset(centres[rng.integers(0, 9, 3000)] + rng.normal(0, 0.02, (3000, 2)))
        s = Dataset(
            centres[rng.integers(0, 9, 2500)] + rng.normal(0, 0.02, (2500, 2)),
            ids=np.arange(10_000, 12_500),
        )
        pivots = r.points[rng.choice(len(r), 200, replace=False)]
        config = JoinConfig(k=3, num_reducers=2, split_size=2048, **env_params())
        with config.make_runtime() as runtime:
            result = run_partitioning_job(r, s, pivots, config, runtime)
        all_ids = np.concatenate([r.ids, s.ids])
        all_points = np.vstack([r.points, s.points])
        assert len(result.outputs) == 3  # the middle split holds R and S rows
        computed = 0
        for task, (_, block) in enumerate(result.outputs):
            rows = slice(2048 * task, 2048 * (task + 1))
            cells, dists = assign_points_all_pairs(pivots, get_metric("l2"), all_points[rows])
            order = np.argsort(cells, kind="stable")
            assert np.array_equal(block.object_ids, all_ids[rows][order])
            assert np.array_equal(block.partition_ids, cells[order])
            assert block.pivot_distances.tobytes() == dists[order].tobytes()
            computed += pruned_pair_count(pivots, get_metric("l2"), all_points[rows])
        all_pairs = (len(r) + len(s)) * 200
        assert result.counters.value(PAIRS_GROUP, PAIRS_NAME) == computed < all_pairs
        assert result.counters.value(PAIRS_GROUP, SKIPPED_NAME) == all_pairs - computed
