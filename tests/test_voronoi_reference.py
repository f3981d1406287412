"""The pruned nearest-pivot search against the all-pairs scan it replaced.

``VoronoiPartitioner.assign_points`` must return the partition ids and the
*bytes* of the pivot distances ``tests/reference_voronoi.py`` returns, on
worlds built to break a triangle-inequality prune: ties of every kind
(coincident pivots, identical points, points on bisectors, integer grids),
one dense cluster with far outliers, more pivots than points, coordinates
scaled until an absolute slack alone is either everything or nothing, and
anchors so far away that their distances' rounding outgrows the tie
tolerance.  Its pair counter must equal the count of the rule stated there,
and never exceed the nearest anchor's prefix the bound refines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric, partition
from repro.datasets import generate_osm
from repro.joins import partition_job
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, JoinConfig, PgbjConfig
from repro.joins.partition_job import SKIPPED_NAME, partition_stage, run_partitioning_job
from repro.mapreduce import JobGraph, PlanScheduler
from tests.reference_voronoi import (
    anchor_ids,
    assign_points_all_pairs,
    farthest_first,
    prefix_pair_count,
    pruned_pair_count,
)
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
    pids, dists, anchor_dists = VoronoiPartitioner(pivots, metric, anchors).assign_points(points)
    assert pids.dtype == want_pids.dtype and np.array_equal(pids, want_pids)
    assert dists.tobytes() == want_dists.tobytes()
    # the anchor distances the search computed, in the anchors' order
    uncounted = get_metric(metric_name).cross_distances(points, pivots[anchors[0]])
    assert anchor_dists.tobytes() == uncounted.tobytes()
    assert metric.pairs_computed <= reference_metric.pairs_computed
    assert metric.pairs_computed == pruned_pair_count(pivots, get_metric(metric_name), points)
    # the bound only ever removes pairs from the nearest anchor's prefix
    assert metric.pairs_computed <= prefix_pair_count(pivots, get_metric(metric_name), points)
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
        # pivot 1 is bounded, never an anchor: it is none of the ceil(sqrt(17))
        # pivots taken farthest-first, whatever count of them is chosen
        assert 1 not in farthest_first(get_metric("l2")._cross(pivots, pivots))
        assert 1 not in VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()[0]
        points = np.full((2, 1), 1e6)
        check_equal("l2", points, pivots)
        assert assign_points_all_pairs(pivots, get_metric("l2"), points)[0].tolist() == [0, 1]

    def test_the_slack_grows_with_the_anchor_distances(self):
        """l1 around the origin, anchors at the corners of a 3e7 box: every
        corner's bound on a pivot near the origin is tight, and its rounding
        (about 1e-8) dwarfs a slack relative to the best distance (1 here).
        Two pivots tie at distance 1; a slack blind to how far the anchors
        are skips one of them in about one world in six, and footnote 1 then
        balances the objects differently."""
        rng = np.random.default_rng(6)
        for _ in range(40):
            x, y = rng.uniform(2e7, 4e7, 2)
            f = rng.uniform(0.1, 0.4)
            corners = [[x, y], [-x, -y], [-x, y], [x, -y]]
            near = [[f, 1.0 - f], [1.0 - f, f]] + [[3.0 + i, 5.0 + 2 * i] for i in range(10)]
            check_equal("l1", np.zeros((40, 2)), np.array(corners + near))

    def test_the_far_side_of_the_bound_prunes(self):
        """Pivots deep inside the nearest anchor's ball, objects outside it:
        ``|o, a| - |a, p| > best`` skips them, while no anchor is nearer to
        those pivots than to the objects, so the other side of the bound
        never could.  The nearest anchor's prefix holds all of them."""
        rng = np.random.default_rng(8)
        far = [[-100.0, 0.0], [-100.0, 100.0], [-100.0, -100.0]]
        inside = rng.uniform(-0.01, 0.01, (11, 2))
        pivots = np.vstack([[0.0, 0.0], far, inside, [[1.001, 0.0]]])
        points = np.array([1.0, 0.0]) + rng.uniform(-1e-4, 1e-4, (50, 2))
        anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()[0]
        # farthest-first takes the corners before (-100, 0), which would
        # cost every object a pair and prune nothing the corners miss
        assert anchors.tolist() == [0, 2, 3]
        computed, _ = check_equal("l2", points, pivots)
        assert computed == 50 * (3 + 1)  # the anchors, then the pivot at (1.001, 0)
        assert prefix_pair_count(pivots, get_metric("l2"), points) == 50 * (3 + 12)

    def test_a_long_call_is_searched_in_row_windows(self, monkeypatch):
        """Memory stays bounded on a call of any length: rows are searched a
        window at a time (the count is the rule's per window), while footnote
        1 still runs over the whole call."""
        monkeypatch.setattr(partition, "_WINDOW_ELEMENTS", 200 * 1100)
        points, pivots = make_world("grid", np.random.default_rng(2), 2500, 200, 2, 1.0)
        want_pids, want_dists = assign_points_all_pairs(pivots, get_metric("l2"), points)
        anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()
        metric = get_metric("l2")
        pids, dists, _ = VoronoiPartitioner(pivots, metric, anchors).assign_points(points)
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
        # from sixteen on the count is chosen, among at most ceil(sqrt(16)) = 4
        pivots = np.random.default_rng(0).random((16, 2))
        points = np.random.default_rng(1).random((40, 2))
        anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()[0]
        assert 1 <= anchors.size <= 4
        check_equal("l2", points, pivots)

    def test_a_standalone_partitioner_counts_its_matrix_once(self):
        metric = get_metric("l2")
        pivots = np.random.default_rng(0).random((20, 2))
        points = np.random.default_rng(1).random((50, 2))
        partitioner = VoronoiPartitioner(pivots, metric)
        partitioner.assign_points(points)
        partitioner.assign_points(points)
        partitioner.pivot_distance_matrix()
        assert metric.pairs_computed == 20 * 19 // 2 + 2 * pruned_pair_count(
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


class TestMappersCountObjectPairsOnly:
    """A map task builds its partitioner from the anchor index the master
    ships: it must count the rule's object-pivot pairs and never a pivot-pivot
    pair (``M**2`` per map task would be the silent failure)."""

    def world(self):
        rng = np.random.default_rng(4)
        centres = rng.random((7, 3))
        points = centres[rng.integers(0, 7, 1500)] + rng.normal(0, 0.03, (1500, 3))
        return points, points[rng.choice(1500, 120, replace=False)]

    def test_a_partitioner_from_the_shipped_index_never_builds_the_matrix(self):
        points, pivots = self.world()
        anchors = VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()
        metric = get_metric("l2")
        partitioner = VoronoiPartitioner(pivots, metric, anchors)
        partitioner.assign_points(points)
        assert partitioner._pdm is None
        assert metric.pairs_computed == pruned_pair_count(pivots, get_metric("l2"), points)

    def test_pooled_map_tasks_count_the_rule_per_split(self):
        points, pivots = self.world()
        r = Dataset(points[:800])
        s = Dataset(points[800:], ids=np.arange(5_000, 5_700))
        config = JoinConfig(k=3, split_size=512, engine="processes-pooled", max_workers=2)
        with config.make_runtime() as runtime:
            result = run_partitioning_job(r, s, pivots, config, runtime)
        computed = sum(
            pruned_pair_count(pivots, get_metric("l2"), points[start : start + 512])
            for start in range(0, 1500, 512)
        )
        assert result.counters.value(PAIRS_GROUP, PAIRS_NAME) == computed
        assert result.counters.value(PAIRS_GROUP, SKIPPED_NAME) == 1500 * 120 - computed


class TestAnchorCount:
    """The master chooses how many anchors to take from the pivot matrix
    alone: a farthest-first prefix of ``ceil(sqrt(M))`` pivots, as long as the
    rule of ``tests/reference_voronoi.py:anchor_ids`` says it pays, at no
    counted pair and the same for every split size and engine."""

    @given(
        shape=st.sampled_from(SHAPES),
        metric_name=st.sampled_from(["l1", "l2", "linf"]),
        dims=st.sampled_from([1, 2, 10]),
        num_pivots=st.sampled_from([16, 17, 60, 200]),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_farthest_first_prefix_of_the_counted_rule(
        self, shape, metric_name, dims, num_pivots, scale, seed
    ):
        _, pivots = make_world(shape, np.random.default_rng(seed), 50, num_pivots, dims, scale)
        metric = get_metric(metric_name)
        anchors, others, rows = VoronoiPartitioner(pivots, metric).anchor_index()
        pdm = metric.pairwise_matrix(pivots)
        order = farthest_first(pdm)
        assert 1 <= anchors.size <= int(np.ceil(np.sqrt(num_pivots))) == len(order)
        assert anchors.tolist() == order[: anchors.size] == anchor_ids(pdm)
        rest = [j for j in range(num_pivots) if j not in order[: anchors.size]]
        for a, listed in zip(anchors, others):
            assert listed.tolist() == sorted(rest, key=lambda j: (pdm[a, j], j))
        assert rows.tobytes() == pdm[anchors].tobytes()

    def test_choosing_counts_no_pair(self):
        """A standalone partitioner pays its pivot matrix, once, and nothing
        more until it assigns."""
        metric = get_metric("l2")
        pivots = np.random.default_rng(0).random((200, 10))
        partitioner = VoronoiPartitioner(pivots, metric)
        assert 1 < partitioner.anchor_index()[0].size < 15
        assert metric.pairs_computed == 200 * 199 // 2

    def test_the_choice_is_the_same_for_every_split_size_and_engine(self, monkeypatch):
        shipped = []
        build = partition_job.partitioning_job

        def spy(r, s, pivots, pdm, config, anchors):
            shipped.append(anchors)
            return build(r, s, pivots, pdm, config, anchors)

        monkeypatch.setattr(partition_job, "partitioning_job", spy)
        data = Dataset(generate_osm(1500, seed=1).points)
        runs = ((256, "serial", None), (1024, "serial", None), (256, "processes-pooled", 2))
        for split_size, engine, workers in runs:
            config = PgbjConfig(k=3, split_size=split_size, engine=engine, max_workers=workers)
            graph, state = JobGraph("anchors"), {}
            stage = partition_stage(graph, data, data, config, 60, state)
            with config.make_runtime() as runtime:
                result = PlanScheduler(runtime).execute(graph).execution_of(stage).result
            # each object of a self-join is assigned once, and counted by itself
            assert result.counters.value(PAIRS_GROUP, PAIRS_NAME) == pruned_pair_count(
                state["pivots"], get_metric("l2"), data.points
            )
        assert len(shipped) == 3 and shipped[0][0].size < 8  # of ceil(sqrt(60))
        for anchors in shipped[1:]:
            assert [a.tobytes() for a in anchors] == [a.tobytes() for a in shipped[0]]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_dimensional_osm_takes_few_anchors(self, seed):
        """On 2-d OSM data three anchors do the job of ``ceil(sqrt(200)) = 15``."""
        points = generate_osm(5000, seed=seed).points
        pivots = points[np.random.default_rng(seed).choice(5000, 200, replace=False)]
        assert VoronoiPartitioner(pivots, get_metric("l2")).anchor_index()[0].size <= 4
