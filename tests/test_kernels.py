"""Unit tests for the Algorithm 3 reducer kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import compute_thetas
from repro.core.knn import brute_force_knn_join
from repro.core.summary import build_partial_summary
from repro.joins import kernels
from repro.joins.kernels import (
    RPartitionBlock,
    build_partition_blocks,
    build_r_blocks,
    build_s_blocks,
    knn_join_kernel,
    knn_join_kernel_reference,
    local_ring_stats,
    local_theta,
)
from repro.mapreduce.types import ObjectRecord, RecordBlock


def records_for(dataset, tag, assignment):
    return [
        ObjectRecord(
            dataset=tag,
            object_id=int(dataset.ids[row]),
            point=dataset.points[row],
            partition_id=int(assignment.partition_ids[row]),
            pivot_distance=float(assignment.pivot_distances[row]),
        )
        for row in range(len(dataset))
    ]


def kernel_world(
    seed=0, num_r=60, num_s=80, num_pivots=6, k=4, metric_name="l2", dims=3, twin_pivots=False
):
    """Everything one 'reducer' would hold if a single group got all data.

    ``twin_pivots`` makes pivot 1 coincide with pivot 0 (``pdm[0, 1] == 0``)
    and hands cell 1 every other object of cell 0 — a legal tie-break, the
    pivot distances being equal.
    """
    rng = np.random.default_rng(seed)
    r_points, s_points = rng.random((num_r, dims)), rng.random((num_s, dims))
    pivots = rng.random((num_pivots, dims))
    if twin_pivots:
        pivots[1] = pivots[0]
    return world_from(r_points, s_points, pivots, k, metric_name, twin_pivots)


def world_from(r_points, s_points, pivots, k, metric_name="l2", twin_pivots=False):
    """The reducer-side world of explicit points: real assignments, summary
    tables, Algorithm 1 thetas (``inf`` when S holds fewer than k) and blocks."""
    num_s = len(s_points)
    r = Dataset(r_points, name="r")
    s = Dataset(s_points, ids=np.arange(1000, 1000 + num_s), name="s")
    metric = get_metric(metric_name)
    partitioner = VoronoiPartitioner(pivots, metric)
    ar, as_ = partitioner.assign(r), partitioner.assign(s)
    if twin_pivots:
        for assignment in (ar, as_):
            in_zero = np.flatnonzero(assignment.partition_ids == 0)
            assignment.partition_ids[in_zero[::2]] = 1
    tr = build_partial_summary(ar.partition_ids, ar.pivot_distances, 0)
    ts = build_partial_summary(as_.partition_ids, as_.pivot_distances, k)
    pdm = partitioner.pivot_distance_matrix()
    if k <= num_s:
        thetas = compute_thetas(tr, ts, pdm, k)
    else:
        thetas = {pid: np.inf for pid in tr.partition_ids()}
    ring = {pid: (ts.get(pid).lower, ts.get(pid).upper) for pid in ts.partition_ids()}
    r_blocks = build_r_blocks(records_for(r, "R", ar))
    s_blocks = build_s_blocks(records_for(s, "S", as_))
    return r, s, r_blocks, s_blocks, thetas, ring, pivots, pdm, k


class TestBlocks:
    def test_r_blocks_partition_objects(self):
        _, _, r_blocks, _, _, _, _, _, _ = kernel_world()
        total = sum(block.ids.size for block in r_blocks.values())
        assert total == 60

    def test_s_blocks_sorted_by_pivot_distance(self):
        _, _, _, s_blocks, _, _, _, _, _ = kernel_world()
        for block in s_blocks.values():
            assert np.all(np.diff(block.pivot_dists) >= 0)

    def test_local_ring_stats_are_extremes(self):
        _, _, _, s_blocks, _, _, _, _, _ = kernel_world()
        stats = local_ring_stats(s_blocks)
        for pid, (lo, hi) in stats.items():
            assert lo == s_blocks[pid].pivot_dists[0]
            assert hi == s_blocks[pid].pivot_dists[-1]


class TestKernelCorrectness:
    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True), (False, False)])
    def test_matches_brute_force_under_all_pruning_flags(self, flags):
        use_hp, use_ring = flags
        r, s, r_blocks, s_blocks, thetas, ring, pivots, pdm, k = kernel_world(seed=3)
        metric = get_metric("l2")
        results = dict()
        for r_id, ids, dists in knn_join_kernel(
            metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm,
            use_hyperplane_pruning=use_hp, use_ring_pruning=use_ring,
        ):
            results[r_id] = (ids, dists)
        truth = brute_force_knn_join(
            get_metric("l2"), r.points, r.ids, s.points, s.ids, k
        )
        assert set(results) == set(truth)
        for r_id in truth:
            assert np.allclose(results[r_id][1], truth[r_id][1])

    def test_pruning_reduces_distance_computations(self):
        r, s, r_blocks, s_blocks, thetas, ring, pivots, pdm, k = kernel_world(
            seed=5, num_r=100, num_s=150, num_pivots=12
        )
        costs = {}
        for use_pruning in (True, False):
            metric = get_metric("l2")
            list(
                knn_join_kernel(
                    metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm,
                    use_hyperplane_pruning=use_pruning, use_ring_pruning=use_pruning,
                )
            )
            costs[use_pruning] = metric.pairs_computed
        assert costs[True] < costs[False]

    def test_empty_s_blocks_rejected(self):
        r, s, r_blocks, _, thetas, ring, pivots, pdm, k = kernel_world()
        with pytest.raises(ValueError, match="no S objects"):
            list(knn_join_kernel(get_metric("l2"), k, r_blocks, {}, thetas, ring, pivots, pdm))


def run_kernel(kernel, world, metric_name="l2", **flags):
    """``[(r_id, ids, distance bytes)]`` in yield order, and the pair count."""
    _, _, r_blocks, s_blocks, thetas, ring, pivots, pdm, k = world
    metric = get_metric(metric_name)
    results = [
        (r_id, ids.tolist(), dists.tobytes())
        for r_id, ids, dists in kernel(
            metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm, **flags
        )
    ]
    return results, metric.pairs_computed


def pairs_by_kind(world, metric_name="l2", **flags):
    """``(all counted pairs, the pairs the scans folded)`` of one kernel run —
    the difference is the object-pivot pairs ``|r, p_j|``."""
    scanned = []

    def scan(metric, k, r_points, s_block, rows, starts, lengths, *state):
        scanned.append(int(lengths.sum()))
        kernels.scan_partition_numpy(metric, k, r_points, s_block, rows, starts, lengths, *state)

    _, pairs = run_kernel(knn_join_kernel, world, metric_name, scan=scan, **flags)
    return pairs, sum(scanned)


def assert_matches_reference(world, metric_name="l2", **flags):
    expected, expected_pairs = run_kernel(knn_join_kernel_reference, world, metric_name, **flags)
    got, got_pairs = run_kernel(knn_join_kernel, world, metric_name, **flags)
    assert got == expected
    assert got_pairs == expected_pairs
    return got


class TestVectorizedMatchesReference:
    """The columnar kernel's contract: bit-identical to the seed kernel —
    same neighbor ids, same distances, same ``pairs_computed``."""

    @pytest.mark.parametrize(
        "flags",
        [
            dict(),
            dict(use_hyperplane_pruning=False),
            dict(use_ring_pruning=False),
            dict(use_hyperplane_pruning=False, use_ring_pruning=False),
        ],
    )
    def test_identical_under_all_pruning_flags(self, flags):
        world = kernel_world(seed=11, num_r=80, num_s=120, num_pivots=9, k=5)
        expected, expected_pairs = run_kernel(knn_join_kernel_reference, world, **flags)
        got, got_pairs = run_kernel(knn_join_kernel, world, **flags)
        assert got == expected
        assert got_pairs == expected_pairs

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    @pytest.mark.parametrize("use_ring", (True, False))
    @pytest.mark.parametrize("use_hyperplane", (True, False))
    def test_identical_under_every_flag_combination_and_metric(
        self, use_hyperplane, use_ring, metric_name
    ):
        """Each distance-free bound follows the switch of the rule it derives
        from, in the kernel and in the reference alike."""
        world = kernel_world(
            seed=71, num_r=90, num_s=150, num_pivots=11, k=5, metric_name=metric_name, dims=4
        )
        flags = dict(use_hyperplane_pruning=use_hyperplane, use_ring_pruning=use_ring)
        assert_matches_reference(world, metric_name, **flags)
        # the bounds only ever spare object-pivot pairs
        rows, present = sum(len(b.ids) for b in world[2].values()), len(world[3])
        pairs, scanned = pairs_by_kind(world, metric_name, **flags)
        assert pairs - scanned <= rows * present
        if not (use_hyperplane or use_ring):
            assert pairs - scanned == rows * present

    def test_identical_on_duplicate_points(self):
        """Adversarial ties: coincident objects, equal distances everywhere."""
        rng = np.random.default_rng(21)
        base = rng.integers(0, 3, size=(30, 2)).astype(float)
        points = np.vstack([base, base, base])
        r = Dataset(points, name="r")
        s = Dataset(points.copy(), ids=np.arange(500, 500 + 90), name="s")
        metric = get_metric("l2")
        pivots = rng.random((5, 2))
        partitioner = VoronoiPartitioner(pivots, metric)
        ar, as_ = partitioner.assign(r), partitioner.assign(s)
        tr = build_partial_summary(ar.partition_ids, ar.pivot_distances, 0)
        ts = build_partial_summary(as_.partition_ids, as_.pivot_distances, 4)
        pdm = partitioner.pivot_distance_matrix()
        thetas = compute_thetas(tr, ts, pdm, 4)
        ring = {pid: (ts.get(pid).lower, ts.get(pid).upper) for pid in ts.partition_ids()}
        r_blocks = build_r_blocks(records_for(r, "R", ar))
        s_blocks = build_s_blocks(records_for(s, "S", as_))
        world = (r, s, r_blocks, s_blocks, thetas, ring, pivots, pdm, 4)
        expected, expected_pairs = run_kernel(knn_join_kernel_reference, world)
        got, got_pairs = run_kernel(knn_join_kernel, world)
        assert got == expected
        assert got_pairs == expected_pairs

    def test_identical_when_k_exceeds_s(self):
        world = kernel_world(seed=13, num_r=25, num_s=4, num_pivots=3, k=9)
        expected, expected_pairs = run_kernel(knn_join_kernel_reference, world)
        got, got_pairs = run_kernel(knn_join_kernel, world)
        assert got == expected
        assert got_pairs == expected_pairs


def scan_orders(world):
    """Each R-cell's scan order over the present S-cells (line 14)."""
    _, _, r_blocks, s_blocks, _, _, _, pdm, _ = world
    present = sorted(s_blocks)
    return [tuple(np.argsort(pdm[pid][present], kind="stable")) for pid in sorted(r_blocks)]


def replace_world(world, **parts):
    names = ("r", "s", "r_blocks", "s_blocks", "thetas", "ring", "pivots", "pdm", "k")
    return tuple(parts.get(name, value) for name, value in zip(names, world))


class TestWavefrontMatchesReference:
    """The shapes the lock-step driver newly mixes in one call: rows of
    different R-cells visit different S-cells in the same step."""

    def test_cells_with_different_scan_orders_share_each_step(self):
        world = kernel_world(seed=17, num_r=90, num_s=140, num_pivots=10, k=5)
        assert len(set(scan_orders(world))) > 1
        got = assert_matches_reference(world)
        # yield order: sorted R-cell, then the block's row order
        r_blocks = world[2]
        assert [r_id for r_id, _, _ in got] == [
            int(r_id) for pid in sorted(r_blocks) for r_id in r_blocks[pid].ids
        ]

    def test_r_cell_whose_own_s_cell_is_absent(self):
        world = kernel_world(seed=19, num_r=70, num_s=110, num_pivots=8, k=4)
        s_blocks = dict(world[3])
        del s_blocks[next(pid for pid in sorted(world[2]) if pid in s_blocks)]
        assert_matches_reference(replace_world(world, s_blocks=s_blocks))

    def test_single_present_s_cell(self):
        world = kernel_world(seed=23, num_r=50, num_s=90, num_pivots=7, k=3)
        pid, block = max(world[3].items(), key=lambda item: len(item[1]))
        assert_matches_reference(replace_world(world, s_blocks={pid: block}))

    @pytest.mark.parametrize("metric_name", ["l2", "l1"])
    def test_coincident_pivots(self, metric_name):
        world = kernel_world(
            seed=29, num_r=80, num_s=120, num_pivots=7, k=4,
            metric_name=metric_name, twin_pivots=True,
        )
        assert world[7][0, 1] == 0.0 and {0, 1} <= set(world[2]) and {0, 1} <= set(world[3])
        assert_matches_reference(world, metric_name)

    @pytest.mark.parametrize("metric_name", ["l2", "l1"])
    def test_own_and_coincident_cells_are_never_hyperplane_pruned(self, metric_name):
        """Halved own-pivot distances give every hyperplane gap a positive
        numerator and a small theta lets it prune: only the explicit
        exemptions (own cell, ``pdm == 0``) keep those cells in the scan,
        exactly as the reference's branches do."""
        world = kernel_world(
            seed=59, num_r=200, num_s=400, num_pivots=7, k=4,
            metric_name=metric_name, twin_pivots=True,
        )
        r_blocks = {
            pid: RPartitionBlock(pid, block.ids, block.points, block.pivot_dists / 2.0)
            for pid, block in world[2].items()
        }
        thetas = {pid: 0.01 for pid in r_blocks}
        got = assert_matches_reference(
            replace_world(world, r_blocks=r_blocks, thetas=thetas), metric_name
        )
        assert any(ids for _, ids, _ in got)

    def test_unbounded_theta(self):
        """PBJ blocks smaller than k start every row at ``theta = inf``."""
        world = kernel_world(seed=31, num_r=60, num_s=100, num_pivots=8, k=4)
        thetas = {pid: np.inf for pid in world[2]}
        assert_matches_reference(replace_world(world, thetas=thetas))

    def test_k_larger_than_any_cell(self):
        world = kernel_world(seed=37, num_r=60, num_s=100, num_pivots=9, k=40)
        assert max(len(block) for block in world[3].values()) < 40
        assert_matches_reference(world)

    def test_both_ablation_switches_off(self):
        world = kernel_world(seed=41, num_r=70, num_s=90, num_pivots=8, k=4)
        assert_matches_reference(world, use_hyperplane_pruning=False, use_ring_pruning=False)

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    def test_every_metric_on_non_integer_10d_data(self, metric_name):
        world = kernel_world(
            seed=43, num_r=120, num_s=200, num_pivots=12, k=6, metric_name=metric_name, dims=10
        )
        assert len(set(scan_orders(world))) > 1
        assert_matches_reference(world, metric_name)

    def test_r_tiles(self, monkeypatch):
        """A tiny tile budget makes every R-cell its own tile (cells are never
        split); results, pair counts and the yield order must not move."""
        world = kernel_world(seed=47, num_r=90, num_s=130, num_pivots=9, k=5)
        untiled = assert_matches_reference(world)
        monkeypatch.setattr(kernels, "_TILE_BYTES", 1)
        assert assert_matches_reference(world) == untiled

    def test_pivot_distances_gather_within_the_byte_budget(self, monkeypatch):
        """A window's ``|r, p_j|`` batch is cut by the same byte budget as a
        scan's, without moving a result or a counted pair."""
        world = kernel_world(seed=61, num_r=150, num_s=260, num_pivots=9, k=5, dims=10)
        thetas = {pid: np.inf for pid in world[2]}  # every (row, cell) is needed
        world = replace_world(world, thetas=thetas)
        whole = assert_matches_reference(world)
        batches = []
        pair_distances = type(get_metric("l2")).pair_distances

        def spy(self, xs, ys):
            if np.isin(ys[:, 0], world[6][:, 0]).all():  # the right side is pivots
                batches.append(len(xs))
            return pair_distances(self, xs, ys)

        monkeypatch.setattr(kernels, "_GATHER_BYTES", 4096)  # 25 pairs of 10-d points
        monkeypatch.setattr(type(get_metric("l2")), "pair_distances", spy)
        assert assert_matches_reference(world) == whole
        assert max(batches) <= 25 and sum(batches) == 150 * 9

    def test_scans_gather_within_the_byte_budget(self, monkeypatch):
        world = kernel_world(seed=53, num_r=150, num_s=260, num_pivots=6, k=5, dims=10)
        budget = 4096  # 25 pairs of 10-d points, far below a step's batch
        gathered = []
        scan_segments = kernels._scan_segments

        def spy(metric, k, r_points, s_block, rows, starts, lengths, *state):
            gathered.append((int(lengths.sum()) * 16 * r_points.shape[1], lengths.size))
            scan_segments(metric, k, r_points, s_block, rows, starts, lengths, *state)

        monkeypatch.setattr(kernels, "_GATHER_BYTES", budget)
        monkeypatch.setattr(kernels, "_scan_segments", spy)
        assert_matches_reference(world)
        assert len(gathered) > len(world[3])  # the budget did split steps
        # only a lone segment may exceed the budget: segments are never split
        assert all(nbytes <= budget or segments == 1 for nbytes, segments in gathered)


@st.composite
def adversarial_worlds(draw):
    """Worlds built to make both distance-free bounds tight or vacuous: points
    on a coarse grid (duplicates, equal distances), pivots drawn *from* the
    objects with repetition (objects that are their pivot, coincident pivots),
    k beyond any cell or beyond S, an R-cell robbed of its own S-cell,
    ``theta = inf``, any switch combination, every metric, one-cell tiles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.sampled_from((1, 2, 3, 10)))
    grid = draw(st.sampled_from((2, 4, 1000)))
    num_r, num_s = draw(st.integers(1, 50)), draw(st.integers(1, 70))
    r_points = rng.integers(0, grid, size=(num_r, dims)).astype(float)
    s_points = rng.integers(0, grid, size=(num_s, dims)).astype(float)
    pool = np.vstack([r_points, s_points])
    pivots = pool[rng.integers(0, len(pool), size=draw(st.integers(1, 8)))]
    metric_name = draw(st.sampled_from(("l1", "l2", "linf", "l3")))
    if draw(st.booleans()):
        # no S object may share a cell with the first R object
        partitioner = VoronoiPartitioner(pivots, get_metric(metric_name))
        own = partitioner.assign_points(r_points[:1])[0][0]
        elsewhere = partitioner.assign_points(s_points)[0] != own
        if elsewhere.any():
            s_points = s_points[elsewhere]
    world = world_from(r_points, s_points, pivots, draw(st.integers(1, 12)), metric_name)
    if draw(st.booleans()):
        world = replace_world(world, thetas={pid: np.inf for pid in world[2]})
    flags = dict(
        use_hyperplane_pruning=draw(st.booleans()), use_ring_pruning=draw(st.booleans())
    )
    return world, metric_name, flags, draw(st.sampled_from((1, 1 << 22)))


class TestAdversarialWorlds:
    @given(adversarial_worlds())
    @settings(max_examples=120, deadline=None)
    def test_exact_and_never_above_the_eager_pair_count(self, scenario):
        world, metric_name, flags, tile_bytes = scenario
        r, s, r_blocks, s_blocks, _, _, _, _, k = world
        saved, kernels._TILE_BYTES = kernels._TILE_BYTES, tile_bytes
        try:
            got = assert_matches_reference(world, metric_name, **flags)
            pairs, scanned = pairs_by_kind(world, metric_name, **flags)
        finally:
            kernels._TILE_BYTES = saved
        truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
        assert [(r_id, ids, dists) for r_id, ids, dists in got] == [
            (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
        ]
        assert len(got) == len(r)
        # eagerly, every row paid for every present pivot before its scans
        assert pairs <= len(r) * len(s_blocks) + scanned


class TestColumnarBuilders:
    def test_build_partition_blocks_splits_by_origin(self):
        r, s, r_blocks, s_blocks, *_ = kernel_world(seed=2)
        ar_records = records_for(r, "R", _assignment_of(r))
        as_records = records_for(s, "S", _assignment_of(s))
        mixed = [
            RecordBlock.from_records(ar_records[:30] + as_records[:40]),
            RecordBlock.from_records(ar_records[30:] + as_records[40:]),
        ]
        got_r, got_s = build_partition_blocks(mixed)
        assert sum(b.ids.size for b in got_r.values()) == len(r)
        assert sum(b.ids.size for b in got_s.values()) == len(s)
        for pid, block in got_s.items():
            order = np.lexsort((block.ids, block.pivot_dists))
            assert np.array_equal(order, np.arange(block.ids.size))

    def test_builders_accept_blocks_and_records_identically(self):
        r, _, _, _, _, _, _, _, _ = kernel_world(seed=4)
        records = records_for(r, "R", _assignment_of(r))
        from_records = build_r_blocks(records)
        from_block = build_r_blocks(RecordBlock.from_records(records))
        assert set(from_records) == set(from_block)
        for pid in from_records:
            assert np.array_equal(from_records[pid].ids, from_block[pid].ids)
            assert np.array_equal(from_records[pid].points, from_block[pid].points)


def _assignment_of(dataset):
    """A fresh Voronoi assignment, purely for the grouping tests."""
    metric = get_metric("l2")
    pivots = np.random.default_rng(1).random((6, dataset.points.shape[1]))
    return VoronoiPartitioner(pivots, metric).assign(dataset)


class TestLocalTheta:
    def test_infinite_when_too_few_objects(self):
        _, _, _, s_blocks, _, _, _, pdm, _ = kernel_world(num_s=3, k=2)
        total = sum(len(b) for b in s_blocks.values())
        theta = local_theta(1.0, pdm[0], s_blocks, k=total + 1)
        assert theta == np.inf

    def test_finite_and_valid_bound(self):
        """Local theta >= true kth NN distance of every local r."""
        r, s, r_blocks, s_blocks, _, _, _, pdm, k = kernel_world(seed=8)
        for pid, block in r_blocks.items():
            theta = local_theta(block.local_upper(), pdm[pid], s_blocks, k)
            for row in range(block.ids.size):
                dists = np.sort(np.linalg.norm(s.points - block.points[row], axis=1))
                assert dists[k - 1] <= theta + 1e-9

    def test_partial_results_with_infinite_theta(self):
        """With theta=inf the kernel still returns all available candidates."""
        r, s, r_blocks, s_blocks, _, ring, pivots, pdm, _ = kernel_world(num_s=3, k=5)
        k = 5  # more than |S|
        thetas = {pid: np.inf for pid in r_blocks}
        out = list(
            knn_join_kernel(get_metric("l2"), k, r_blocks, s_blocks, thetas, ring, pivots, pdm)
        )
        assert all(ids.size == 3 for _, ids, _ in out)
