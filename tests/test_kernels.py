"""Unit tests for the Algorithm 3 reducer kernel."""

import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import compute_thetas
from repro.core.geometry import anchor_codes, anchor_intervals
from repro.core.knn import brute_force_knn_join
from repro.core.summary import build_partial_summary
from repro.joins import kernels
from repro.joins.kernels import (
    RPartitionBlock,
    ScratchPool,
    build_partition_blocks,
    build_r_blocks,
    build_s_blocks,
    knn_join_kernel,
    knn_join_kernel_reference,
    local_ring_stats,
    local_thetas,
)
from repro.mapreduce.types import ROLE_BOTH, ROLE_R, ROLE_S, RecordBlock
from tests.reference_kernel import own_pivot_kernel


def block_for(dataset, role, assignment, partitioner=None):
    """``dataset`` as one block annotated with its Voronoi ``assignment``, and
    with the anchor codes of all of ``partitioner``'s anchors if one is given
    (what the partitioning job ships)."""
    block = RecordBlock.of_objects(role, dataset.ids, dataset.points)
    block.partition_ids = assignment.partition_ids
    block.pivot_distances = assignment.pivot_distances
    if partitioner is not None:
        anchors = partitioner.anchor_index()[0]
        block.anchor_codes = anchor_codes(
            get_metric(partitioner.metric.name).cross_distances(
                dataset.points, partitioner.pivots[anchors]
            ),
            assignment.partition_ids,
            assignment.pivot_distances,
            partitioner.pivot_distance_matrix()[anchors],
        )
    return block


def code_anchors_of(pivots, pdm, metric_name="l2"):
    """The pivots a world's anchor codes refer to: all of the partitioner's
    anchors, as the partition stage ships them."""
    partitioner = VoronoiPartitioner(pivots, get_metric(metric_name), distance_matrix=pdm)
    return partitioner.anchor_index()[0]


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
    tr = build_partial_summary(ar.partition_ids, ar.pivot_distances)
    ts = build_partial_summary(as_.partition_ids, as_.pivot_distances)
    pdm = partitioner.pivot_distance_matrix()
    if k <= num_s:
        thetas = compute_thetas(tr, ts, pdm, k)
    else:
        thetas = {pid: np.inf for pid in tr.partition_ids()}
    ring = dict(zip(ts.partition_ids(), zip(ts.lower.tolist(), ts.upper.tolist())))
    r_blocks = build_r_blocks(block_for(r, ROLE_R, ar, partitioner))
    s_blocks = build_s_blocks(block_for(s, ROLE_S, as_, partitioner))
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
    """``[(r_id, ids, distance bytes)]`` in yield order, and the pair count;
    the library's kernels filter by the world's anchor codes."""
    _, _, r_blocks, s_blocks, thetas, ring, pivots, pdm, k = world
    if kernel is not own_pivot_kernel:
        flags.setdefault("code_anchors", code_anchors_of(pivots, pdm, metric_name))
    metric = get_metric(metric_name)
    results = [
        (r_id, ids.tolist(), dists.tobytes())
        for r_id, ids, dists in kernel(
            metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm, **flags
        )
    ]
    return results, metric.pairs_computed


def pairs_by_kind(world, metric_name="l2", **flags):
    """``(counted pairs, the pairs the scans computed, the ring-slice pairs
    the scans were handed)`` of one kernel run — the first two differ by the
    object-pivot pairs ``|r, p_j|``, the last two by the pairs the anchor
    codes dropped."""
    computed, handed = [], []
    scan_partition = kernels.scan_partition_numpy

    def scan(metric, k, r_points, s_block, rows, starts, lengths, *state):
        before = metric.pairs_computed
        scan_partition(metric, k, r_points, s_block, rows, starts, lengths, *state)
        computed.append(metric.pairs_computed - before)
        handed.append(int(lengths.sum()))

    with mock.patch.object(kernels, "scan_partition_numpy", scan):
        _, pairs = run_kernel(knn_join_kernel, world, metric_name, **flags)
    return pairs, sum(computed), sum(handed)


def own_cell_rows(world):
    """R rows whose own cell is among the present S cells: each knows its
    distance to that cell's pivot without computing it."""
    _, _, r_blocks, s_blocks, *_ = world
    return sum(len(block.ids) for pid, block in r_blocks.items() if pid in s_blocks)


def assert_matches_reference(world, metric_name="l2", **flags):
    expected, expected_pairs = run_kernel(knn_join_kernel_reference, world, metric_name, **flags)
    got, got_pairs = run_kernel(knn_join_kernel, world, metric_name, **flags)
    assert got == expected
    assert got_pairs == expected_pairs
    return got


def collinear_kernel_world(seed):
    """Objects on one random line through a pivot, at integer steps of 1e6 to
    1e11, three pivots, k 1-5, l2 or l1: ``(world, metric name)``."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(6, 12)
    direction = rng.random(3)
    direction /= np.linalg.norm(direction)
    steps_r, steps_s = rng.integers(0, 30, 20), rng.integers(0, 30, 40)
    origin = rng.random(3) * scale
    r_points, s_points = (
        origin + np.outer(steps.astype(float), direction) * scale for steps in (steps_r, steps_s)
    )
    pivots = np.vstack([origin, origin + direction * scale * 31, origin + rng.random(3) * scale])
    metric_name = ("l2", "l1")[seed % 2]
    return world_from(r_points, s_points, pivots, int(rng.integers(1, 6)), metric_name), metric_name


def assert_collinear_world_exact(seed):
    """The kernel equals its reference and brute force on a collinear world."""
    world, metric_name = collinear_kernel_world(seed)
    r, s, *_, k = world
    got = assert_matches_reference(world, metric_name)
    truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
    assert got == [
        (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
    ]


#: the seeds of :func:`collinear_kernel_world` among 0-399 whose join missed a
#: true neighbour while the ring cut had only an absolute slack (78 of 400)
RING_CUT_MISSED = (
    1, 2, 7, 8, 10, 13, 21, 39, 44, 45, 50, 53, 58, 59, 78, 85, 92, 98, 99, 100,
    103, 105, 107, 111, 115, 120, 123, 125, 131, 133, 135, 137, 140, 144, 156, 158,
    164, 167, 173, 174, 177, 184, 185, 187, 189, 190, 227, 228, 229, 231, 232, 236,
    239, 253, 269, 270, 274, 289, 293, 305, 314, 317, 331, 335, 341, 351, 353, 357,
    359, 360, 364, 375, 376, 380, 392, 393, 398, 399,
)
#: those that still miss one (9, all l1): the own-pivot bound's (see the test)
RING_CUT_MISSES = (39, 125, 133, 167, 335, 351, 353, 359, 375)


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
        # the bounds only ever spare object-pivot pairs, and no row computes
        # the distance to its own pivot
        rows, present = sum(len(b.ids) for b in world[2].values()), len(world[3])
        pairs, scanned, _ = pairs_by_kind(world, metric_name, **flags)
        assert pairs - scanned <= rows * present - own_cell_rows(world)
        if not (use_hyperplane or use_ring):
            assert pairs - scanned == rows * present - own_cell_rows(world)

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
        tr = build_partial_summary(ar.partition_ids, ar.pivot_distances)
        ts = build_partial_summary(as_.partition_ids, as_.pivot_distances)
        pdm = partitioner.pivot_distance_matrix()
        thetas = compute_thetas(tr, ts, pdm, 4)
        ring = dict(zip(ts.partition_ids(), zip(ts.lower.tolist(), ts.upper.tolist())))
        r_blocks = build_r_blocks(block_for(r, ROLE_R, ar, partitioner))
        s_blocks = build_s_blocks(block_for(s, ROLE_S, as_, partitioner))
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
            pid: RPartitionBlock(pid, block.ids, block.points, block.pivot_dists / 2.0, block.codes)
            for pid, block in world[2].items()
        }
        # a row starts from theta_i - U_i + |r, p_i|: 0.01 above its pivot
        # distance, and never below 0 as a true theta_i (>= U_i) never is
        thetas = {pid: block.local_upper() + 0.01 for pid, block in r_blocks.items()}
        world = replace_world(world, r_blocks=r_blocks, thetas=thetas)
        assert_matches_reference(world, metric_name)
        # the exempt cells reach the scans, whose anchor codes may drop every
        # pair beyond so small a theta
        assert pairs_by_kind(world, metric_name)[2] > 0

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

    @pytest.mark.parametrize("use_ring", (True, False))
    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    def test_a_step_no_row_visits_does_no_work(self, metric_name, use_ring):
        """Where the bounds decided every (row, cell) pair of a step, the
        step is skipped before Corollary 1 is taken of an empty batch; the
        results and pair counts stay the reference's.  R and a cluster of S
        sit at one pivot, so the own cell's neighbours decide the far cells."""
        rng = np.random.default_rng(59)
        pivots = rng.random((24, 3)) * 10
        r_points = pivots[0] + rng.random((80, 3)) * 0.2
        s_points = np.concatenate(
            [rng.random((100, 3)) * 10, pivots[0] + rng.random((20, 3)) * 0.2]
        )
        world = world_from(r_points, s_points, pivots, 4, metric_name)
        steps, tested = [], []
        step_windows, hyperplane = kernels._step_windows, kernels.hyperplane_distances

        def counting_windows(num_steps):
            for first_step, window_end in step_windows(num_steps):
                steps.append(window_end - first_step)
                yield first_step, window_end

        def spy(dist_q_pi, *args):
            tested.append(np.size(dist_q_pi))
            return hyperplane(dist_q_pi, *args)

        with (
            mock.patch.object(kernels, "_step_windows", counting_windows),
            mock.patch.object(kernels, "hyperplane_distances", spy),
        ):
            got = run_kernel(knn_join_kernel, world, metric_name, use_ring_pruning=use_ring)
        assert tested and min(tested) > 0
        assert len(tested) < sum(steps)  # some steps were empty
        assert assert_matches_reference(world, metric_name, use_ring_pruning=use_ring) == got[0]

    def test_pivot_distances_gather_within_the_byte_budget(self, monkeypatch):
        """A window's ``|r, p_j|`` batch is cut by the same byte budget as a
        scan's, without moving a result or a counted pair.  The codes are
        off: the cells' anchor ranges would spare some of the pairs."""
        world = kernel_world(seed=61, num_r=150, num_s=260, num_pivots=9, k=5, dims=10)
        thetas = {pid: np.inf for pid in world[2]}  # every (row, cell) is needed
        world = replace_world(world, thetas=thetas)
        no_codes = np.array([], dtype=np.intp)
        whole = assert_matches_reference(world, code_anchors=no_codes)
        batches = []
        pair_distances = type(get_metric("l2")).pair_distances

        def spy(self, xs, ys):
            if np.isin(ys[:, 0], world[6][:, 0]).all():  # the right side is pivots
                batches.append(len(xs))
            return pair_distances(self, xs, ys)

        monkeypatch.setattr(kernels, "_GATHER_BYTES", 4096)  # 25 pairs of 10-d points
        monkeypatch.setattr(type(get_metric("l2")), "pair_distances", spy)
        assert assert_matches_reference(world, code_anchors=no_codes) == whole
        assert max(batches) <= 25 and sum(batches) == 150 * 9 - own_cell_rows(world)

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
def adversarial_worlds(draw, max_pivots=8):
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
    pivots = pool[rng.integers(0, len(pool), size=draw(st.integers(1, max_pivots)))]
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
            pairs, scanned, _ = pairs_by_kind(world, metric_name, **flags)
        finally:
            kernels._TILE_BYTES = saved
        truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
        assert [(r_id, ids, dists) for r_id, ids, dists in got] == [
            (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
        ]
        assert len(got) == len(r)
        # eagerly, every row paid for every present pivot but its own before its scans
        assert pairs <= len(r) * len(s_blocks) - own_cell_rows(world) + scanned

    @given(adversarial_worlds(max_pivots=2))
    @settings(max_examples=60, deadline=None)
    def test_exact_when_every_pivot_is_an_anchor(self, scenario):
        """One or two pivots: every pivot is an anchor, so the anchors'
        bounds meet each object's own pivot distance on grid ties."""
        world, metric_name, flags, _ = scenario
        r, s, *_, k = world
        got = assert_matches_reference(world, metric_name, **flags)
        truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
        assert got == [
            (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
        ]

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    @pytest.mark.parametrize("use_ring", (True, False))
    @pytest.mark.parametrize("use_hyperplane", (True, False))
    def test_own_cell_after_a_coincident_twin(self, use_hyperplane, use_ring, metric_name):
        """Pivots 0 and 1 coincide and cell 1 holds every other object of
        cell 0, so a row of cell 1 scans cell 0 first (zero gap, lower id):
        its own cell is not step 0.  Its own distance is still reused and
        its twin's computed — exact, and pair for pair the reference's."""
        world = kernel_world(
            seed=67, num_r=90, num_s=140, num_pivots=8, k=5,
            metric_name=metric_name, twin_pivots=True,
        )
        r, s, r_blocks, s_blocks, *_, k = world
        present = sorted(s_blocks)
        assert {0, 1} <= set(r_blocks) & set(s_blocks)
        assert present[scan_orders(world)[sorted(r_blocks).index(1)][0]] == 0
        flags = dict(use_hyperplane_pruning=use_hyperplane, use_ring_pruning=use_ring)
        got = assert_matches_reference(world, metric_name, **flags)
        truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
        assert got == [
            (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
        ]
        pairs, scanned, _ = pairs_by_kind(world, metric_name, **flags)
        eager = len(r) * len(present) - own_cell_rows(world)
        assert pairs - scanned <= eager
        if not (use_hyperplane or use_ring):
            assert pairs - scanned == eager


def run_counting_pivots(kernel, world, metric_name="l2", **flags):
    """``(results, counted pairs, the object-pivot pairs among them)``."""
    pivot_metric = get_metric(metric_name)
    results, pairs = run_kernel(kernel, world, metric_name, pivot_metric=pivot_metric, **flags)
    return results, pairs + pivot_metric.pairs_computed, pivot_metric.pairs_computed


def pairs_by_cell(world, kernel=knn_join_kernel, metric_name="l2", **flags):
    """``(own-cell, other-cell)`` pairs the scans of one kernel run computed,
    as its ``own_metric`` and ``metric`` counted them."""
    own_metric, other_metric = get_metric(metric_name), get_metric(metric_name)
    _, _, r_blocks, s_blocks, thetas, ring, pivots, pdm, k = world
    flags.setdefault("code_anchors", code_anchors_of(pivots, pdm, metric_name))
    for _ in kernel(
        other_metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm,
        pivot_metric=get_metric(metric_name), own_metric=own_metric, **flags,
    ):
        pass
    return own_metric.pairs_computed, other_metric.pairs_computed


def assert_exact_and_within_own_pivot_rule(world, metric_name="l2", **flags):
    """Vectorized = reference = brute force, and no more pairs of either kind
    than the own-pivot rule with whole own-cell scans; returns the
    ``(total, object-pivot)`` pairs of both: ``(new, old)``."""
    r, s, *_, k = world
    got = assert_matches_reference(world, metric_name, **flags)
    truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
    assert got == [
        (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
    ]
    new = run_counting_pivots(knn_join_kernel, world, metric_name, **flags)
    old = run_counting_pivots(own_pivot_kernel, world, metric_name, **flags)
    assert new[0] == old[0] == got
    assert new[1] <= old[1] and new[2] <= old[2]
    return new[1:], old[1:]


class TestBoundOrderedRoundsAndCodeRules:
    """The kernel against the own-pivot rule with whole ring scans
    (``tests/reference_kernel.py``): the first cells and the own cell are
    scanned in bound-ordered rounds, and the anchor codes drop pairs (rule
    4) and whole (row, cell) pairs (rule 5)."""

    @given(adversarial_worlds(max_pivots=24))
    @settings(max_examples=120, deadline=None)
    def test_exact_with_no_more_pairs_than_the_own_pivot_rule(self, scenario):
        """Up to 24 pivots, so the step windows run long."""
        world, metric_name, flags, tile_bytes = scenario
        saved, kernels._TILE_BYTES = kernels._TILE_BYTES, tile_bytes
        try:
            assert_exact_and_within_own_pivot_rule(world, metric_name, **flags)
        finally:
            kernels._TILE_BYTES = saved

    @pytest.mark.parametrize("metric_name", ["l2", "l1"])
    def test_ring_centre_at_the_first_and_last_entry(self, metric_name):
        """A row at its pivot (before the cell's first entry) and one beyond
        the cell's farthest object (after its last): round 0 takes the k
        entries nearest each, whose k-th distance then stops the row, so
        each scans k entries of its own cell, not the 30 of the whole ring,
        and none of another."""
        s_points = np.array([[x, 0.0] for x in range(1, 31)] + [[x, 0.0] for x in range(70, 100)])
        r_points = np.array([[0.0, 0.0], [45.0, 0.0]])
        world = world_from(r_points, s_points, np.array([[0.0, 0.0], [100.0, 0.0]]), 3, metric_name)
        assert [len(block) for block in world[3].values()] == [30, 30]
        assert_exact_and_within_own_pivot_rule(world, metric_name)
        for kernel in (knn_join_kernel, knn_join_kernel_reference):
            assert pairs_by_cell(world, kernel, metric_name) == (2 * 3, 0)

    def test_own_ring_of_at_most_k_entries_is_scanned_whole(self):
        """Round 0 covers a ring of at most k entries, so without codes the
        scans are handed the own-pivot rule's pairs pair for pair; only
        object-pivot pairs, and the pairs the anchor codes drop (cell by cell
        by its ranges, or pair by pair), may fall."""
        world = kernel_world(seed=73, num_r=60, num_s=40, num_pivots=10, k=12)
        assert max(len(block) for block in world[3].values()) <= 12
        (new_total, new_pivot), (old_total, old_pivot) = assert_exact_and_within_own_pivot_rule(
            world
        )
        _, scanned, handed = pairs_by_kind(world)
        assert new_total - new_pivot == scanned <= handed
        _, _, handed = pairs_by_kind(world, code_anchors=np.array([], dtype=np.intp))
        assert handed == old_total - old_pivot

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    def test_own_cell_after_a_coincident_twin(self, metric_name):
        world = kernel_world(
            seed=67, num_r=90, num_s=140, num_pivots=8, k=5,
            metric_name=metric_name, twin_pivots=True,
        )
        # cell 1's scan order begins with its coincident twin, cell 0
        assert sorted(world[3])[scan_orders(world)[sorted(world[2]).index(1)][0]] == 0
        assert_exact_and_within_own_pivot_rule(world, metric_name)

    @pytest.mark.parametrize("metric_name", ["l2", "l1"])
    def test_world_scaled_by_1e9(self, metric_name):
        """At coordinates of 1e9 the results stay exact, and the bounds,
        lowered by their scale-aware slack, still prune — the anchor codes too."""
        rng = np.random.default_rng(83)
        world = world_from(
            rng.random((150, 3)) * 1e9, rng.random((250, 3)) * 1e9,
            rng.random((12, 3)) * 1e9, 5, metric_name,
        )
        (_, new_pivot), (_, old_pivot) = assert_exact_and_within_own_pivot_rule(
            world, metric_name
        )
        assert new_pivot < old_pivot
        _, scanned, handed = pairs_by_kind(world, metric_name)
        assert scanned < handed


def handed_scans(world, metric_name="l2", **flags):
    """Every row's scans in one kernel run (one R tile), in order: ``(r id,
    own cell, bound-ordered, handed s indices, theta after the scan)``, the
    indices into the present S cells' blocks back to back (sorted cell
    order), as the kernel concatenates them; a scan of a whole slice hands
    its entries in index order."""
    _, _, r_blocks, _, _, _, pivots, pdm, _ = world
    r_ids = np.concatenate([r_blocks[pid].ids for pid in sorted(r_blocks)])
    own_metric, scans = get_metric(metric_name), []
    scan_partition = kernels.scan_partition_numpy

    def spy(metric, k, r_points, s_block, rows, starts, lengths, *state):
        scan_partition(metric, k, r_points, s_block, rows, starts, lengths, *state)
        entries, theta = state[5] if len(state) > 5 else None, state[2]
        ordered = entries is not None
        for row, start, length in zip(rows.tolist(), starts.tolist(), lengths.tolist()):
            handed = entries[start : start + length] if ordered else range(start, start + length)
            own = metric is own_metric
            scans.append((int(r_ids[row]), own, ordered, list(handed), float(theta[row])))

    flags.setdefault("code_anchors", code_anchors_of(pivots, pdm, metric_name))
    with mock.patch.object(kernels, "scan_partition_numpy", spy):
        run_kernel(knn_join_kernel, world, metric_name, own_metric=own_metric, **flags)
    return scans


def scans_by_row(scans):
    """:func:`handed_scans` per row, each row's in order."""
    rows = {}
    for scan in scans:
        rows.setdefault(scan[0], []).append(scan[1:])
    return rows


def entry_bounds(world, code_anchors, r_id):
    """Row ``r_id``'s bound on every S entry of its own cell, by the formula:
    ``max(max_a |mid_r - mid_s| - radius_r - radius_s, | |r, p_i| - |s, p_i|
    |)``, and the entries' indices (as :func:`handed_scans` gives them)."""
    _, _, r_blocks, s_blocks, _, _, _, pdm, _ = world
    pid = next(pid for pid, block in r_blocks.items() if r_id in block.ids)
    r_block, row = r_blocks[pid], int(np.flatnonzero(r_blocks[pid].ids == r_id)[0])
    present = sorted(s_blocks)
    offset = sum(len(s_blocks[other]) for other in present[: present.index(pid)])
    s_block = s_blocks[pid]
    entries = offset + np.arange(len(s_block))
    bounds = np.abs(r_block.pivot_dists[row] - s_block.pivot_dists)
    if len(code_anchors):
        code_rows = pdm[code_anchors]
        r_mids, r_radius = anchor_intervals(
            r_block.codes, np.full(len(r_block.ids), pid), r_block.pivot_dists, code_rows
        )
        s_mids, s_radius = anchor_intervals(
            s_block.codes, np.full(len(s_block), pid), s_block.pivot_dists, code_rows
        )
        codes = np.abs(r_mids[:, row, None] - s_mids).max(axis=0) - r_radius[row] - s_radius
        bounds = np.maximum(bounds, codes)
    return bounds, entries


def ascending(bounds, entries):
    """``entries`` in ascending bound, ties by entry."""
    return entries[np.lexsort((entries, bounds))].tolist()


class TestBoundOrderedRounds:
    """Steps 0 and 1, and the own cell wherever it falls, scan each row's
    ring slice in ascending distance-free bound, k (or 3 in another cell),
    2k, 4k, ... entries a round, each round's entries re-cut by the ring at
    the theta of that moment, until the row's next bound exceeds theta."""

    @pytest.mark.parametrize("metric_name", ["l2", "l1"])
    def test_round_0_takes_the_k_entries_of_smallest_bound(self, metric_name):
        """``theta = inf`` makes every own ring its whole cell, and a grid
        of 4 values a coordinate makes bounds tie: round 0 hands each row the
        k own-cell entries of smallest bound, ties to the smaller index."""
        world = kernel_world(
            seed=107, num_r=40, num_s=120, num_pivots=4, k=5, metric_name=metric_name
        )
        r, s, r_blocks, _, _, _, pivots, _, k = world
        world = replace_world(world, thetas={pid: np.inf for pid in r_blocks})
        coarse = world_from(
            np.floor(r.points * 4), np.floor(s.points * 4), np.floor(pivots * 4), k, metric_name
        )
        for each in (world, replace_world(coarse, thetas={pid: np.inf for pid in coarse[2]})):
            anchors = code_anchors_of(each[6], each[7], metric_name)
            firsts, ties = {}, 0
            for r_id, own, ordered, handed, _ in handed_scans(each, metric_name):
                if own and r_id not in firsts:
                    assert ordered
                    firsts[r_id] = handed
            assert firsts
            for r_id, handed in firsts.items():
                bounds, entries = entry_bounds(each, anchors, r_id)
                assert handed == ascending(bounds, entries)[:k]
                ties += len(bounds) - len(np.unique(bounds))
            assert_matches_reference(each, metric_name)
        assert ties  # the coarse world's bounds tie

    @pytest.mark.parametrize("metric_name", ["l2", "linf"])
    def test_without_codes_the_rounds_are_centre_out(self, metric_name):
        """With ``code_anchors`` empty the bound is the ring distance ``|
        |r, p_i| - |s, p_i| |``: every row's own-cell entries are handed in
        ascending ring distance, a prefix of its cell in that order (a slice
        round 0 covers, handed whole, is that prefix in index order)."""
        world = kernel_world(
            seed=109, num_r=60, num_s=300, num_pivots=5, k=4, metric_name=metric_name
        )
        no_codes = np.array([], dtype=np.intp)
        handed_by_row, rounds = {}, 0
        scans = handed_scans(world, metric_name, code_anchors=no_codes)
        for r_id, own, ordered, handed, _ in scans:
            if own:
                assert ordered or len(handed) <= 4
                handed_by_row.setdefault(r_id, []).extend(handed)
                rounds += ordered
        assert len(handed_by_row) > 40 and rounds > 40
        for r_id, handed in handed_by_row.items():
            bounds, entries = entry_bounds(world, no_codes, r_id)
            prefix = ascending(bounds, entries)[: len(handed)]
            assert handed == prefix or (len(handed) <= 4 and sorted(handed) == sorted(prefix))
        assert_matches_reference(world, metric_name, code_anchors=no_codes)

    def test_round_0_makes_an_unbounded_theta_finite(self):
        """PBJ's ``theta = inf``: the own-pivot rule scans every own cell
        whole; round 0's k entries give every row a finite theta first, so
        the rows scan fewer own-cell pairs than their cells hold."""
        world = kernel_world(seed=79, num_r=60, num_s=200, num_pivots=5, k=4)
        world = replace_world(world, thetas={pid: np.inf for pid in world[2]})
        assert_exact_and_within_own_pivot_rule(world)
        seen = set()
        for r_id, own, ordered, handed, theta in handed_scans(world):
            if own and r_id not in seen:
                seen.add(r_id)
                assert ordered and len(handed) == 4 and np.isfinite(theta)
        assert len(seen) == own_cell_rows(world)
        own_rows = sum(
            len(world[2][pid].ids) * len(world[3][pid]) for pid in world[2] if pid in world[3]
        )
        assert pairs_by_cell(world)[0] < own_rows

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    def test_own_cell_after_a_coincident_twin_at_step_1(self, metric_name, monkeypatch):
        """Cell 1's rows visit their coincident twin, cell 0, first: their own
        cell sits at step 1.  With rounds cut to step 0 alone it is still
        scanned in rounds, and both kernels agree pair for pair."""
        world = kernel_world(
            seed=67, num_r=90, num_s=140, num_pivots=8, k=5,
            metric_name=metric_name, twin_pivots=True,
        )
        present = sorted(world[3])
        assert present[scan_orders(world)[sorted(world[2]).index(1)][0]] == 0
        assert present[scan_orders(world)[sorted(world[2]).index(1)][1]] == 1
        monkeypatch.setattr(kernels, "_ROUND_STEPS", 1)
        assert_exact_and_within_own_pivot_rule(world, metric_name)
        cell_1_rows = set(world[2][1].ids.tolist())
        own_scans = [scan for scan in handed_scans(world, metric_name) if scan[1]]
        assert {r_id for r_id, _, ordered, _, _ in own_scans if ordered} & cell_1_rows
        assert all(ordered or len(handed) <= 5 for _, _, ordered, handed, _ in own_scans)

    def test_rounds_beyond_the_gather_budget_are_batched_by_rows(self, monkeypatch):
        """A budget of 64 bound pairs (``_GATHER_BYTES`` of 4 096) cuts the
        rounds' rows into many batches, a row's slice never split: every row
        is handed the same entries in the same scans, and the results and
        pair counts do not move."""
        world = kernel_world(seed=113, num_r=80, num_s=400, num_pivots=4, k=5, dims=10)
        world = replace_world(world, thetas={pid: np.inf for pid in world[2]})
        whole = assert_matches_reference(world)
        scans, pairs = scans_by_row(handed_scans(world)), pairs_by_kind(world)
        batches = []
        entry_bounds_of = kernels._entry_bounds

        def spy(dist_r_pj, s_dists, anchors, rows, entries):
            batches.append((entries.size, np.unique(rows).size))
            return entry_bounds_of(dist_r_pj, s_dists, anchors, rows, entries)

        monkeypatch.setattr(kernels, "_GATHER_BYTES", 4096)
        monkeypatch.setattr(kernels, "_entry_bounds", spy)
        assert run_kernel(knn_join_kernel, world)[0] == whole
        assert len(batches) > 8 and all(size <= 64 or rows == 1 for size, rows in batches)
        assert max(size for size, _ in batches) > 64  # a lone row's slice
        assert scans_by_row(handed_scans(world)) == scans
        assert pairs_by_kind(world) == pairs
        assert assert_matches_reference(world) == whole

    @pytest.mark.parametrize("seed", range(0, 48, 3))
    def test_the_stop_skips_no_entry_the_ring_cut_admits(self, seed, monkeypatch):
        """Collinear worlds at 1e6-1e11, where ring distances equal the
        objects' distances but for rounding and k-th distances tie: rounds
        that never stop hand the scans more entries but compute no more
        pairs — every entry a stop skips lies outside the ring cut or fails
        the code filter — with the codes and without them."""
        world, metric_name = collinear_kernel_world(seed)
        for code_anchors in (None, np.array([], dtype=np.intp)):
            flags = {} if code_anchors is None else dict(code_anchors=code_anchors)
            stopped = run_kernel(knn_join_kernel, world, metric_name, **flags)
            _, _, handed = pairs_by_kind(world, metric_name, **flags)
            with mock.patch.object(kernels, "_stop_limit", lambda theta, dist: np.inf):
                assert run_kernel(knn_join_kernel, world, metric_name, **flags) == stopped
                assert run_kernel(knn_join_kernel_reference, world, metric_name, **flags) == stopped
                _, _, unstopped = pairs_by_kind(world, metric_name, **flags)
            assert unstopped >= handed

    @pytest.mark.parametrize("name", ["plain", "twins", "pbj", "duplicates"])
    def test_both_kernels_count_own_and_other_cell_pairs_alike(self, name):
        """The own-cell and other-cell pairs each kernel counts apart are
        equal, and with the object-pivot pairs they make up the total."""
        world = {
            "plain": lambda: kernel_world(seed=17, num_r=90, num_s=140, num_pivots=10, k=5),
            "twins": lambda: kernel_world(
                seed=67, num_r=90, num_s=140, num_pivots=8, k=5, twin_pivots=True
            ),
            "pbj": lambda: replace_world(
                kernel_world(seed=79, num_r=60, num_s=200, num_pivots=5, k=4),
                thetas={pid: np.inf for pid in range(5)},
            ),
            "duplicates": lambda: world_from(
                np.repeat(np.arange(12.0).reshape(6, 2), 3, axis=0),
                np.repeat(np.arange(16.0).reshape(8, 2), 4, axis=0),
                np.array([[0.0, 1.0], [6.0, 7.0], [14.0, 15.0]]), 6,
            ),
        }[name]()
        own, other = pairs_by_cell(world)
        assert own > 0 and (own, other) == pairs_by_cell(world, knn_join_kernel_reference)
        _, pairs, pivot_pairs = run_counting_pivots(knn_join_kernel, world)
        assert own + other + pivot_pairs == pairs


class TestScanMemory:
    def test_a_scan_against_a_large_s_block_peaks_below_64_kib(self):
        """One 10-pair scan against 50 000 S rows with 16 anchor codes: the
        filter gathers the 10 pairs' decoded mids, never a copy of the whole
        ``(16, 50 000)`` array (6.4 MB) — which an F-ordered mids array
        would cost on every scan."""
        rng = np.random.default_rng(127)
        num_s, num_codes, num_pivots, dims, k = 50_000, 16, 20, 3, 4
        pdm = rng.random((num_pivots, num_pivots)) * 10
        code_rows = pdm[:num_codes]
        s_pids, s_dists = rng.integers(0, num_pivots, num_s), rng.random(num_s)
        s_codes = rng.integers(0, 256, (num_s, num_codes)).astype(np.uint8)
        s_mids, s_radius = anchor_intervals(s_codes, s_pids, s_dists, code_rows)
        r_mids, r_radius = anchor_intervals(s_codes[:10], s_pids[:10], s_dists[:10], code_rows)
        s_block = kernels.SPartitionBlock(
            -1, np.arange(num_s), rng.random((num_s, dims)), np.sort(s_dists)
        )
        r_points = rng.random((10, dims))
        rows, starts, lengths = np.arange(10), rng.integers(0, num_s, 10), np.ones(10, np.intp)
        best_dists, best_ids = np.full((10, k), np.inf), np.full((10, k), kernels._ID_SENTINEL)
        theta = np.full(10, 100.0)  # every pair passes the codes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            kernels._scan_segments(
                get_metric("l2"), k, r_points, s_block, rows, starts, lengths,
                best_dists, best_ids, theta, ScratchPool(), (r_mids, s_mids, r_radius, s_radius),
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.isfinite(best_dists[:, 0]).all()
        assert peak < 64 * 1024


def ring_world(k=5, per_cell=300, seed=97, spacing=10.0):
    """Two cells whose objects all lie near one circle around their pivot:
    every ring slice is nearly its whole cell, many strips long, and only the
    anchor codes (of the two pivots) tell its entries apart.  Pivots
    ``spacing`` apart: at 10 a row scans its own cell only; below 2 the
    circles cross and the rows near a crossing scan the other cell too."""
    rng = np.random.default_rng(seed)

    def circle(count, centre):
        angle = rng.random(count) * 2 * np.pi
        radius = 1.0 + rng.random(count) * 1e-3
        return np.stack([np.cos(angle), np.sin(angle)], axis=1) * radius[:, None] + centre

    pivots = np.array([[0.0, 0.0], [spacing, 0.0]])
    s_points = np.vstack([circle(per_cell, pivot) for pivot in pivots])
    r_points = np.vstack([circle(20, pivot) for pivot in pivots])
    return world_from(r_points, s_points, pivots, k)


class TestAnchors:
    """Theorem 2 around the code anchors, from the codes alone, applied to
    every pair a scan is handed, strip by strip, at the theta of that
    moment."""

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("num_pivots", (13, 150))
    def test_reference_is_pair_equal_with_more_than_four_codes(self, num_pivots, metric_name):
        """Every anchor is coded: 13 below 16 pivots, the chosen count above;
        the kernel and the per-record reference filter with all of them."""
        world = kernel_world(
            seed=7, num_r=120, num_s=400, num_pivots=num_pivots, k=5, metric_name=metric_name
        )
        codes = {block.codes.shape[1] for block in (*world[2].values(), *world[3].values())}
        assert len(codes) == 1 and codes.pop() > 4
        for flags in (dict(), dict(use_hyperplane_pruning=False)):
            assert_matches_reference(world, metric_name, **flags)
        _, scanned, handed = pairs_by_kind(world, metric_name)
        assert scanned < handed

    @pytest.mark.parametrize("round_steps, spacing", ((kernels._ROUND_STEPS, 10.0), (0, 1.9)))
    @pytest.mark.parametrize("gather_bytes", (1 << 20, 4096))
    def test_slices_longer_than_a_strip_match_the_reference(
        self, monkeypatch, gather_bytes, round_steps, spacing
    ):
        """Cells of more than ``16 k`` and more than 128 entries, scanned in
        rounds of 200 entries and up, or (no round steps, crossing circles)
        the other cell in plain strips: the kernel filters each strip at the
        theta the earlier strips left, as the reference does record by
        record, with or without a byte budget that cuts a step into several
        gathers."""
        world = ring_world(spacing=spacing)
        monkeypatch.setattr(kernels, "_first_round", lambda k, own: 200)
        monkeypatch.setattr(kernels, "_ROUND_STEPS", round_steps)
        strip = kernels._strip_length(world[-1])
        assert min(len(block) for block in world[3].values()) > max(strip, 16 * world[-1])
        longest = []
        scan_partition = kernels.scan_partition_numpy

        def spy(metric, k, r_points, s_block, rows, starts, lengths, *state):
            # (longest segment, handed a round's entries: the sixth of state)
            longest.append((int(lengths.max()), state[5] is not None))
            scan_partition(metric, k, r_points, s_block, rows, starts, lengths, *state)

        monkeypatch.setattr(kernels, "_GATHER_BYTES", gather_bytes)
        monkeypatch.setattr(kernels, "scan_partition_numpy", spy)
        assert_exact_and_within_own_pivot_rule(world)
        assert max(length for length, _ in longest) > strip
        in_strips = [length for length, rounded in longest if not rounded]
        assert (max(in_strips, default=0) > strip) == (round_steps == 0)
        _, scanned, handed = pairs_by_kind(world)
        assert scanned < handed

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    @pytest.mark.parametrize("num_pivots", (1, 2, 9))
    def test_codes_of_all_m_anchors_and_no_anchor_pair(self, num_pivots, metric_name):
        """Every row carries ``M`` codes (below 16 pivots every pivot is an
        anchor, and every anchor is coded); the kernel computes the scans'
        pairs and object-pivot pairs only, and with ring pruning off the
        codes drop nothing."""
        world = kernel_world(
            seed=101, num_r=50, num_s=90, num_pivots=num_pivots, k=4, metric_name=metric_name
        )
        assert all(
            block.codes.shape[1] == num_pivots for block in (*world[2].values(), *world[3].values())
        )
        for flags in (dict(), dict(use_ring_pruning=False)):
            pivot_metric = get_metric(metric_name)
            pairs, scanned, handed = pairs_by_kind(
                world, metric_name, pivot_metric=pivot_metric, **flags
            )
            assert pairs == scanned
            if flags:
                assert scanned == handed

    @pytest.mark.parametrize("seed", (0, 11, 12))
    def test_collinear_objects_at_large_coordinates(self, seed):
        """Objects on one line through the first anchor, at integer steps of
        1e6 to 1e11: ``| |r, a| - |s, a| |`` equals ``|r, s|`` but for
        rounding, and k-th distances tie.  Only the codes' relative slack
        keeps a tied neighbour whose bound rounded above theta."""
        assert_collinear_world_exact(seed)

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(seed, marks=pytest.mark.xfail(strict=True))
            if seed in RING_CUT_MISSES else seed
            for seed in RING_CUT_MISSED
        ],
    )
    def test_the_ring_cut_misses_a_neighbour_on_these_collinear_worlds(self, seed):
        """The worlds of :func:`collinear_kernel_world` among seeds 0-399 that
        missed a true neighbour while the ring cut compared a computed ``|r,
        p_j|`` with only the absolute ``PRUNE_EPS``.  Its ends now give up
        ``PRUNE_RTOL`` of ``|r, p_j| + theta``, which turned 69 of the 78 into
        passes.  The 9 that still miss are l1 worlds where the own pivot's
        bound ``|p_i, p_j| - |r, p_i| - U(P_j)`` of
        :func:`~repro.core.geometry.pivot_distance_needed` is tight: the row,
        both pivots and the missed neighbour lie on the line, so the bound
        equals the neighbour's distance, a k-th distance tie, and its rounding
        lifts it above ``theta + PRUNE_EPS`` (it has no relative slack).  The
        cell is then judged without ``|r, p_j|`` and skipped; the misses stay
        with the anchor codes and Corollary 1 off, and go with ring pruning
        off.  Each turns into a strict-xfail failure once that bound gets a
        relative slack."""
        assert_collinear_world_exact(seed)

    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf", "l3"])
    @pytest.mark.parametrize("num_pivots", (1, 2))
    def test_exact_when_every_pivot_is_an_anchor(self, num_pivots, metric_name):
        world = kernel_world(
            seed=103, num_r=60, num_s=300, num_pivots=num_pivots, k=6, metric_name=metric_name
        )
        assert_exact_and_within_own_pivot_rule(world, metric_name)
        _, scanned, handed = pairs_by_kind(world, metric_name)
        if num_pivots == 1:
            # the one anchor is every row's own pivot: its code bound never
            # exceeds the ring distance, so the rounds take the ring's
            # order, and the ring cut and the stop leave the codes nothing
            # to drop; the codes spare nothing the ring has not
            assert scanned == handed
            assert pairs_by_kind(world, metric_name, code_anchors=np.array([], np.intp))[1:] == (
                scanned, handed
            )
        else:
            assert scanned < handed


class TestReducerPivotPairsCounter:
    @pytest.mark.parametrize("join", ["pgbj", "pbj"])
    def test_counts_the_kernels_object_pivot_pairs(self, join):
        """``selectivity:reducer_pivot_pairs`` is what the kernels' pivot
        metrics counted, and a part of the join's ``distance_pairs``."""
        from repro.datasets import generate_forest
        from repro.joins import get_join, run_join

        data = generate_forest(600, seed=3)
        metrics = []
        kernel = kernels.KernelProvider.knn_join_kernel

        def recording(self, *args, **kwargs):
            metrics.append(kwargs["pivot_metric"])
            return kernel(self, *args, **kwargs)

        with mock.patch.object(kernels.KernelProvider, "knn_join_kernel", recording):
            config = get_join(join).make_config(k=5, num_pivots=24, num_reducers=4)
            outcome = run_join(join, data, data, config)
        counted = outcome.counters.value("selectivity", "reducer_pivot_pairs")
        assert counted == sum(m.pairs_computed for m in {id(m): m for m in metrics}.values())
        assert 0 < counted < outcome.counters.value("selectivity", "distance_pairs")

    @pytest.mark.parametrize("self_join", [True, False], ids=["self-join", "equal-copy"])
    @pytest.mark.parametrize("join", ["pgbj", "pbj"])
    def test_reducers_filter_by_the_partitioners_anchors_and_compute_none(
        self, join, self_join
    ):
        """Every reduce call filters by codes of all ``A`` of the
        partitioner's anchors, every row it receives carries them, and no
        reducer counts an object-anchor pair."""
        from repro.datasets import generate_forest
        from repro.joins import get_join, run_join

        data = generate_forest(600, seed=3)
        other = data if self_join else copy.deepcopy(data)
        calls = []
        kernel = kernels.KernelProvider.knn_join_kernel

        def recording(self, *args, **kwargs):
            metric = get_metric(args[0].name)
            anchors = VoronoiPartitioner(args[6], metric, distance_matrix=args[7]).anchor_index()[0]
            calls.append((kwargs["code_anchors"], args[2], args[3], anchors))
            return kernel(self, *args, **kwargs)

        with mock.patch.object(kernels.KernelProvider, "knn_join_kernel", recording):
            config = get_join(join).make_config(k=5, num_pivots=24, num_reducers=4)
            outcome = run_join(join, data, other, config)
        assert calls
        for code_anchors, r_blocks, s_blocks, anchors in calls:
            # every anchor of the partitioner, in its order
            assert np.array_equal(code_anchors, anchors)
            for block in (*r_blocks.values(), *s_blocks.values()):
                assert block.codes.shape == (len(block.ids), len(code_anchors))
        assert outcome.counters.value("selectivity", "reducer_anchor_pairs") == 0



def kernel_calls(join, data, other, **knobs):
    """The reducers' kernel calls of one join, ``(args, kwargs)`` each, and
    the join's outcome (serial engine: the reducers see the wrapper)."""
    from repro.joins import get_join, run_join

    calls = []
    kernel = kernels.KernelProvider.knn_join_kernel

    def recording(self, *args, **kwargs):
        calls.append((args, kwargs))
        return kernel(self, *args, **kwargs)

    config = get_join(join).make_config(engine="serial", **knobs)
    with mock.patch.object(kernels.KernelProvider, "knn_join_kernel", recording):
        outcome = run_join(join, data, other, config)
    return calls, outcome


def tied_join_world(seed, distinct):
    """A 3-d grid world, duplicates and equal distances everywhere; R's copy
    as S, or a second grid drawn apart."""
    rng = np.random.default_rng(seed)
    data = Dataset(rng.integers(0, 6, (300, 3)).astype(np.float64))
    if not distinct:
        return data, data
    return data, Dataset(rng.integers(0, 6, (340, 3)).astype(np.float64), ids=np.arange(7, 347))


class TestReducerCallsOnTiedWorlds:
    """The kernel and its oracle on the calls PGBJ's and PBJ's reducers make
    over grid worlds full of duplicates and equal distances."""

    KNOBS = dict(k=4, num_pivots=24, num_reducers=4)

    @pytest.mark.parametrize("join", ["pgbj", "pbj"])
    @pytest.mark.parametrize("distinct", [False, True], ids=["self-join", "r-not-s"])
    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf"])
    def test_kernel_and_reference_are_pair_identical(self, metric_name, distinct, join):
        calls, _ = kernel_calls(
            join, *tied_join_world(1, distinct), metric_name=metric_name, **self.KNOBS
        )
        assert calls
        for args, kwargs in calls:
            runs = []
            for kernel in (knn_join_kernel, knn_join_kernel_reference):
                metrics = [get_metric(metric_name) for _ in range(3)]
                flags = dict(kwargs, pivot_metric=metrics[1], own_metric=metrics[2])
                flags.pop("scratch")
                results = [
                    (r_id, ids.tolist(), dists.tobytes())
                    for r_id, ids, dists in kernel(metrics[0], *args[1:], **flags)
                ]
                runs.append((results, [metric.pairs_computed for metric in metrics]))
            assert runs[0] == runs[1]


    @pytest.mark.parametrize("distinct", [False, True], ids=["self-join", "r-not-s"])
    @pytest.mark.parametrize("metric_name", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_exact_with_no_more_pairs_than_the_own_pivot_rule(self, seed, metric_name, distinct):
        """Call by call, both joins' reducers answer as the own-pivot rule
        with whole ring scans does (``tests/reference_kernel.py``), with no
        more pairs of either kind, and each join's answers are exact."""
        r, s = tied_join_world(seed, distinct)
        truth = brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, 4)
        for join in ("pgbj", "pbj"):
            calls, outcome = kernel_calls(join, r, s, metric_name=metric_name, **self.KNOBS)
            assert calls
            for args, kwargs in calls:
                switches = {
                    key: kwargs[key]
                    for key in ("use_hyperplane_pruning", "use_ring_pruning")
                    if key in kwargs
                }
                runs = []
                for kernel in (knn_join_kernel, own_pivot_kernel):
                    metrics = [get_metric(metric_name) for _ in range(3)]
                    flags = dict(switches, pivot_metric=metrics[1])
                    if kernel is knn_join_kernel:
                        flags = dict(kwargs, own_metric=metrics[2], **flags)
                        flags.pop("scratch")
                    results = [
                        (r_id, ids.tolist(), dists.tobytes())
                        for r_id, ids, dists in kernel(metrics[0], *args[1:], **flags)
                    ]
                    pairs = sum(metric.pairs_computed for metric in metrics)
                    runs.append((results, pairs, metrics[1].pairs_computed))
                (new, new_pairs, new_pivot), (old, old_pairs, old_pivot) = runs
                assert new == old
                assert new_pairs <= old_pairs and new_pivot <= old_pivot
            for r_id, (_, dists) in truth.items():
                assert np.array_equal(outcome.result.neighbors_of(r_id)[1], dists)

class TestColumnarBuilders:
    def test_build_partition_blocks_splits_by_role(self):
        r, s, r_blocks, s_blocks, *_ = kernel_world(seed=2)
        r_block = block_for(r, ROLE_R, _assignment_of(r))
        s_block = block_for(s, ROLE_S, _assignment_of(s))
        mixed = RecordBlock.gather(
            [
                r_block.take(np.arange(30)),
                s_block.take(np.arange(40)),
                r_block.take(np.arange(30, len(r))),
                s_block.take(np.arange(40, len(s))),
            ]
        )
        mixed.anchor_codes = np.random.default_rng(2).integers(
            0, 256, size=(len(mixed), 3), dtype=np.uint8
        )
        got_r, got_s = build_partition_blocks(mixed)
        assert sum(b.ids.size for b in got_r.values()) == len(r)
        assert sum(b.ids.size for b in got_s.values()) == len(s)
        for pid, block in got_s.items():
            order = np.lexsort((block.ids, block.pivot_dists))
            assert np.array_equal(order, np.arange(block.ids.size))
        # every object keeps its anchor codes
        for got, role in ((got_r, ROLE_R), (got_s, ROLE_S)):
            for block in got.values():
                rows = [np.flatnonzero((mixed.object_ids == i) & (mixed.role == role))[0]
                        for i in block.ids]
                assert np.array_equal(mixed.anchor_codes[rows], block.codes)

    def test_a_row_of_both_roles_lands_on_both_sides(self):
        data = Dataset(np.random.default_rng(3).random((50, 3)))
        both = block_for(data, ROLE_BOTH, _assignment_of(data))
        got_r, got_s = build_partition_blocks(both)
        for got in (got_r, got_s):
            ids = np.concatenate([block.ids for block in got.values()])
            assert sorted(ids) == sorted(data.ids)
        # each S entry names its record's R row; an S-only row names none
        both.role[::3] = ROLE_S
        got_r, got_s = build_partition_blocks(both)
        for pid, block in got_s.items():
            named = block.twins >= 0
            assert np.array_equal(got_r[pid].ids[block.twins[named]], block.ids[named])
            assert sorted(block.ids[~named]) == sorted(data.ids[::3][both.partition_ids[::3] == pid])


def self_join_bounds(data, assignment, pivots, k):
    """Global thetas and ring stats of a self-join of ``data`` (one reducer)."""
    tr = ts = build_partial_summary(assignment.partition_ids, assignment.pivot_distances)
    pdm = VoronoiPartitioner(pivots, get_metric("l2")).pivot_distance_matrix()
    ring = dict(zip(ts.partition_ids(), zip(ts.lower.tolist(), ts.upper.tolist())))
    return compute_thetas(tr, ts, pdm, k), ring, pivots, pdm


class RequestLog:
    """An l2 metric that logs each pair it computes as ``(r point bytes, s
    point bytes)``."""

    def __init__(self):
        self.metric, self.pairs = get_metric("l2"), []

    @property
    def pairs_computed(self):
        return self.metric.pairs_computed

    def distances(self, point, points):
        self.pairs += [(point.tobytes(), other.tobytes()) for other in points]
        return self.metric.distances(point, points)

    def pair_distances(self, xs, ys):
        self.pairs += [(x.tobytes(), y.tobytes()) for x, y in zip(xs, ys)]
        return self.metric.pair_distances(xs, ys)


def run_gathered(kernel, gathered, bounds, k, **flags):
    """One reduce call over a gathered block, filtered by its anchor codes:
    ``[(r_id, ids, distance bytes)]``, the other-cell, object-pivot and
    own-cell pair counts, and the own-cell pairs computed."""
    r_blocks, s_blocks = build_partition_blocks(gathered)
    metrics = [get_metric("l2"), get_metric("l2"), RequestLog()]
    results = [
        (r_id, ids.tolist(), dists.tobytes())
        for r_id, ids, dists in kernel(
            metrics[0], k, r_blocks, s_blocks, *bounds, pivot_metric=metrics[1],
            own_metric=metrics[2], code_anchors=code_anchors_of(*bounds[2:]), **flags,
        )
    ]
    return results, [metric.pairs_computed for metric in metrics], metrics[2].pairs


def computed_once(asked, both, over_cap=frozenset()):
    """The own-cell pairs a self-join reducer computes where the roles
    shipped apart computed ``asked`` (points' bytes, ``(r, s)``): a pair of
    two rows, the S one of both roles (``both``), once in whichever
    direction, and none of a row with itself — unless the R row's cell is
    above the memo cap (its rows in ``over_cap``); every other pair as
    asked."""
    memo = [(r, s) for r, s in asked if s in both and r not in over_cap]
    return len(asked) - len(memo) + len({frozenset(pair) for pair in memo if pair[0] != pair[1]})


class TestRowsOfBothRoles:
    """A self-join reducer receives an object as one row of both roles."""

    def test_fast_kernel_matches_the_reference_pair_for_pair(self):
        rng = np.random.default_rng(5)
        grid = rng.integers(0, 4, size=(40, 2)).astype(float)
        data = Dataset(np.vstack([grid, grid]))  # ties everywhere
        pivots = rng.random((6, 2)) * 3
        partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
        assignment = partitioner.assign(data)
        gathered = block_for(data, ROLE_BOTH, assignment, partitioner)
        bounds = self_join_bounds(data, assignment, pivots, 5)
        assert run_gathered(knn_join_kernel, gathered, bounds, 5)[:2] == run_gathered(
            knn_join_kernel_reference, gathered, bounds, 5
        )[:2]

    def test_colliding_ids_of_r_and_s_share_nothing(self):
        """R ≠ S whose ids collide: every R row and S copy carries its own
        anchor codes, and the answer is brute force's."""
        rng = np.random.default_rng(9)
        r = Dataset(rng.random((40, 3)))
        s = Dataset(rng.random((50, 3)))  # ids 0..49 overlap R's 0..39
        pivots = rng.random((5, 3))
        partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
        gathered = RecordBlock.gather(
            block_for(data, role, partitioner.assign(data), partitioner)
            for data, role in ((r, ROLE_R), (s, ROLE_S))
        )
        tr = build_partial_summary(gathered.partition_ids[:40], gathered.pivot_distances[:40])
        ts = build_partial_summary(gathered.partition_ids[40:], gathered.pivot_distances[40:])
        pdm = partitioner.pivot_distance_matrix()
        ring = dict(zip(ts.partition_ids(), zip(ts.lower.tolist(), ts.upper.tolist())))
        bounds = (compute_thetas(tr, ts, pdm, 4), ring, pivots, pdm)
        results, *_ = run_gathered(knn_join_kernel, gathered, bounds, 4)
        truth = brute_force_knn_join(get_metric("l2"), r.points, r.ids, s.points, s.ids, 4)
        for r_id, ids, _ in results:
            assert ids == truth[r_id][0].tolist()
        # no row is of both roles: no S entry names an R row
        assert all(block.twins is None for block in build_partition_blocks(gathered)[1].values())


def self_join_world(case):
    """A self-join reducer's input for ``case``: ``(data, gathered block of
    rows of both roles, (thetas, ring stats, pivots, pdm), k)``."""
    rng = np.random.default_rng({"ties": 5, "twin-pivot": 67, "pbj": 79, "s-only": 21}.get(case, 3))
    if case == "ties":
        grid = rng.integers(0, 4, size=(40, 2)).astype(float)
        data, pivots, k = Dataset(np.vstack([grid, grid])), rng.random((6, 2)) * 3, 5
    else:
        data, pivots, k = Dataset(rng.random((90, 3))), rng.random((7, 3)), 4
    if case == "twin-pivot":
        pivots[1] = pivots[0]
    partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
    assignment = partitioner.assign(data)
    if case == "twin-pivot":
        # cell 1 takes every other object of cell 0: its own cell is step 1
        in_zero = np.flatnonzero(assignment.partition_ids == 0)
        assignment.partition_ids[in_zero[::2]] = 1
    gathered = block_for(data, ROLE_BOTH, assignment, partitioner)
    if case == "s-only":
        # a skew split lane's mix: rows of both roles, S-only rows, R-only rows
        gathered.role = rng.choice([ROLE_R, ROLE_S, ROLE_BOTH], size=len(data)).astype(np.uint8)
    thetas, ring, pivots, pdm = self_join_bounds(data, assignment, pivots, k)
    if case == "pbj":
        thetas = dict.fromkeys(thetas, np.inf)
        ring = local_ring_stats(build_partition_blocks(gathered)[1])
    return data, gathered, (thetas, ring, pivots, pdm), k


class TestOwnCellPairsOnce:
    """A self-join reducer computes each own-cell distance once: a row's own
    entry is 0.0, and a pair of two rows is computed for one of them and
    reused for the other.  Both kernels answer as brute force, count alike,
    and count what the roles shipped apart count, less exactly those pairs."""

    @pytest.mark.parametrize("case", ["ties", "twin-pivot", "pbj", "s-only", "over-cap"])
    def test_both_kernels_exact_and_each_own_pair_once(self, case, monkeypatch):
        data, gathered, bounds, k = self_join_world(case)
        r_blocks = build_partition_blocks(gathered)[0]
        over_cap = frozenset()
        if case == "over-cap":
            # 8 rows' memo fits, a larger cell's does not
            monkeypatch.setattr(kernels, "_TILE_BYTES", 8 * 8 * 8)
            sizes = [len(block.ids) for block in r_blocks.values()]
            assert min(sizes) <= 8 < max(sizes)
            over_cap = frozenset(
                point.tobytes() for block in r_blocks.values() if len(block.ids) > 8
                for point in block.points
            )
        if case == "twin-pivot":
            assert np.argsort(bounds[3][1], kind="stable")[:2].tolist() == [0, 1]
        got, pairs, _ = run_gathered(knn_join_kernel, gathered, bounds, k)
        assert (got, pairs) == run_gathered(knn_join_kernel_reference, gathered, bounds, k)[:2]
        r_rows, s_rows = (np.flatnonzero(gathered.role & role) for role in (ROLE_R, ROLE_S))
        truth = brute_force_knn_join(
            get_metric("l2"), data.points[r_rows], data.ids[r_rows],
            data.points[s_rows], data.ids[s_rows], k,
        )
        assert got == [
            (r_id, truth[r_id][0].tolist(), truth[r_id][1].tobytes()) for r_id, _, _ in got
        ]
        apart = RecordBlock.gather([gathered.copies_of(ROLE_R), gathered.copies_of(ROLE_S)])
        for kernel in (knn_join_kernel, knn_join_kernel_reference):
            expected, (other, pivot, own), asked = run_gathered(kernel, apart, bounds, k)
            assert expected == got and pairs[:2] == [other, pivot]
            if case == "ties":  # records are not told apart by their points
                assert pairs[2] < own
                continue
            both = {point.tobytes() for point in data.points[gathered.role == ROLE_BOTH]}
            assert pairs[2] == computed_once(asked, both, over_cap) < own

    @pytest.mark.parametrize("kernel", [knn_join_kernel, knn_join_kernel_reference])
    def test_a_cell_asked_every_pair_both_ways_computes_n_choose_2(self, kernel):
        """One cell, no pruning: every row asks every entry, n² pairs
        apart, n(n − 1)/2 as rows of both roles."""
        data = Dataset(np.random.default_rng(31).random((30, 2)))
        world = self_join_world_of(data, np.zeros((1, 2)), 3)
        flags = dict(use_hyperplane_pruning=False, use_ring_pruning=False)
        *_, gathered, bounds, k = world
        _, (other, pivot, own), _ = run_gathered(kernel, gathered, bounds, k, **flags)
        assert (other, pivot, own) == (0, 0, 30 * 29 // 2)
        apart = RecordBlock.gather([gathered.copies_of(ROLE_R), gathered.copies_of(ROLE_S)])
        assert run_gathered(kernel, apart, bounds, k, **flags)[1] == [0, 0, 30 * 30]

    def test_a_pair_asked_both_ways_in_one_batch_is_computed_once(self, monkeypatch):
        """Two rows of one cell, no pruning: one scan batch asks both
        directions and both diagonal entries, and computes one pair."""
        data = Dataset(np.array([[0.0, 0.0], [3.0, 4.0]]))
        *_, gathered, bounds, k = self_join_world_of(data, np.array([[1.0, 1.0]]), 2)
        flags = dict(use_hyperplane_pruning=False, use_ring_pruning=False)
        batches = []
        scan_segments = kernels._scan_segments

        def spy(metric, k, r_points, s_block, rows, starts, lengths, *state):
            batches.append(int(lengths.sum()))
            scan_segments(metric, k, r_points, s_block, rows, starts, lengths, *state)

        monkeypatch.setattr(kernels, "_scan_segments", spy)
        got, pairs, asked = run_gathered(knn_join_kernel, gathered, bounds, k, **flags)
        assert batches == [4] and pairs == [0, 0, 1] and len(asked) == 1
        assert [dists for *_, dists in got] == [np.array([0.0, 5.0]).tobytes()] * 2
        assert run_gathered(knn_join_kernel_reference, gathered, bounds, k, **flags)[:2] == (
            got, pairs
        )


def self_join_world_of(data, pivots, k):
    """``(data, gathered block of rows of both roles, bounds, k)`` of a
    one-reducer self-join of ``data`` over ``pivots``."""
    partitioner = VoronoiPartitioner(pivots, get_metric("l2"))
    assignment = partitioner.assign(data)
    gathered = block_for(data, ROLE_BOTH, assignment, partitioner)
    return data, gathered, self_join_bounds(data, assignment, pivots, k), k


def _assignment_of(dataset):
    """A fresh Voronoi assignment, purely for the grouping tests."""
    metric = get_metric("l2")
    pivots = np.random.default_rng(1).random((6, dataset.points.shape[1]))
    return VoronoiPartitioner(pivots, metric).assign(dataset)


def scalar_local_theta(u_ri, pdm_row, s_blocks, k):
    """Algorithm 1 over local S blocks for one R cell, one cell's bounds at
    a time — the oracle :func:`local_thetas` must equal float for float."""
    bounds = [
        (u_ri + float(pdm_row[pid])) + block.pivot_dists[:k]
        for pid, block in s_blocks.items()
    ]
    pooled = np.concatenate(bounds) if bounds else np.empty(0)
    if pooled.size < k:
        return float("inf")
    return float(np.partition(pooled, k - 1)[k - 1])


class TestLocalTheta:
    def test_infinite_when_too_few_objects(self):
        _, _, r_blocks, s_blocks, _, _, _, pdm, _ = kernel_world(num_s=3, k=2)
        total = sum(len(b) for b in s_blocks.values())
        thetas = local_thetas(r_blocks, s_blocks, pdm, k=total + 1)
        assert thetas == dict.fromkeys(r_blocks, np.inf)
        for pid, block in r_blocks.items():
            assert scalar_local_theta(block.local_upper(), pdm[pid], s_blocks, total + 1) == np.inf

    def test_finite_and_valid_bound(self):
        """Local theta == the scalar oracle, and >= the true kth NN distance
        of every local r."""
        for seed, k, twin in ((8, 4, False), (3, 1, False), (5, 7, True)):
            r, s, r_blocks, s_blocks, _, _, _, pdm, k = kernel_world(
                seed=seed, k=k, twin_pivots=twin
            )
            thetas = local_thetas(r_blocks, s_blocks, pdm, k)
            assert list(thetas) == list(r_blocks)
            for pid, block in r_blocks.items():
                theta = thetas[pid]
                assert theta == scalar_local_theta(block.local_upper(), pdm[pid], s_blocks, k)
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


class TestScratchPool:
    def test_take_returns_requested_view(self):
        pool = ScratchPool()
        buf = pool.take((10, 3))
        assert buf.shape == (10, 3) and buf.dtype == np.float64
        assert buf.flags.writeable

    def test_outstanding_buffers_never_alias(self):
        pool = ScratchPool()
        first = pool.take((8, 2))
        second = pool.take((8, 2))
        assert first.base is not second.base

    def test_reset_recycles_instead_of_reallocating(self):
        pool = ScratchPool()
        first = pool.take((12, 3))
        base = first.base
        pool.reset()
        # the first take of every scan is served from the same storage ...
        again = pool.take((10, 3))
        assert again.base is base
        pool.reset()
        # ... until a request outgrows it
        assert pool.take((64, 3)).base is not base

    def test_position_is_reused_across_dtypes_and_shapes(self):
        pool = ScratchPool()
        floats = pool.take((4, 2))
        pool.reset()
        ints = pool.take((2, 4), dtype=np.int64)
        assert ints.dtype == np.int64 and ints.shape == (2, 4)
        assert ints.base is floats.base

    def test_retains_one_buffer_per_position_however_many_scans(self):
        pool = ScratchPool()
        for rows in (5, 900, 40, 7, 300):  # scans of very different sizes
            pool.reset()
            pool.take((rows, 10))
            pool.take((rows, 10))
            pool.take((rows, 4), dtype=np.int64)
        retained = [buffer.nbytes for buffer in pool._slots]
        assert retained == [900 * 10 * 8, 900 * 10 * 8, 900 * 4 * 8]

    def test_scratch_reuse_does_not_change_kernel_results(self):
        world = kernel_world(seed=9, num_r=40, num_s=50, num_pivots=6, k=4)
        expected, expected_pairs = run_kernel(knn_join_kernel_reference, world)
        shared = ScratchPool()
        for _ in range(3):  # repeated use over one pool: no stale-state leaks
            got, pairs = run_kernel(knn_join_kernel, world, scratch=shared)
            assert got == expected
            assert pairs == expected_pairs
