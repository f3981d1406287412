"""Unit tests for the hyperplane and ring pruning geometry (Theorems 1-2)."""

import math

import numpy as np
import pytest

from repro.core.distance import get_metric
from repro.core.geometry import (
    PRUNE_EPS,
    hyperplane_distance,
    hyperplane_distances,
    partition_pruned_by_hyperplane,
    pivot_distance_needed,
    ring_bounds,
    ring_slice,
)


class TestHyperplaneDistance:
    def test_midpoint_has_zero_distance(self):
        # q equidistant from both pivots sits on the hyperplane (less the
        # rounding slack, 1e-9 of (25 + 25) / 8)
        assert hyperplane_distance(5.0, 5.0, 4.0) == pytest.approx(-6.25e-9)

    def test_matches_2d_geometry(self):
        # pivots at (0,0) and (4,0): hyperplane x=2; q=(1, 1) in cell of p_i
        pi, pj, q = np.zeros(2), np.array([4.0, 0.0]), np.array([1.0, 1.0])
        d_qi = np.linalg.norm(q - pi)
        d_qj = np.linalg.norm(q - pj)
        expected = 2.0 - 1.0  # distance from x=1 to x=2
        assert hyperplane_distance(d_qi, d_qj, 4.0) == pytest.approx(expected)

    def test_coincident_pivots_yield_zero(self):
        assert hyperplane_distance(1.0, 1.0, 0.0) == 0.0

    def test_lower_bounds_distance_to_other_cell(self):
        # Theorem 1 consequence: d(q, HP) <= |q, o| for any o in the other cell
        rng = np.random.default_rng(0)
        for _ in range(50):
            pi, pj = rng.random(3), rng.random(3)
            q = pi + 0.1 * rng.random(3)  # near p_i
            o = pj + 0.1 * rng.random(3)  # near p_j
            if np.linalg.norm(q - pi) > np.linalg.norm(q - pj):
                continue  # q not in cell i
            if np.linalg.norm(o - pj) > np.linalg.norm(o - pi):
                continue  # o not in cell j
            d_hp = hyperplane_distance(
                np.linalg.norm(q - pi), np.linalg.norm(q - pj), np.linalg.norm(pi - pj)
            )
            assert d_hp <= np.linalg.norm(q - o) + 1e-9

    def test_far_query_and_close_pivots_never_overshoot(self):
        """A query 10^3-10^4 out from a cluster 10^-6 wide: the difference of
        squares cancels and its rounding is divided by a pivot gap of ~10^-7.
        Without the relative slack the computed distance overshoots a
        computed ``|q, o|`` of the other cell by far more than ``PRUNE_EPS``;
        with it, never (the vectorized form gives the same bits)."""
        metric = get_metric("l2")
        rng = np.random.default_rng(3)
        overshoot = []
        for _ in range(2000):
            pi, pj, o = rng.normal(0.0, 1e-6, (3, 1))
            if abs(o - pj)[0] > abs(o - pi)[0]:
                pi, pj = pj, pi  # o in cell j
            q = np.array([-rng.uniform(1e3, 1e4)])
            if abs(q - pi)[0] > abs(q - pj)[0]:
                continue  # q not in cell i
            d_qi, d_qj, gap, d_qo = (
                metric.distance(a, b) for a, b in ((q, pi), (q, pj), (pi, pj), (q, o))
            )
            overshoot.append((d_qj * d_qj - d_qi * d_qi) / (2.0 * gap) - d_qo)
            d_hp = hyperplane_distance(d_qi, d_qj, gap)
            assert d_hp <= d_qo
            assert hyperplane_distances(np.array([d_qi]), np.array([d_qj]), gap)[0] == d_hp
        assert max(overshoot) > 1e3 * PRUNE_EPS


class TestCorollary1:
    def test_prunes_when_beyond_theta(self):
        assert partition_pruned_by_hyperplane(1.0, 10.0, 5.0, theta=2.0)

    def test_keeps_when_within_theta(self):
        assert not partition_pruned_by_hyperplane(1.0, 10.0, 5.0, theta=50.0)

    def test_never_prunes_own_side_tie(self):
        assert not partition_pruned_by_hyperplane(3.0, 3.0, 2.0, theta=0.0)


class TestRing:
    def test_bounds_combine_summary_and_query(self):
        lo, hi = ring_bounds(lower=1.0, upper=9.0, dist_q_pj=5.0, theta=2.0)
        assert lo == pytest.approx(3.0, abs=1e-6)
        assert hi == pytest.approx(7.0, abs=1e-6)

    def test_summary_bounds_clip(self):
        lo, hi = ring_bounds(lower=4.0, upper=6.0, dist_q_pj=5.0, theta=10.0)
        assert lo == pytest.approx(4.0, abs=1e-6)
        assert hi == pytest.approx(6.0, abs=1e-6)

    def test_empty_ring(self):
        start, stop = ring_slice(np.array([1.0, 2.0, 3.0]), 1.0, 3.0, 10.0, 0.5)
        assert start == stop

    def test_slice_selects_contiguous_range(self):
        dists = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        start, stop = ring_slice(dists, 1.0, 5.0, dist_q_pj=3.0, theta=1.0)
        assert (start, stop) == (1, 4)  # values 2, 3, 4

    def test_slice_never_loses_qualifying_objects(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dists = np.sort(rng.random(20) * 10)
            q, theta = rng.random() * 10, rng.random() * 3
            start, stop = ring_slice(dists, dists[0], dists[-1], q, theta)
            qualifying = np.flatnonzero(np.abs(dists - q) <= theta)
            if qualifying.size:
                assert start <= qualifying[0]
                assert stop > qualifying[-1]


class TestPivotDistanceNeeded:
    @pytest.mark.parametrize("euclidean", [True, False])
    def test_a_bound_that_rejects_implies_the_distance_rejects(self, euclidean):
        """Both rules are monotone in ``|q, p_j|``: a cell rejected at the own
        pivot's bound ``|p_i, p_j| - |q, p_i|`` is rejected at every distance
        the triangle inequality allows, by Corollary 1 or by Theorem 5."""
        rng = np.random.default_rng(7)
        own, gap, upper, theta = (rng.random(20000) * 4 for _ in range(4))
        dist = np.abs(gap - own) + rng.random(20000) * 4
        rejected = ~pivot_distance_needed(own, gap, upper, theta)
        assert rejected.any()
        by_corollary_1 = hyperplane_distances(own, dist, gap, euclidean) > theta + PRUNE_EPS
        by_theorem_5 = dist - upper > theta + PRUNE_EPS
        assert (by_corollary_1 | by_theorem_5)[rejected].all()

    def test_each_rule_follows_its_switch(self):
        # |q, p_i|, |p_i, p_j|, U(P_j), theta
        by_hyperplane = (1.0, 4.0, 3.0, 0.5)  # 4 / 2 - 1 > 0.5, 4 - 1 - 3 <= 0.5
        by_ring = (1.0, 3.0, 0.5, 0.6)  # 3 / 2 - 1 <= 0.6, 3 - 1 - 0.5 > 0.6
        assert not pivot_distance_needed(*by_hyperplane, True, False)
        assert pivot_distance_needed(*by_hyperplane, False, True)
        assert not pivot_distance_needed(*by_ring, False, True)
        assert pivot_distance_needed(*by_ring, True, False)
        assert not pivot_distance_needed(*by_ring)
        assert pivot_distance_needed(*by_ring, False, False) is True
        assert pivot_distance_needed(1.0, 4.0, 0.0, math.inf)  # an unbounded theta

    @pytest.mark.parametrize("hyperplane", [True, False])
    @pytest.mark.parametrize("ring", [True, False])
    def test_arrays_decide_each_entry_as_a_scalar_call_does(self, hyperplane, ring):
        """The kernel asks with aligned arrays, its reference one pair at a
        time; the two must agree bit for bit, ``theta = inf`` included."""
        rng = np.random.default_rng(11)
        own, gap, upper, theta = (rng.integers(0, 9, 4000) / 4.0 for _ in range(4))
        theta[::7] = math.inf
        got = np.broadcast_to(pivot_distance_needed(own, gap, upper, theta, hyperplane, ring), 4000)
        want = [
            bool(pivot_distance_needed(*map(float, entry), hyperplane, ring))
            for entry in zip(own, gap, upper, theta)
        ]
        assert got.tolist() == want
        assert all(want) == (not hyperplane and not ring)
