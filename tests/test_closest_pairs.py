"""Unit tests for the top-k closest-pairs operator (ref [11])."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.joins import BlockJoinConfig, run_join


def brute_force_pairs(r, s, k, exclude_self=False):
    entries = []
    for i in range(len(r)):
        dists = np.linalg.norm(s.points - r.points[i], axis=1)
        for j in range(len(s)):
            r_id, s_id = int(r.ids[i]), int(s.ids[j])
            if exclude_self and r_id == s_id:
                continue
            entries.append((float(dists[j]), r_id, s_id))
    entries.sort()
    return [(r_id, s_id, dist) for dist, r_id, s_id in entries[:k]]


@pytest.fixture
def two_sets(rng):
    r = Dataset(rng.random((80, 3)), name="r")
    s = Dataset(rng.random((120, 3)), ids=np.arange(1000, 1120), name="s")
    return r, s


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force(self, two_sets, k):
        r, s = two_sets
        outcome = run_join(
            "closest-pairs",
            r,
            s,
            BlockJoinConfig(k=k, num_reducers=4, num_pivots=10, split_size=64),
        )
        expected = brute_force_pairs(r, s, k)
        assert [(a, b) for a, b, _ in outcome.pairs] == [(a, b) for a, b, _ in expected]
        assert np.allclose(
            [d for _, _, d in outcome.pairs], [d for _, _, d in expected]
        )

    def test_self_join_without_exclusion_yields_identity_pairs(self, rng):
        data = Dataset(rng.random((50, 2)))
        outcome = run_join(
            "closest-pairs", data, data, BlockJoinConfig(k=5, num_reducers=4, num_pivots=6)
        )
        assert all(dist == 0.0 for _, _, dist in outcome.pairs)
        assert all(a == b for a, b, _ in outcome.pairs)

    def test_self_join_with_exclusion(self, rng):
        data = Dataset(rng.random((60, 2)))
        outcome = run_join(
            "closest-pairs",
            data,
            data,
            BlockJoinConfig(k=8, num_reducers=4, num_pivots=6),
            exclude_self=True,
        )
        expected = brute_force_pairs(data, data, 8, exclude_self=True)
        assert all(a != b for a, b, _ in outcome.pairs)
        assert np.allclose(
            [d for _, _, d in outcome.pairs], [d for _, _, d in expected]
        )

    def test_pairs_sorted_ascending(self, two_sets):
        r, s = two_sets
        outcome = run_join(
            "closest-pairs", r, s, BlockJoinConfig(k=10, num_reducers=9, num_pivots=8)
        )
        dists = [d for _, _, d in outcome.pairs]
        assert dists == sorted(dists)

    def test_k_larger_than_one_block(self, rng):
        """k exceeding per-block S sizes exercises the partial-theta path."""
        r = Dataset(rng.random((30, 2)), name="r")
        s = Dataset(rng.random((20, 2)), ids=np.arange(500, 520), name="s")
        outcome = run_join(
            "closest-pairs", r, s, BlockJoinConfig(k=15, num_reducers=9, num_pivots=4)
        )
        expected = brute_force_pairs(r, s, 15)
        assert np.allclose(
            [d for _, _, d in outcome.pairs], [d for _, _, d in expected]
        )

    def test_k_exceeding_cross_product_rejected(self, rng):
        r = Dataset(rng.random((3, 2)))
        s = Dataset(rng.random((3, 2)), ids=np.arange(10, 13))
        with pytest.raises(ValueError, match="exceeds"):
            run_join("closest-pairs", r, s, BlockJoinConfig(k=10, num_pivots=2))


class TestMeasurements:
    def test_selectivity_below_one(self, two_sets):
        r, s = two_sets
        outcome = run_join(
            "closest-pairs", r, s, BlockJoinConfig(k=5, num_reducers=9, num_pivots=10)
        )
        assert 0 < outcome.selectivity() <= 1.5  # pivot pairs may push past 1
        assert outcome.shuffle_bytes > 0
