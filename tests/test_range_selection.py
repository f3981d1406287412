"""Unit tests for the distributed range-selection operator (Definition 3)."""

import numpy as np
import pytest

from repro.core import Dataset
from repro.joins import JoinConfig, run_join


@pytest.fixture
def world(rng):
    data = Dataset(rng.random((500, 3)), name="O")
    queries = Dataset(rng.random((12, 3)), ids=np.arange(9000, 9012), name="Q")
    return data, queries


def select(data, queries, theta, num_pivots, **config):
    return run_join(
        "range-selection", data, queries, JoinConfig(**config), theta=theta, num_pivots=num_pivots
    )


def linear_scan(data, queries, theta):
    out = {}
    for row in range(len(queries)):
        dists = np.linalg.norm(data.points - queries.points[row], axis=1)
        out[int(queries.ids[row])] = sorted(int(i) for i in data.ids[dists <= theta])
    return out


class TestCorrectness:
    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.5])
    def test_matches_linear_scan(self, world, theta):
        data, queries = world
        outcome = select(data, queries, theta, num_pivots=16, num_reducers=4, split_size=128)
        assert outcome.matches == linear_scan(data, queries, theta)

    def test_zero_threshold_finds_exact_points(self, world):
        data, queries = world
        # put one query exactly on a data point
        points = queries.points.copy()
        points[0] = data.points[42]
        queries = Dataset(points, ids=queries.ids, name="Q")
        outcome = select(data, queries, 0.0, num_pivots=8, num_reducers=4)
        assert outcome.matches[9000] == [42]

    def test_far_queries_match_nothing(self, rng):
        data = Dataset(rng.random((200, 2)))
        queries = Dataset(np.full((3, 2), 100.0), ids=np.arange(3))
        outcome = select(data, queries, 0.5, num_pivots=8, num_reducers=4)
        assert all(matches == [] for matches in outcome.matches.values())

    def test_huge_threshold_matches_everything(self, rng):
        data = Dataset(rng.random((100, 2)))
        queries = Dataset(rng.random((2, 2)), ids=np.array([7, 8]))
        outcome = select(data, queries, 10.0, num_pivots=4, num_reducers=2)
        assert outcome.matches[7] == sorted(int(i) for i in data.ids)

    def test_negative_threshold_rejected(self, world):
        data, queries = world
        with pytest.raises(ValueError):
            select(data, queries, -1.0, num_pivots=4, num_reducers=2)


class TestPruning:
    def test_unreachable_cells_not_shuffled(self, rng):
        """Objects in cells no query ball touches are dropped at the mapper."""
        # two distant clusters; queries only near the first
        left = rng.random((200, 2))
        right = rng.random((200, 2)) + 50.0
        data = Dataset(np.vstack([left, right]))
        queries = Dataset(rng.random((5, 2)), ids=np.arange(5000, 5005))
        outcome = select(data, queries, 0.3, num_pivots=12, num_reducers=3)
        # the right cluster (half the data, in every reducer's copy) is pruned
        assert outcome.shuffle_records < 3 * len(data) * 0.75

    def test_smaller_theta_shuffles_less(self, world):
        data, queries = world
        small = select(data, queries, 0.05, num_pivots=16, num_reducers=4)
        large = select(data, queries, 0.8, num_pivots=16, num_reducers=4)
        assert small.shuffle_records <= large.shuffle_records
        assert small.distance_pairs <= large.distance_pairs

    def test_selectivity_accessor(self, world):
        data, queries = world
        outcome = select(data, queries, 0.2, num_pivots=16, num_reducers=4)
        assert outcome.selectivity() > 0


class TestAccountingPinned:
    """One seeded world's answer and accounting, pinned to literal values on
    every engine and shuffle backend: how the operator's input is shaped
    (rows or blocks) must not move a match, a shuffled record or byte, or a
    computed distance."""

    #: (sha1 of the sorted matches, matched ids, shuffle records, shuffle
    #: bytes, distance pairs) — the pairs follow the Voronoi assignment's
    #: rule (9 368 under the nearest-anchor prefix alone, 5 368 while the
    #: 16 x 16 pivot matrix counted both orders of each pair); the bytes were
    #: 102 885 while a row's cell id was 8 bytes, not 4, and 95 665 while a
    #: row shipped its id as an int64 and its cell id as an int32 (now int16
    #: for these 500 ids and int8 for 16 cells: 9 bytes fewer a row)
    PINNED = ("d4dd14d5fc6fdf9c", 155, 1805, 79420, 5232)

    @pytest.mark.parametrize("budget", (None, 64), ids=("memory", "spill"))
    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    def test_facts_unchanged(self, world, engine, budget):
        import hashlib

        data, queries = world
        outcome = select(
            data, queries, 0.2, num_pivots=16, num_reducers=4, split_size=128, seed=0,
            engine=engine, max_workers=2, memory_budget=budget,
        )
        digest = hashlib.sha1(repr(sorted(outcome.matches.items())).encode())
        assert (
            digest.hexdigest()[:16],
            sum(len(ids) for ids in outcome.matches.values()),
            outcome.shuffle_records,
            outcome.shuffle_bytes,
            outcome.distance_pairs,
        ) == self.PINNED
