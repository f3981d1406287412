"""Integration: all four algorithms agree with brute force and each other.

This is the repository's core correctness claim — the paper's algorithms are
*exact*, so every implementation must produce the same distance profile on
every input.
"""

import numpy as np
import pytest

from repro import BlockJoinConfig, JoinConfig, PgbjConfig, run_join
from repro.core import Dataset
from repro.datasets import generate_forest, generate_osm, gaussian_mixture_dataset
from tests.conftest import ground_truth


def run_all(r, s, k, num_reducers=4, num_pivots=10):
    outcomes = {
        "pgbj": run_join(
            "pgbj",
            r,
            s,
            PgbjConfig(k=k, num_reducers=num_reducers, num_pivots=num_pivots, split_size=64),
        ),
        "pbj": run_join(
            "pbj",
            r,
            s,
            BlockJoinConfig(k=k, num_reducers=num_reducers, num_pivots=num_pivots, split_size=64),
        ),
        "hbrj": run_join(
            "hbrj", r, s, BlockJoinConfig(k=k, num_reducers=num_reducers, split_size=64)
        ),
        "broadcast": run_join(
            "broadcast", r, s, JoinConfig(k=k, num_reducers=num_reducers, split_size=64)
        ),
    }
    return outcomes


WORKLOADS = [
    ("uniform-3d", lambda: Dataset(np.random.default_rng(0).random((150, 3)))),
    ("forest-10d", lambda: generate_forest(200, seed=2)),
    ("osm-2d", lambda: generate_osm(180, seed=4)),
    ("clustered-5d", lambda: gaussian_mixture_dataset(160, 5, num_clusters=6, seed=6)),
]


@pytest.mark.parametrize("name,factory", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_all_algorithms_agree_on_self_join(name, factory):
    data = factory()
    k = 5
    truth = ground_truth(data, data, k)
    for algorithm, outcome in run_all(data, data, k).items():
        assert outcome.result.same_distances_as(truth), algorithm
        outcome.result.validate(data.ids, len(data))


def test_all_algorithms_agree_on_r_s_join():
    rng = np.random.default_rng(10)
    r = Dataset(rng.random((120, 4)), name="r")
    s = Dataset(rng.random((170, 4)), ids=np.arange(10_000, 10_170), name="s")
    truth = ground_truth(r, s, 6)
    for algorithm, outcome in run_all(r, s, 6).items():
        assert outcome.result.same_distances_as(truth), algorithm


def test_k_equals_s_size():
    """Degenerate case: k = |S| — the join returns everything."""
    rng = np.random.default_rng(11)
    r = Dataset(rng.random((20, 2)), name="r")
    s = Dataset(rng.random((8, 2)), ids=np.arange(100, 108), name="s")
    truth = ground_truth(r, s, 8)
    for algorithm, outcome in run_all(r, s, 8, num_reducers=4, num_pivots=4).items():
        assert outcome.result.same_distances_as(truth), algorithm


def test_k_equals_one():
    data = generate_forest(120, seed=13)
    truth = ground_truth(data, data, 1)
    for algorithm, outcome in run_all(data, data, 1).items():
        assert outcome.result.same_distances_as(truth), algorithm


def test_duplicate_points_everywhere():
    """Heavy ties: many coincident objects must not break exactness."""
    rng = np.random.default_rng(14)
    base = rng.integers(0, 3, size=(40, 2)).astype(float)
    data = Dataset(np.vstack([base, base, base]), name="dups")
    truth = ground_truth(data, data, 4)
    for algorithm, outcome in run_all(data, data, 4, num_pivots=6).items():
        assert outcome.result.same_distances_as(truth), algorithm


def test_single_reducer_degenerate():
    data = Dataset(np.random.default_rng(15).random((60, 3)))
    truth = ground_truth(data, data, 3)
    for algorithm, outcome in run_all(data, data, 3, num_reducers=1, num_pivots=5).items():
        assert outcome.result.same_distances_as(truth), algorithm


def test_paper_measurement_ordering_holds():
    """The headline comparison: PGBJ <= PBJ <= H-BRJ on selectivity."""
    data = generate_forest(400, seed=20)
    outcomes = run_all(data, data, 10, num_reducers=9, num_pivots=24)
    sel = {name: outcome.selectivity() for name, outcome in outcomes.items()}
    assert sel["pgbj"] < sel["hbrj"]
    assert sel["pbj"] < sel["hbrj"]
    shuffle = {name: outcome.shuffle_bytes() for name, outcome in outcomes.items()}
    assert shuffle["pgbj"] < shuffle["hbrj"]
