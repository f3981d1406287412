"""Property-based end-to-end tests: random worlds, exact agreement.

The strongest claim in the repository — all distributed algorithms equal
brute force — checked over hypothesis-generated datasets, ks, reducer counts
and pivot counts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BlockJoinConfig, JoinConfig, PgbjConfig, run_join
from repro.core import Dataset, KnnJoinResult, brute_force_knn_join, get_metric


@st.composite
def join_world(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    num_r = draw(st.integers(5, 60))
    num_s = draw(st.integers(5, 60))
    dims = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(8, num_s)))
    # integer grid coordinates provoke ties; float coordinates don't
    if draw(st.booleans()):
        r_points = rng.integers(0, 8, size=(num_r, dims)).astype(float)
        s_points = rng.integers(0, 8, size=(num_s, dims)).astype(float)
    else:
        r_points = rng.random((num_r, dims))
        s_points = rng.random((num_s, dims))
    r = Dataset(r_points, name="r")
    s = Dataset(s_points, ids=np.arange(10_000, 10_000 + num_s), name="s")
    num_reducers = draw(st.sampled_from([1, 2, 4, 9]))
    num_pivots = draw(st.integers(1, min(12, num_r)))
    return r, s, k, num_reducers, num_pivots, seed


def truth_of(r, s, k):
    return KnnJoinResult.from_dict(
        k, brute_force_knn_join(get_metric("l2"), r.points, r.ids, s.points, s.ids, k)
    )


@given(join_world())
@settings(max_examples=25, deadline=None)
def test_pgbj_equals_brute_force(world):
    r, s, k, num_reducers, num_pivots, seed = world
    config = PgbjConfig(
        k=k, num_reducers=num_reducers, num_pivots=num_pivots, seed=seed, split_size=32
    )
    outcome = run_join("pgbj", r, s, config)
    assert outcome.result.same_distances_as(truth_of(r, s, k))


@given(join_world())
@settings(max_examples=15, deadline=None)
def test_pbj_equals_brute_force(world):
    r, s, k, num_reducers, num_pivots, seed = world
    config = BlockJoinConfig(
        k=k, num_reducers=num_reducers, num_pivots=num_pivots, seed=seed, split_size=32
    )
    outcome = run_join("pbj", r, s, config)
    assert outcome.result.same_distances_as(truth_of(r, s, k))


@given(join_world())
@settings(max_examples=15, deadline=None)
def test_hbrj_equals_brute_force(world):
    r, s, k, num_reducers, _, seed = world
    config = BlockJoinConfig(k=k, num_reducers=num_reducers, seed=seed, split_size=32)
    outcome = run_join("hbrj", r, s, config)
    assert outcome.result.same_distances_as(truth_of(r, s, k))


@given(join_world())
@settings(max_examples=10, deadline=None)
def test_broadcast_equals_brute_force(world):
    r, s, k, num_reducers, _, seed = world
    outcome = run_join(
        "broadcast", r, s, JoinConfig(k=k, num_reducers=num_reducers, seed=seed, split_size=32)
    )
    assert outcome.result.same_distances_as(truth_of(r, s, k))


@given(join_world())
@settings(max_examples=10, deadline=None)
def test_pgbj_structural_invariants(world):
    """Cardinality k*|R|, sorted lists, shuffle = |R| + RP(S) records."""
    r, s, k, num_reducers, num_pivots, seed = world
    config = PgbjConfig(
        k=k, num_reducers=num_reducers, num_pivots=num_pivots, seed=seed, split_size=32
    )
    outcome = run_join("pgbj", r, s, config)
    outcome.result.validate(r.ids, len(s))
    assert outcome.result.total_pairs() == min(k, len(s)) * len(r)
    join_stats = outcome.job_stats[1]
    assert join_stats.shuffle_records == len(r) + outcome.replication_of_s()
    assert 1.0 <= outcome.avg_replication_of_s() <= num_reducers
