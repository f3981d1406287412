"""Property-based end-to-end tests: random worlds, exact agreement.

The strongest claim in the repository — every exact distributed join equals
brute force — checked through ``run_join`` over hypothesis-generated worlds:
integer-grid ties, all-identical points, ``k = |S|``, self-joins and R ≠ S
with disjoint ids, every reducer count, every metric family and more pivots
than R has objects (refused at the boundary by the joins that draw their
pivots from R).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PgbjConfig, run_join
from repro.core import Dataset, KnnJoinResult, brute_force_knn_join, get_metric
from repro.joins import InvalidJoinInput, available_joins, get_join

#: every registered kNN join but the approximate z-order join
EXACT_JOINS = tuple(name for name in available_joins(kind="knn") if name != "zorder")


@st.composite
def join_world(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    num_r = draw(st.integers(1, 40))
    num_s = draw(st.integers(1, 40))
    dims = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(("grid", "identical", "float")))
    if shape == "grid":  # small integer coordinates: distance ties everywhere
        r_points = rng.integers(0, 4, size=(num_r, dims)).astype(float)
        s_points = rng.integers(0, 4, size=(num_s, dims)).astype(float)
    elif shape == "identical":
        r_points = np.ones((num_r, dims))
        s_points = np.ones((num_s, dims))
    else:
        r_points = rng.random((num_r, dims))
        s_points = rng.random((num_s, dims))
    r = Dataset(r_points, name="r")
    if draw(st.booleans()):
        s = r  # self-join
    else:
        s = Dataset(s_points, ids=np.arange(10_000, 10_000 + num_s), name="s")
    k = draw(st.one_of(st.integers(1, min(8, len(s))), st.just(len(s))))
    metric_name = draw(st.sampled_from(("l1", "l2", "linf", "l3")))
    num_reducers = draw(st.sampled_from((1, 2, 4, 9)))
    num_pivots = draw(st.integers(1, len(r) + 3))
    return r, s, k, metric_name, num_reducers, num_pivots, seed


def truth_of(r, s, k, metric_name="l2"):
    return KnnJoinResult.from_dict(
        k, brute_force_knn_join(get_metric(metric_name), r.points, r.ids, s.points, s.ids, k)
    )


# one property, drawn per join: a failing world shrinks against the join
# that fails it, and the report names that join
@pytest.mark.parametrize("name", EXACT_JOINS)
@given(world=join_world())
@settings(max_examples=30, deadline=None)
def test_every_exact_join_equals_brute_force(name, world):
    r, s, k, metric_name, num_reducers, num_pivots, seed = world
    spec = get_join(name)
    config = spec.make_config(
        k=k, num_reducers=num_reducers, num_pivots=num_pivots, metric_name=metric_name,
        seed=seed, split_size=32,
    )
    if spec.pivots_from_r and num_pivots > len(r):
        with pytest.raises(InvalidJoinInput, match=f"num_pivots={num_pivots} exceeds"):
            run_join(name, r, s, config)
        return
    result = run_join(name, r, s, config).result
    assert result.same_distances_as(truth_of(r, s, k, metric_name))
    for r_id in r.ids.tolist():
        ids, _ = result.neighbors_of(r_id)
        assert ids.size == k and np.unique(ids).size == k


@given(join_world())
@settings(max_examples=10, deadline=None)
def test_pgbj_structural_invariants(world):
    """Cardinality k*|R|, sorted lists, shuffle = |R| + RP(S) records."""
    r, s, k, metric_name, num_reducers, num_pivots, seed = world
    config = PgbjConfig(
        k=k, num_reducers=num_reducers, num_pivots=min(num_pivots, len(r)),
        metric_name=metric_name, seed=seed, split_size=32,
    )
    outcome = run_join("pgbj", r, s, config)
    outcome.result.validate(r.ids, len(s))
    assert outcome.result.total_pairs() == min(k, len(s)) * len(r)
    join_stats = outcome.job_stats[1]
    assert join_stats.shuffle_records == len(r) + outcome.replication_of_s()
    assert 1.0 <= outcome.avg_replication_of_s() <= num_reducers
