"""Property-based end-to-end tests: random worlds, exact agreement.

The strongest claim in the repository — every exact distributed join equals
brute force — checked through ``run_join`` over hypothesis-generated worlds:
integer-grid ties, all-identical points, ``k = |S|``, self-joins (``r is
s``: each object assigned to its cell once) and R ≠ S with disjoint ids,
every reducer count, every metric family and more pivots than R has objects
(refused at the boundary by the joins that draw their pivots from R) — and a
dense cluster plus a few far outliers, where one random pivot draw rarely
lands on an outlier, so outlier rows sit in huge cells (a large ``U_i``).
"""

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro import PgbjConfig, run_join
from repro.core import Dataset, KnnJoinResult, brute_force_knn_join, get_metric
from repro.joins import InvalidJoinInput, available_joins, get_join
from repro.joins.partition_job import make_pivot_selector

#: every registered kNN join but the approximate z-order join
EXACT_JOINS = tuple(name for name in available_joins() if name != "zorder")


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


@st.composite
def cluster_world(draw):
    """A dense cluster of 20-80 objects plus 1-5 outliers, ``100``-``10^4``
    times farther out, in random row order."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    dims = draw(st.integers(1, 4))
    spread = draw(st.sampled_from((1e-6, 1e-3, 1.0)))
    far = draw(st.sampled_from((1e2, 1e4)))

    def points():
        dense = rng.normal(0.0, spread, (draw(st.integers(20, 80)), dims))
        outliers = rng.uniform(-far, far, (draw(st.integers(1, 5)), dims))
        return rng.permutation(np.vstack([dense, outliers]))

    r = Dataset(points(), name="r")
    if draw(st.booleans()):
        s = r
    else:
        s_points = points()
        s = Dataset(s_points, ids=np.arange(10_000, 10_000 + len(s_points)), name="s")
    k = draw(st.integers(1, 8))
    metric_name = draw(st.sampled_from(("l1", "l2", "linf")))
    num_reducers = draw(st.sampled_from((1, 2, 4, 9)))
    num_pivots = draw(st.integers(1, 24))
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
    assert_equals_brute_force(name, world)


@pytest.mark.parametrize("name", EXACT_JOINS)
@given(world=cluster_world())
@settings(max_examples=15, deadline=None)
def test_every_exact_join_equals_brute_force_on_a_cluster_with_outliers(name, world):
    assert_equals_brute_force(name, world)


def assert_equals_brute_force(name, world):
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


def test_worlds_include_grid_self_joins_with_tied_assignments():
    """The oracle property sees ``r is s`` self-joins, where each object is
    assigned once and its S copy takes its R copy's tied cell, on integer
    grids whose objects tie between pivots — not only equal copies."""

    def tied_self_join(world):
        r, s, _, metric_name, _, num_pivots, seed = world
        if r is not s or num_pivots > len(r) or not np.array_equal(r.points, r.points.round()):
            return False
        metric = get_metric(metric_name)
        config = get_join("pgbj").make_config(num_pivots=num_pivots, seed=seed)
        pivots = make_pivot_selector(config).select(
            r, num_pivots, metric, np.random.default_rng(seed)
        )
        nearest_two = np.sort(metric.cross_distances(r.points, pivots), axis=1)[:, :2]
        return num_pivots > 1 and bool((nearest_two[:, 0] == nearest_two[:, 1]).any())

    find(join_world(), tied_self_join, settings=settings(max_examples=500, database=None))


def test_cluster_worlds_put_outliers_in_cluster_pivots_cells():
    """The outlier world reaches its regime: no pivot of the draw is an
    outlier, so a cluster pivot's cell holds rows 100 times farther out than
    the cluster is wide."""

    def outlier_in_a_cluster_cell(world):
        r, _, _, metric_name, _, num_pivots, seed = world
        if num_pivots > len(r):
            return False
        metric = get_metric(metric_name)
        config = get_join("pgbj").make_config(num_pivots=num_pivots, seed=seed)
        pivots = make_pivot_selector(config).select(
            r, num_pivots, metric, np.random.default_rng(seed)
        )
        own = metric.cross_distances(r.points, pivots).min(axis=1)  # |r, own pivot|
        wide = 10.0  # bounds every cluster coordinate
        return bool((np.abs(pivots) < wide).all() and own.max() > 100 * wide)

    find(
        cluster_world(), outlier_in_a_cluster_cell,
        settings=settings(max_examples=500, database=None),
    )


@given(join_world())
@settings(max_examples=10, deadline=None)
def test_pgbj_structural_invariants(world):
    """Cardinality k*|R|, sorted lists, shuffle = |R| + RP(S) records — RP(S)
    in a self-join, whose R rows ride in their own-group S copies.  A
    self-join ships each object at least once (its own cell admits it); an
    S object of another dataset within no R cell's reach ships nowhere."""
    r, s, k, metric_name, num_reducers, num_pivots, seed = world
    config = PgbjConfig(
        k=k, num_reducers=num_reducers, num_pivots=min(num_pivots, len(r)),
        metric_name=metric_name, seed=seed, split_size=32,
    )
    outcome = run_join("pgbj", r, s, config)
    outcome.result.validate(r.ids, len(s))
    assert outcome.result.total_pairs() == min(k, len(s)) * len(r)
    join_stats = outcome.job_stats[1]
    r_rows = 0 if r is s else len(r)
    assert join_stats.shuffle_records == r_rows + outcome.replication_of_s()
    assert (1.0 if r is s else 0.0) <= outcome.avg_replication_of_s() <= num_reducers
