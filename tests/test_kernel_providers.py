"""Kernel providers: bit-identity across numpy/numba/auto.

The provider contract is the strongest statement in the tentpole: whatever
backend evaluates the hot loops, results, tie-breaks AND the deterministic
cost counters (``Metric.pairs_computed``, shuffle records/bytes) must be
byte-for-byte identical.  Without numba installed the ``numba`` provider's
*algorithms* still run (plain-Python via the identity-decorator fallback,
enabled by ``interpreted_ok=True``) so the equivalence holds in every
environment; the CI ``kernels-native`` leg re-runs this file with numba to
exercise the compiled path proper.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Dataset, VoronoiPartitioner, get_metric
from repro.core.bounds import compute_thetas
from repro.core.knn import KBestList
from repro.core.summary import build_partial_summary
from repro.core.zorder import ZOrderTransform
from repro.joins import _numba_kernels as _nk
from repro.joins import available_joins, get_join, run_join
from repro.joins.base import BlockJoinConfig, JoinConfig
from repro.joins.kernel_providers import (
    AUTO_BATCH_ROWS,
    KERNEL_PROVIDERS,
    CompiledKBestList,
    NumbaKernelProvider,
    available_kernel_providers,
    fallback_count,
    get_kernel_provider,
    reset_fallback_counts,
)
from repro.joins.kernels import (
    ScratchPool,
    build_r_blocks,
    build_s_blocks,
    knn_join_kernel_reference,
)
from repro.mapreduce.types import ObjectRecord
from tests.reference_zorder import int_z_values

NUMBA = _nk.NUMBA_AVAILABLE

#: the numba provider the equivalence tests drive: algorithms always run,
#: compiled when the library is present, interpreted otherwise
INTERPRETED_NUMBA = NumbaKernelProvider(interpreted_ok=True)


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_known_names(self):
        assert set(KERNEL_PROVIDERS) == {"numpy", "numba", "auto"}

    def test_lookup_case_insensitive(self):
        assert get_kernel_provider("NumPy") is KERNEL_PROVIDERS["numpy"]
        assert get_kernel_provider() is KERNEL_PROVIDERS["auto"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel provider"):
            get_kernel_provider("cuda")

    def test_availability_listing(self):
        listing = available_kernel_providers()
        assert set(listing) == {"auto", "numba", "numpy"}
        assert listing["numpy"][0] is True
        assert listing["numba"][0] is NUMBA
        for available, description in listing.values():
            assert isinstance(description, str) and description

    def test_join_config_validates_provider(self):
        with pytest.raises(ValueError, match="kernel provider"):
            JoinConfig(kernel_provider="cuda")
        assert JoinConfig(kernel_provider="numba").kernel_provider == "numba"


# -- kernel-level equivalence (hypothesis) -------------------------------------


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


def build_world(metric_name, r_points, s_points, k, num_pivots, seed):
    """Everything one reducer would hold, for an arbitrary metric."""
    rng = np.random.default_rng(seed)
    r = Dataset(r_points, name="r")
    num_s = s_points.shape[0]
    s = Dataset(s_points, ids=np.arange(1000, 1000 + num_s), name="s")
    metric = get_metric(metric_name)
    pivots = rng.random((num_pivots, r_points.shape[1]))
    partitioner = VoronoiPartitioner(pivots, metric)
    ar, as_ = partitioner.assign(r), partitioner.assign(s)
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
    return r_blocks, s_blocks, thetas, ring, pivots, pdm


def run_provider_kernel(kernel, metric_name, k, world):
    metric = get_metric(metric_name)
    r_blocks, s_blocks, thetas, ring, pivots, pdm = world
    results = {
        r_id: (ids.tolist(), dists.tolist())
        for r_id, ids, dists in kernel(
            metric, k, r_blocks, s_blocks, thetas, ring, pivots, pdm
        )
    }
    return results, metric.pairs_computed


@st.composite
def kernel_scenario(draw):
    seed = draw(st.integers(0, 5000))
    rng = np.random.default_rng(seed)
    num_r = draw(st.integers(4, 30))
    num_s = draw(st.integers(4, 36))
    dims = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    # Minkowski powers beyond {1, 2, inf} always take the numpy path — the
    # provider contract still has to hold there
    metric_name = draw(st.sampled_from(["l2", "l1", "linf", "l3"]))
    if draw(st.booleans()):
        # integer grids provoke distance ties; tie-breaking must agree too
        r_points = rng.integers(0, 6, size=(num_r, dims)).astype(float)
        s_points = rng.integers(0, 6, size=(num_s, dims)).astype(float)
    else:
        r_points = rng.random((num_r, dims))
        s_points = rng.random((num_s, dims))
    num_pivots = draw(st.integers(1, min(8, num_s)))
    return metric_name, r_points, s_points, k, num_pivots, seed


class TestKernelEquivalence:
    @given(kernel_scenario())
    @settings(max_examples=20, deadline=None)
    def test_every_provider_matches_the_reference(self, scenario):
        metric_name, r_points, s_points, k, num_pivots, seed = scenario
        world = build_world(metric_name, r_points, s_points, k, num_pivots, seed)
        expected, expected_pairs = run_provider_kernel(
            knn_join_kernel_reference, metric_name, k, world
        )
        providers = {
            "numpy": KERNEL_PROVIDERS["numpy"],
            "numba": INTERPRETED_NUMBA,
            "auto": KERNEL_PROVIDERS["auto"],
        }
        for name, provider in providers.items():
            got, pairs = run_provider_kernel(
                provider.knn_join_kernel, metric_name, k, world
            )
            assert got == expected, name
            assert pairs == expected_pairs, name

    @given(kernel_scenario())
    @settings(max_examples=20, deadline=None)
    def test_primitive_distances_bit_identical(self, scenario):
        metric_name, r_points, s_points, *_ = scenario
        rows = min(r_points.shape[0], s_points.shape[0])
        xs, ys = r_points[:rows], s_points[:rows]
        oracle = get_metric(metric_name)
        for provider in (INTERPRETED_NUMBA, KERNEL_PROVIDERS["auto"]):
            metric = get_metric(metric_name)
            pair = provider.pair_distances(metric, xs, ys)
            one = provider.distances(metric, xs[0], ys)
            cross = provider.cross_distances(metric, xs, ys)
            assert np.array_equal(pair, oracle.pair_distances(xs, ys))
            assert np.array_equal(one, oracle.distances(xs[0], ys))
            assert np.array_equal(cross, oracle.cross_distances(xs, ys))
            assert metric.pairs_computed == oracle.pairs_computed
            oracle.pairs_computed = 0

    @given(
        st.integers(0, 1000),
        st.integers(1, 12),
        st.integers(1, 32),
        st.integers(1, 200),
    )
    @settings(max_examples=25, deadline=None)
    def test_morton_codes_match_transform(self, seed, dims, bits, count):
        """One implementation at every width: every provider hands back the
        transform's byte-key array, and the keys spell the int codes."""
        rng = np.random.default_rng(seed)
        transform = ZOrderTransform(np.zeros(dims), np.ones(dims), bits=bits)
        points = rng.random((count, dims))
        expected = transform.z_keys(points)
        assert expected.dtype == np.dtype(f"S{transform.key_width}")
        assert [
            int.from_bytes(key.ljust(transform.key_width, b"\0"), "big")
            for key in expected.tolist()
        ] == int_z_values(transform, points)
        for provider in KERNEL_PROVIDERS.values():
            got = provider.morton_codes(transform, points)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


# -- CompiledKBestList ---------------------------------------------------------


class TestCompiledKBestList:
    @given(st.integers(0, 500), st.integers(1, 9), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_kbest_list(self, seed, k, batches):
        rng = np.random.default_rng(seed)
        reference, compiled = KBestList(k), CompiledKBestList(k)
        for _ in range(batches):
            size = int(rng.integers(0, 12))
            # small integer distances force ties; ids break them
            dists = rng.integers(0, 4, size=size).astype(float)
            ids = rng.permutation(1000)[:size].astype(np.int64)
            reference.update(dists, ids)
            compiled.update(dists, ids)
            assert compiled.is_full() == reference.is_full()
            assert compiled.theta == reference.theta
        ref_ids, ref_dists = reference.as_arrays()
        got_ids, got_dists = compiled.as_arrays()
        assert got_ids.tolist() == ref_ids.tolist()
        assert got_dists.tolist() == ref_dists.tolist()

    def test_validates_like_kbest_list(self):
        with pytest.raises(ValueError, match="k must be"):
            CompiledKBestList(0)
        best = CompiledKBestList(3)
        with pytest.raises(ValueError, match="align"):
            best.update(np.zeros(2), np.zeros(3, dtype=np.int64))
        best.update(np.empty(0), np.empty(0, dtype=np.int64))  # no-op
        assert best.theta == np.inf and not best.is_full()

    def test_provider_kbest_factories(self):
        assert isinstance(KERNEL_PROVIDERS["numpy"].kbest(2), KBestList)
        numba_best = KERNEL_PROVIDERS["numba"].kbest(2)
        if NUMBA:
            assert isinstance(numba_best, CompiledKBestList)
        else:
            assert isinstance(numba_best, KBestList)  # transparent fallback


# -- ScratchPool ---------------------------------------------------------------


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
        metric_name, k = "l2", 4
        rng = np.random.default_rng(9)
        world = build_world(
            metric_name, rng.random((40, 3)), rng.random((50, 3)), k, 6, seed=9
        )
        expected, expected_pairs = run_provider_kernel(
            knn_join_kernel_reference, metric_name, k, world
        )
        metric = get_metric(metric_name)
        shared = ScratchPool()
        provider = KERNEL_PROVIDERS["numpy"]
        for _ in range(3):  # repeated use over one pool: no stale-state leaks
            got = {
                r_id: (ids.tolist(), dists.tolist())
                for r_id, ids, dists in provider.knn_join_kernel(
                    metric, k, *world, scratch=shared
                )
            }
            assert got == expected
        assert metric.pairs_computed == 3 * expected_pairs


# -- fallback accounting -------------------------------------------------------


@pytest.mark.skipif(NUMBA, reason="numba installed: nothing falls back")
class TestFallbackWithoutNumba:
    def setup_method(self):
        reset_fallback_counts()

    def test_numba_provider_counts_and_warns_once(self):
        provider = KERNEL_PROVIDERS["numba"]
        metric = get_metric("l2")
        points = np.ones((3, 2))
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            provider.pair_distances(metric, points, points)
        assert fallback_count("numba") == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning fires once per process
            provider.pair_distances(metric, points, points)
        assert fallback_count("numba") == 2

    def test_auto_counts_silently_on_large_batches(self):
        provider = KERNEL_PROVIDERS["auto"]
        metric = get_metric("l2")
        big = np.ones((AUTO_BATCH_ROWS, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            provider.pair_distances(metric, big, big)
        assert fallback_count("auto") == 1

    def test_auto_small_batches_are_a_choice_not_a_fallback(self):
        provider = KERNEL_PROVIDERS["auto"]
        metric = get_metric("l2")
        small = np.ones((4, 2))
        provider.pair_distances(metric, small, small)
        assert fallback_count("auto") == 0


@pytest.mark.skipif(not NUMBA, reason="needs numba")
class TestCompiledPathWithNumba:
    def test_no_fallbacks_recorded(self):
        reset_fallback_counts()
        provider = KERNEL_PROVIDERS["numba"]
        metric = get_metric("l2")
        points = np.ones((4, 2))
        provider.pair_distances(metric, points, points)
        provider.distances(metric, points[0], points)
        assert fallback_count("numba") == 0
        assert provider.available()


# -- end-to-end: every registered join is provider-invariant -------------------

PROVIDERS = ("numpy", "numba", "auto")


def _quiet_run(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fallback notice
        return fn()


class TestAllJoinsProviderInvariant:
    """Results, ``pairs_computed`` and shuffle accounting must not move when
    the kernel provider changes — for every registered plan builder."""

    @pytest.fixture(scope="class")
    def data(self):
        return Dataset(np.random.default_rng(7).random((120, 3)), name="d")

    @pytest.mark.parametrize("name", sorted(available_joins(kind="knn")))
    def test_knn_joins(self, name, data):
        spec = get_join(name)
        outcomes = {}
        for provider in PROVIDERS:
            config = spec.make_config(
                k=4, num_reducers=4, num_pivots=10, split_size=64, seed=3,
                kernel_provider=provider,
            )
            outcomes[provider] = _quiet_run(
                lambda: run_join(name, data, data, config)
            )
        base = outcomes["numpy"]
        for provider in ("numba", "auto"):
            outcome = outcomes[provider]
            assert outcome.result.same_distances_as(base.result), provider
            assert outcome.distance_pairs == base.distance_pairs, provider
            assert outcome.shuffle_records() == base.shuffle_records(), provider
            assert outcome.shuffle_bytes() == base.shuffle_bytes(), provider

    def test_closest_pairs_operator(self, data):
        outcomes = {
            provider: _quiet_run(
                lambda: run_join(
                    "closest-pairs",
                    data,
                    data,
                    BlockJoinConfig(
                        k=8, num_reducers=4, num_pivots=6,
                        kernel_provider=provider,
                    ),
                )
            )
            for provider in PROVIDERS
        }
        base = outcomes["numpy"]
        for provider in ("numba", "auto"):
            assert outcomes[provider].pairs == base.pairs, provider
            assert outcomes[provider].distance_pairs == base.distance_pairs
            assert outcomes[provider].shuffle_bytes == base.shuffle_bytes

    def test_range_selection_operator(self, data):
        rng = np.random.default_rng(11)
        queries = Dataset(rng.random((12, 3)), name="q")
        outcomes = {
            provider: _quiet_run(
                lambda: run_join(
                    "range-selection",
                    data,
                    queries,
                    JoinConfig(num_reducers=3, kernel_provider=provider),
                    theta=0.3,
                    num_pivots=8,
                )
            )
            for provider in PROVIDERS
        }
        base = outcomes["numpy"]
        for provider in ("numba", "auto"):
            assert outcomes[provider].matches == base.matches, provider
            assert outcomes[provider].distance_pairs == base.distance_pairs
            assert outcomes[provider].shuffle_records == base.shuffle_records
            assert outcomes[provider].shuffle_bytes == base.shuffle_bytes

    def test_spill_codec_composes_with_providers(self, data):
        """The whole tentpole at once: compressed shuffle + each provider."""
        spec = get_join("pgbj")
        reference = None
        for provider in PROVIDERS:
            config = spec.make_config(
                k=4, num_reducers=4, num_pivots=10, split_size=64, seed=3,
                kernel_provider=provider, spill_codec="zlib",
            )
            outcome = _quiet_run(lambda: run_join("pgbj", data, data, config))
            assert outcome.spill_segments() > 0  # zlib implied the spill path
            snapshot = (
                outcome.distance_pairs,
                outcome.shuffle_records(),
                outcome.shuffle_bytes(),
            )
            if reference is None:
                reference, ref_result = snapshot, outcome.result
            else:
                assert snapshot == reference, provider
                assert outcome.result.same_distances_as(ref_result), provider
