"""Adaptive execution: cost model, auto-tuner, fusion and persistent cache.

The contract under test, per ISSUE scope:

* the cost model's work estimate is **monotone** — never decreasing in
  ``|R|``, ``|S|`` or ``k`` — for every registered join;
* an auto-tuned run is **bit-identical** (results, counters, shuffle
  accounting) to running the equivalent hand-tuned config, on all five
  engines;
* stage fusion and the persistent plan cache are invisible: fused and
  cache-served runs fingerprint identically to default runs for all 8
  joins;
* PGBJ's skew-aware repartitioning preserves results and
  ``pairs_computed`` exactly, growing only replication.

The final test implements the CI ``autotune`` leg's cross-invocation
handshake: with ``REPRO_PLAN_CACHE_DIR`` set, the first pytest invocation
seeds the persistent cache and records its outcome fingerprint; the second
must be served from disk and fingerprint identically.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.datasets import generate_forest
from repro.joins import PgbjConfig, available_joins, get_join, partition_job, run_join
from repro.joins.autotune import (
    TuningChoice,
    auto_tune_config,
    estimate_join_cost,
    explain_join,
    sampled_cell_histogram,
)
from repro.joins.base import PAIRS_GROUP, PAIRS_NAME, REPLICA_GROUP, REPLICA_NAME
from repro.joins.partition_job import partition_stage_key
from repro.joins.pgbj import plan_skew_split
from repro.mapreduce import PlanCache
from repro.mapreduce.cost import (
    DEFAULT_RATES,
    CalibratedRates,
    StageCostEstimate,
    calibrate,
)
from tests.test_plan_equivalence import ALL_JOINS, ENGINES, fingerprint, run_one


@pytest.fixture(scope="module")
def data():
    return generate_forest(200, seed=3)


@pytest.fixture(scope="module")
def queries():
    return generate_forest(24, seed=8)


@pytest.fixture(scope="module")
def skewed():
    """Three quarters of R piled into one tight cluster."""
    rng = np.random.default_rng(12)
    points = np.concatenate(
        [rng.normal(0.0, 0.03, size=(300, 3)), rng.uniform(-3.0, 3.0, size=(100, 3))]
    )
    return Dataset(points, name="skewed")


class TestCostModelMonotonicity:
    """Predicted work never decreases when an input grows — every join."""

    @pytest.mark.parametrize("name", sorted(available_joins()))
    def test_monotone_in_r_size(self, name):
        work = [
            estimate_join_cost(name, r_size=n, s_size=500, k=8).work_seconds()
            for n in (100, 400, 1600, 6400)
        ]
        assert work == sorted(work)

    @pytest.mark.parametrize("name", sorted(available_joins()))
    def test_monotone_in_s_size(self, name):
        work = [
            estimate_join_cost(name, r_size=500, s_size=n, k=8).work_seconds()
            for n in (100, 400, 1600, 6400)
        ]
        assert work == sorted(work)

    @pytest.mark.parametrize("name", sorted(available_joins()))
    def test_monotone_in_k(self, name):
        work = [
            estimate_join_cost(name, r_size=500, s_size=500, k=k).work_seconds()
            for k in (1, 4, 16, 64, 256)
        ]
        assert work == sorted(work)


class TestCostModelShape:
    def test_merge_passes_cost_extra_io(self):
        base = StageCostEstimate(name="s", shuffle_bytes=1 << 20)
        spilled = StageCostEstimate(
            name="s", shuffle_bytes=1 << 20, planned_merge_passes=2
        )
        assert spilled.work_seconds(DEFAULT_RATES) > base.work_seconds(DEFAULT_RATES)

    def test_skewed_reducer_loads_stretch_the_wall(self):
        balanced = StageCostEstimate(
            name="s", distance_pairs=1e6, reducer_loads=(1.0, 1.0, 1.0, 1.0)
        )
        skewed = StageCostEstimate(
            name="s", distance_pairs=1e6, reducer_loads=(7.0, 1.0, 1.0, 1.0)
        )
        assert balanced.work_seconds(DEFAULT_RATES) == skewed.work_seconds(
            DEFAULT_RATES
        )
        assert skewed.wall_seconds(DEFAULT_RATES, 4) > balanced.wall_seconds(
            DEFAULT_RATES, 4
        )

    def test_workers_shrink_the_wall_not_the_work(self):
        stage = StageCostEstimate(name="s", distance_pairs=1e6)
        assert stage.wall_seconds(DEFAULT_RATES, 4) < stage.wall_seconds(
            DEFAULT_RATES, 1
        )

    def test_explain_renders_every_stage(self, data):
        estimate = explain_join("pgbj", data, data, PgbjConfig(k=3))
        text = estimate.explain()
        assert "partition" in text and "knn-join" in text
        assert f"{estimate.shuffle_bytes()}" in text

    def test_zorder_priced_at_the_configs_default_copies(self, data):
        """The cost model's curve-copy count is ``ZOrderConfig``'s, not a
        literal of its own: defaults price like the default spelled out."""
        import inspect

        from repro.joins import ZOrderConfig

        default = ZOrderConfig().num_shifts
        signature = inspect.signature(estimate_join_cost)
        assert signature.parameters["num_shifts"].default == default
        sizes = dict(r_size=len(data), s_size=len(data), k=5, dims=data.dimensions)
        spelled = estimate_join_cost("zorder", num_shifts=default, **sizes)
        assert estimate_join_cost("zorder", **sizes).stages == spelled.stages
        # a config with the knob, and one without it (the fallback)
        for config in (ZOrderConfig(k=5), PgbjConfig(k=5)):
            assert explain_join("zorder", data, data, config).stages == spelled.stages

    def test_histogram_is_deterministic_and_scaled(self, data):
        first = sampled_cell_histogram(data, data, 8, seed=5)
        second = sampled_cell_histogram(data, data, 8, seed=5)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        r_counts, s_counts = first
        assert r_counts.sum() == pytest.approx(len(data))
        assert s_counts.sum() == pytest.approx(len(data))


class TestCalibration:
    def test_rates_cache_to_disk_and_reload(self, tmp_path):
        path = tmp_path / "rates.json"
        measured = calibrate(cache_path=path, force=True)
        assert measured.calibrated and path.exists()
        # wipe the in-process memo to force the disk path
        from repro.mapreduce import cost

        cost._MEMO.clear()
        reloaded = calibrate(cache_path=path)
        assert reloaded == measured

    def test_corrupt_cache_remeasures(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text("{not json")
        rates = calibrate(cache_path=path)
        assert rates.calibrated
        assert rates.seconds_per_pair > 0

    def test_default_rates_are_deterministic(self):
        assert DEFAULT_RATES == CalibratedRates(
            seconds_per_pair=2.0e-8,
            seconds_per_shuffle_byte=1.5e-9,
            seconds_per_record=2.0e-6,
            calibrated=False,
        )


def tune(name: str, r, s, **config_knobs) -> TuningChoice:
    config = get_join(name).make_config(seed=5, **config_knobs)
    return auto_tune_config(name, r, s, config)


class TestAutoTuner:
    def test_deterministic(self, data):
        first = tune("pgbj", data, data, k=3)
        second = tune("pgbj", data, data, k=3)
        assert first.chosen == second.chosen
        assert first.config == second.config

    def test_explicit_knobs_never_move(self, data):
        choice = tune("pgbj", data, data, k=3, num_pivots=12, num_reducers=3)
        assert choice.config.num_pivots == 12
        assert choice.config.num_reducers == 3
        moved = dict(choice.chosen)
        assert "num_pivots" not in moved and "num_reducers" not in moved

    def test_fusion_always_armed_and_auto_tune_cleared(self, data):
        choice = tune("pgbj", data, data, k=3)
        assert choice.config.stage_fusion is True
        assert choice.config.auto_tune is False

    def test_describe_mentions_candidates(self, data):
        choice = tune("pgbj", data, data, k=3)
        assert "candidate plans priced" in choice.describe()


class TestAutoTunedBitIdentity:
    """auto_tune=True ≡ hand-building the config the tuner chose."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pgbj_across_engines(self, engine, data):
        choice = tune("pgbj", data, data, k=3, engine=engine)
        auto = run_join(
            "pgbj", data, data,
            get_join("pgbj").make_config(seed=5, k=3, engine=engine, auto_tune=True),
        )
        hand = run_join("pgbj", data, data, choice.config)
        assert fingerprint(auto) == fingerprint(hand)

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_every_join_serial(self, name, data, queries):
        choice = tune(name, data, data if name != "range-selection" else queries, k=3)
        extra = {"theta": 0.3} if name == "range-selection" else {}
        right = data if name != "range-selection" else queries
        auto = run_join(
            name, data, right,
            get_join(name).make_config(seed=5, k=3, auto_tune=True),
            **extra,
        )
        hand = run_join(name, data, right, choice.config, **extra)
        assert fingerprint(auto) == fingerprint(hand)


class TestFusionBitIdentity:
    """stage_fusion on ≡ off, per join: results, counters, accounting."""

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_fused_matches_default(self, name, data, queries):
        plain, _ = run_one(name, data, queries, stage_fusion=False)
        fused, _ = run_one(name, data, queries, stage_fusion=True)
        assert fingerprint(fused) == fingerprint(plain)


class TestPersistentCacheBitIdentity:
    """cold run ≡ warm (disk-served) run, per join, fresh cache objects."""

    @pytest.mark.parametrize("name", ALL_JOINS)
    def test_cold_then_warm(self, name, data, queries, tmp_path):
        cold, _ = run_one(name, data, queries, plan_cache_dir=str(tmp_path))
        warm, _ = run_one(name, data, queries, plan_cache_dir=str(tmp_path))
        assert fingerprint(warm) == fingerprint(cold)
        if name in ("pgbj", "pbj", "closest-pairs"):
            # these plans share the content-keyed partition stage
            assert list(Path(tmp_path).glob("*.plan.seg"))


    def test_an_entry_written_by_older_partitioning_code_does_not_hit(
        self, data, tmp_path, monkeypatch
    ):
        """The partition stage's key carries the job's code version: an entry
        persisted before the job's counters changed would otherwise serve its
        old ``distance_pairs`` verbatim."""

        def run_with_fresh_cache():
            cache = PlanCache(directory=tmp_path)
            config = PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache=cache)
            return cache, partition_stage_key(data, data, config, 12), run_join(
                "pgbj", data, data, config
            )

        current = partition_job.PARTITION_JOB_VERSION
        monkeypatch.setattr(partition_job, "PARTITION_JOB_VERSION", current - 1)
        old_cache, old_key, _ = run_with_fresh_cache()
        assert old_cache.disk_writes >= 1
        monkeypatch.undo()
        cache, key, cold = run_with_fresh_cache()
        assert key != old_key and current in key
        assert cache.disk_hits == 0 and cache.disk_writes >= 1
        warm_cache, _, warm = run_with_fresh_cache()
        assert warm_cache.disk_hits >= 1
        assert fingerprint(warm) == fingerprint(cold)


class TestSkewSplit:
    def test_bit_identical_results_and_pairs(self, skewed):
        base = run_join(
            "pgbj", skewed, skewed, PgbjConfig(k=4, num_pivots=16, seed=5)
        )
        split = run_join(
            "pgbj", skewed, skewed,
            PgbjConfig(k=4, num_pivots=16, seed=5, skew_split_threshold=0.3),
        )
        assert sorted(base.result.pairs()) == sorted(split.result.pairs())
        assert base.counters.value(PAIRS_GROUP, PAIRS_NAME) == split.counters.value(
            PAIRS_GROUP, PAIRS_NAME
        )
        assert split.counters.value(REPLICA_GROUP, REPLICA_NAME) >= base.counters.value(
            REPLICA_GROUP, REPLICA_NAME
        )

    def test_plan_skew_split_unit(self):
        class FakeStat:
            def __init__(self, count):
                self.count = count

        class FakeTable:
            def __init__(self, counts):
                self._counts = counts

            def partition_ids(self):
                return sorted(self._counts)

            def get(self, pid):
                return FakeStat(self._counts[pid])

        mapping = {0: 0, 1: 1, 2: 2, 3: 3}
        balanced = FakeTable({0: 100, 1: 100, 2: 100, 3: 100})
        heavy = FakeTable({0: 900, 1: 40, 2: 40, 3: 20})
        config = PgbjConfig(num_reducers=4, skew_split_threshold=0.5)
        assert plan_skew_split(balanced, mapping, config) == ({}, 4)
        subkeys, reducers = plan_skew_split(heavy, mapping, config)
        assert reducers > 4
        assert subkeys[0][0] == 0  # the heavy group keeps its key ...
        assert all(key >= 4 for key in subkeys[0][1:])  # ... sub-keys append
        disabled = PgbjConfig(num_reducers=4)  # threshold defaults to 0.0
        assert plan_skew_split(heavy, mapping, disabled) == ({}, 4)

    def test_max_ways_caps_the_split(self):
        class FakeStat:
            def __init__(self, count):
                self.count = count

        class FakeTable:
            def partition_ids(self):
                return [0, 1]

            def get(self, pid):
                return FakeStat({0: 10_000, 1: 10}[pid])

        config = PgbjConfig(
            num_reducers=4, skew_split_threshold=0.5, skew_split_max_ways=2
        )
        subkeys, reducers = plan_skew_split(FakeTable(), {0: 0, 1: 1}, config)
        assert len(subkeys[0]) == 2
        assert reducers == 5


@pytest.mark.skipif(
    not os.environ.get("REPRO_PLAN_CACHE_DIR"),
    reason="cross-invocation handshake only runs in the CI autotune leg",
)
def test_shared_plan_cache_dir_across_invocations(data):
    """CI autotune leg: invocation 1 seeds the shared dir, invocation 2
    must get disk hits and an identical outcome fingerprint."""
    cache_dir = Path(os.environ["REPRO_PLAN_CACHE_DIR"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    marker = cache_dir / "pgbj-outcome-fingerprint.txt"
    second_invocation = marker.exists()
    cache = PlanCache(directory=cache_dir)
    outcome = run_join(
        "pgbj", data, data,
        PgbjConfig(k=3, num_pivots=12, seed=5, plan_cache=cache),
    )
    printed = repr(fingerprint(outcome))
    if second_invocation:
        assert cache.disk_hits >= 1, "second invocation must be served from disk"
        assert marker.read_text() == printed, "cross-process fingerprints differ"
    else:
        assert cache.disk_writes >= 1
        marker.write_text(printed)
