"""PGBJ's block-per-task data flow against the per-cell one it replaced
(``tests/reference_pgbj.py``)."""

import functools

import numpy as np
import pytest

from repro.core import Dataset
from repro.datasets import expand_dataset, generate_forest, generate_osm
from repro.joins import PgbjConfig, run_join
from repro.joins.pgbj import GroupRoutingMapper
from repro.mapreduce.job import Context
from repro.mapreduce.types import RecordBlock
from tests.reference_pgbj import PerCellRoutingMapper, outcome_facts, pgbj_facts
from tests.test_plan_equivalence import env_params


def _self_join(make):
    return lambda: (make(),) * 2


def _distinct():
    rng = np.random.default_rng(4)
    return (
        Dataset(rng.random((150, 3)), ids=np.arange(1000, 1150)),
        Dataset(rng.random((400, 3))),
    )


#: name -> (datasets, config knobs); every split size leaves a map task whose
#: split straddles the R/S boundary
CASES = {
    "forest-x10-ties": (
        _self_join(lambda: expand_dataset(generate_forest(60, seed=1), 10)),
        dict(k=4, num_pivots=24, split_size=97),
    ),
    "osm-payloads": (
        _self_join(lambda: generate_osm(900, seed=2)),
        dict(k=3, num_pivots=30, split_size=257),
    ),
    "more-pivots-than-split-points": (
        _self_join(lambda: generate_forest(150, seed=5)),
        dict(k=5, num_pivots=64, split_size=16),
    ),
    "distinct-r-and-s": (_distinct, dict(k=6, num_pivots=20, split_size=97)),
    "skew-split-group": (
        _self_join(lambda: generate_osm(700, seed=7)),
        dict(k=4, num_pivots=16, split_size=128, skew_split_threshold=0.05, skew_split_max_ways=3),
    ),
}

#: what may differ between the two data flows
UNCOMPARED = ("blocks",)


def _config(case: str, **knobs) -> PgbjConfig:
    return PgbjConfig(num_reducers=9, seed=11, **{**CASES[case][1], **knobs})


def _comparable(facts: dict) -> dict:
    return {name: value for name, value in facts.items() if name not in UNCOMPARED}


@functools.cache
def _reference(case: str) -> dict:
    """The per-cell flow on the serial in-memory runtime."""
    r, s = CASES[case][0]()
    return pgbj_facts(r, s, _config(case), reference=True)


class TestBlockPerTaskMatchesPerCellReference:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(),
            dict(stage_fusion=True),
            dict(memory_budget=65536),
            dict(memory_budget=65536, stage_fusion=True),
            dict(memory_budget=64),
            dict(engine="processes-pooled", max_workers=2),
            dict(engine="processes-pooled", max_workers=2, memory_budget=65536, stage_fusion=True),
        ],
        ids=lambda knobs: ",".join(f"{key}={value}" for key, value in knobs.items()) or "default",
    )
    @pytest.mark.parametrize("case", CASES)
    def test_equal_to_reference(self, case, knobs, tmp_path):
        reference = _reference(case)
        r, s = CASES[case][0]()
        if "memory_budget" in knobs:
            knobs = dict(knobs, spill_dir=str(tmp_path))
        facts = pgbj_facts(r, s, _config(case, **knobs), reference=False)
        assert _comparable(facts) == _comparable(reference)
        assert len(facts["neighbors"]) == len(r)
        # partition-job output: one block per map task
        assert facts["blocks"][0] == len(facts["task_records"][0]) < reference["blocks"][0]

    @pytest.mark.parametrize("case", CASES)
    def test_unpatched_join_under_the_ci_legs_knobs(self, case):
        """``run_join`` itself (nothing swapped, its own ``assemble``), on
        the engine / spill budget the CI leg injects."""
        r, s = CASES[case][0]()
        config = _config(case, **env_params())
        facts = outcome_facts(run_join("pgbj", r, s, config))
        reference = _reference(case)
        assert facts == {name: reference[name] for name in facts}

    def test_skew_case_really_splits_a_group(self):
        reference = _reference("skew-split-group")
        assert max(reference["reduce_input"]) >= 9  # a sub-key past num_reducers
        unsplit = pgbj_facts(
            *CASES["skew-split-group"][0](),
            _config("skew-split-group", skew_split_threshold=0.0),
            reference=False,
        )
        assert unsplit["neighbors"] == reference["neighbors"]
        assert unsplit["shuffle_records"][1] < reference["shuffle_records"][1]

    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    def test_fewer_segments_under_a_64k_budget(self, engine, tmp_path):
        """Per-file cost is what the spill path pays: at most one segment per
        (map task, reduce key), where the per-cell flow flushed many runs."""
        data = generate_osm(3000, seed=3)
        config = PgbjConfig(
            k=5, num_reducers=9, num_pivots=60, split_size=1024, seed=11,
            memory_budget=65536, spill_dir=str(tmp_path),
        )
        reference = pgbj_facts(data, data, config, reference=True)
        pooled = config.with_changes(engine=engine, max_workers=2 if engine != "serial" else None)
        facts = pgbj_facts(data, data, pooled, reference=False)
        assert _comparable(facts) == _comparable(reference)
        map_tasks = len(facts["task_records"][2])
        assert facts["blocks"][1] <= map_tasks * 9 < reference["blocks"][1]


class TestRouteBlock:
    """The routing mapper alone, on a split that mixes R and S rows."""

    @staticmethod
    def _emissions(mapper_class, blocks, cache):
        ctx = Context("map-0", cache, num_reducers=5)
        mapper = mapper_class()
        mapper.setup(ctx)
        pairs = [pair for block in blocks for pair in mapper.map(0, block, ctx)]
        return pairs + list(mapper.cleanup(ctx)), ctx.counters.as_dict()

    @pytest.mark.parametrize("subkeys", ({}, {1: (1, 3, 4)}), ids=("plain", "skew-split"))
    def test_one_block_per_key_with_the_reference_rows(self, subkeys):
        rng = np.random.default_rng(8)
        rows, cells, groups = 240, 7, 3
        is_r, cell_of = rng.random(rows) < 0.4, rng.integers(0, cells, rows)
        order = np.lexsort((~is_r, cell_of))  # by cell, R before S: a partitioned split
        block = RecordBlock(
            is_r=is_r[order],
            object_ids=rng.permutation(rows).astype(np.int64),
            points=rng.random((rows, 2)),
            payloads=rng.integers(0, 50, rows),
            partition_ids=cell_of[order],
            pivot_distances=rng.random(rows),
        )
        per_cell = [sub for _, sub in block.split_by(block.partition_ids)]
        cache = {
            "partition_to_group": {cell: cell % groups for cell in range(cells)},
            "lb_group": rng.random((cells, groups)),
            "skew_subkeys": subkeys,
        }
        routed, counters = self._emissions(GroupRoutingMapper, [block], cache)
        expected, expected_counters = self._emissions(PerCellRoutingMapper, per_cell, cache)
        assert counters == expected_counters
        keys = [key for key, _ in routed]
        assert len(keys) == len(set(keys)) <= groups + 2
        assert len(expected) > 3 * len(routed)
        for key, sub in routed:
            reference = RecordBlock.gather(value for other, value in expected if other == key)
            assert np.array_equal(sub.object_ids, reference.object_ids)
            assert np.array_equal(sub.is_r, reference.is_r)
            assert sub.estimated_bytes() == reference.estimated_bytes()
        assert {key for key, _ in expected} == set(keys)

    def test_empty_split_emits_nothing(self):
        cache = {"partition_to_group": {}, "lb_group": np.zeros((2, 2)), "skew_subkeys": {}}
        ctx = Context("map-0", cache, num_reducers=2)
        mapper = GroupRoutingMapper()
        mapper.setup(ctx)
        assert list(mapper.cleanup(ctx)) == []
