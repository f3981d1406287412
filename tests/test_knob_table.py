"""The knob table is the contract.

Every execution knob is declared once, on its ``JoinConfig`` field
(``repro.joins.base.knob``); the CLI's flags, ``knobs_from_env`` (the bench
harness, the CI legs) and the README / ``repro info`` table are derived from
those declarations.  One suite, parametrised over the table, holds what the
per-knob cases used to: a knob that is declared is a field, a flag and — when
it names one — a variable, and all three spell the same value.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys

import numpy as np
import pytest

from repro import cli
from repro.bench.harness import run_algorithm
from repro.core import Dataset
from repro.joins import JoinConfig, PgbjConfig, available_joins, get_join
from repro.joins.base import (
    Knob,
    config_knobs,
    execution_knobs,
    knob,
    knob_table,
    knobs_from_env,
)
from repro.joins.registry import JOINS, JoinSpec, plan_identity
from repro.mapreduce import ChaosPlan

ROWS = execution_knobs()
WITH_ENV = [row for row in ROWS if row.env]


def by_name(row: Knob) -> str:
    return row.name

CHAOS_SPEC = "crash:rate=0.5:attempt=1;seed=4"


def sample(row: Knob) -> tuple[str, object]:
    """A valid non-default text for the row and the value it spells."""
    if row.is_switch:
        return "on", not row.default
    if row.choices:
        text = next(choice for choice in row.choices if choice != row.default)
        return text, text
    text = {int: "3", float: "2.5", str: "/tmp/knob"}.get(row.type, CHAOS_SPEC)
    return text, row.type(text)


def invalid(row: Knob) -> str | None:
    """A text the row must refuse (``None``: any text is a valid path)."""
    if row.is_switch:
        return "maybe"
    if row.choices:
        return "threads"
    return {int: "two", float: "soon", str: None}.get(row.type, "crash:rate")


def owner_of(row: Knob) -> Knob:
    """The row that fills ``row``'s field (itself, unless it is a modifier)."""
    return next(r for r in ROWS if r.field == row.field and r.attribute is None)


def resolved(knobs: dict, row: Knob):
    """What a folded knob dict says for the row."""
    value = knobs[row.field]
    return value if row.attribute is None else getattr(value, row.attribute)


def parse_join(*argv: str) -> dict:
    """``repro join <argv>`` as config keyword arguments."""
    args = cli._build_parser().parse_args(["join", *argv])
    return config_knobs(vars(args), ROWS)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    # a CI leg's variables must not leak into what these cases set
    for row in WITH_ENV:
        monkeypatch.delenv(row.env, raising=False)


def test_the_table_is_the_thirteen_knobs():
    assert [row.flag for row in ROWS] == [
        "--engine", "--workers", "--memory-budget", "--spill-dir",
        "--spill-codec", "--no-plan-concurrency",
        "--task-timeout", "--checkpoint-dir", "--auto-tune", "--fuse-stages",
        "--plan-cache-dir", "--chaos-spec", "--chaos-seed",
    ]  # fmt: skip
    assert sorted(row.env for row in WITH_ENV) == [
        "REPRO_AUTO_TUNE", "REPRO_CHAOS", "REPRO_CHAOS_SEED", "REPRO_ENGINE",
        "REPRO_MEMORY_BUDGET", "REPRO_PLAN_CACHE_DIR",
        "REPRO_SPILL_CODEC", "REPRO_STAGE_FUSION", "REPRO_WORKERS",
    ]  # fmt: skip


@pytest.mark.parametrize("row", ROWS, ids=by_name)
class TestEveryRow:
    def test_field_exists_with_the_declared_default(self, row):
        config = JoinConfig()
        assert row.field in {spec.name for spec in dataclasses.fields(JoinConfig)}
        if row.attribute is None:
            assert getattr(config, row.field) == row.default
        else:
            assert row.attribute in {
                spec.name for spec in dataclasses.fields(ChaosPlan)
            }

    def test_flag_parses_into_the_field(self, row):
        text, value = sample(row)
        owner = owner_of(row)
        argv = [] if owner is row else [owner.flag, sample(owner)[0]]
        argv += [row.flag] if row.is_switch else [row.flag, text]
        knobs = parse_join(*argv)
        assert resolved(knobs, row) == value
        # and the config takes it
        assert resolved(vars(JoinConfig(**knobs)), row) == value

    def test_unset_flag_and_variable_leave_the_knob_to_the_config(self, row):
        assert parse_join() == {}  # so every field default applies
        if row.env:
            for environ in ({}, {row.env: ""}, {row.env: "  "}):
                assert knobs_from_env(environ) == {}


@pytest.mark.parametrize("row", WITH_ENV, ids=by_name)
class TestEveryVariable:
    def test_variable_spells_the_flags_value(self, row, monkeypatch):
        text, value = sample(row)
        owner = owner_of(row)
        environ = {row.env: f" {text} ", owner.env: sample(owner)[0]}
        assert resolved(knobs_from_env(environ), row) == value
        for name, setting in environ.items():
            monkeypatch.setenv(name, setting)
        assert resolved(parse_join(), row) == value  # the CLI default

    def test_invalid_variable_raises_the_same_named_error(self, row, monkeypatch):
        bad = invalid(row)
        if bad is None:
            return  # a path: nothing the variable could say is invalid
        with pytest.raises(ValueError, match=f"^{row.env} ") as harness_error:
            knobs_from_env({row.env: bad})
        if row.choices:
            assert f"must be one of {', '.join(row.choices)}" in str(harness_error.value)
        monkeypatch.setenv(row.env, bad)
        with pytest.raises(ValueError) as cli_error:
            cli.main(["join", "--objects", "100"])
        assert str(cli_error.value) == str(harness_error.value)


class TestOneVariableOneMeaning:
    """``repro join`` and the bench harness read the same variables the same
    way; an explicit flag always wins."""

    ARGV = ["join", "--objects", "200", "--k", "2", "--num-reducers", "2", "--num-pivots", "6"]

    def test_engine_workers_and_budget_reach_repro_join(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "threads-pooled")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "4096")
        assert knobs_from_env() == {
            "engine": "threads-pooled", "max_workers": 2, "memory_budget": 4096,
        }  # fmt: skip
        assert cli.main(self.ARGV) == 0
        out = capsys.readouterr().out
        assert "engine               : threads-pooled (2 workers)" in out
        assert "spill activity" in out

    def test_explicit_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "threads-pooled")
        monkeypatch.setenv("REPRO_SPILL_CODEC", "zlib")
        assert cli.main([*self.ARGV, "--engine", "serial"]) == 0
        out = capsys.readouterr().out
        assert "engine               : serial" in out
        assert "spill codec          : zlib" in out

    def test_chaos_seed_variable_reseeds_on_both_surfaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", CHAOS_SPEC)
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        plan = dataclasses.replace(ChaosPlan.from_spec(CHAOS_SPEC), seed=7)
        assert knobs_from_env()["chaos"] == plan
        assert parse_join()["chaos"] == plan
        # each flag overrides its own variable only
        assert parse_join("--chaos-seed", "9")["chaos"].seed == 9
        assert parse_join("--chaos-spec", "delay:rate=0.1")["chaos"] == ChaosPlan.from_spec(
            "delay:rate=0.1", seed=7
        )

    def test_a_seed_without_a_spec_injects_nothing(self):
        assert knobs_from_env({"REPRO_CHAOS_SEED": "7"}) == {}
        assert parse_join("--chaos-seed", "7") == {}

    @pytest.mark.parametrize(
        "name, bad", [("REPRO_WORKERS", "two"), ("REPRO_ENGINE", "threads")]
    )
    def test_bad_value_fails_alike_in_join_and_harness(
        self, name, bad, monkeypatch, small_uniform
    ):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ValueError, match=name) as from_cli:
            cli.main(self.ARGV)
        with pytest.raises(ValueError, match=name) as from_harness:
            run_algorithm("pgbj", small_uniform, small_uniform, k=3, num_pivots=6)
        assert str(from_cli.value) == str(from_harness.value)

    def test_config_still_checks_the_range(self, monkeypatch):
        # the variable's text is the reader's business, its range the config's
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert knobs_from_env() == {"max_workers": 0}
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            JoinConfig(**knobs_from_env())


class TestOneEdit:
    """Adding a knob is one declaration: a throw-away config subclass with one
    tabled field shows up in the derived parser, env reader and table."""

    @dataclasses.dataclass
    class FrobConfig(JoinConfig):
        frobnication: int = knob(
            3, "--frobnication", "REPRO_FROBNICATION", type=int, help="how hard to frob"
        )

    def test_subclass_field_is_a_flag_a_variable_and_a_table_row(self, monkeypatch):
        monkeypatch.setitem(
            JOINS,
            "frob",
            JoinSpec(name="frob", config_class=self.FrobConfig, plan=get_join("broadcast").plan),
        )
        rows = cli._join_knobs()
        assert [row.flag for row in rows] == [row.flag for row in ROWS] + ["--frobnication"]

        def parse(*argv):  # a fresh parser: flag defaults read the environment
            args = cli._build_parser().parse_args(["join", *argv])
            return self.FrobConfig(**config_knobs(vars(args), rows)).frobnication

        assert parse() == 3
        assert parse("--frobnication", "5") == 5
        environ = {"REPRO_FROBNICATION": "8", "REPRO_ENGINE": "threads-pooled"}
        assert knobs_from_env(environ, self.FrobConfig) == {
            "engine": "threads-pooled",
            "frobnication": 8,
        }
        assert knobs_from_env(environ) == {"engine": "threads-pooled"}
        monkeypatch.setenv("REPRO_FROBNICATION", "8")
        assert parse() == 8
        assert "| `frobnication` | `--frobnication` | `REPRO_FROBNICATION` | `3` | never | `3` |" in (
            knob_table(self.FrobConfig())
        )
        with pytest.raises(ValueError, match="^REPRO_FROBNICATION "):
            knobs_from_env({"REPRO_FROBNICATION": "hard"}, self.FrobConfig)


class TestStructure:
    def test_knn_planners_do_not_respell_the_plan_tail(self):
        # one knn_outcome_assembler and one merge_stage, in block_framework
        for name in available_joins(kind="knn"):
            source = inspect.getsource(sys.modules[get_join(name).plan.__module__])
            assert "JoinOutcome(" not in source, name
            assert "def build_merge" not in source, name

    def test_metadata_does_not_leak_into_persisted_identities(self):
        # declaring knobs on the fields moved neither string; only adding or
        # removing a field does
        assert repr(PgbjConfig()) == (
            "PgbjConfig(k=10, num_reducers=4, metric_name='l2', seed=7, split_size=4096, "
            "engine='serial', max_workers=None, memory_budget=None, spill_dir=None, "
            "spill_codec='none', plan_concurrency=True, "
            "task_timeout=None, checkpoint_dir=None, auto_tune=False, stage_fusion=False, "
            "plan_cache_dir=None, num_pivots=64, pivot_selection='random', "
            "grouping='geometric', pivot_sample_size=8192, random_candidate_sets=5, "
            "kmeans_iterations=8, use_hyperplane_pruning=True, use_ring_pruning=True, "
            "skew_split_threshold=0.0, skew_split_max_ways=4)"
        )
        data = Dataset(np.arange(40.0).reshape(20, 2), name="d")
        # (the digest moves on purpose with the code version RESULTS_VERSION:
        # before it was part of the identity "005638942c3f2cf04318ca3f238cb610fe0b3aa3",
        # at version 2 "149dae963a323c334f21954e9706e632d37e0b75"; and with the
        # fields: at version 3 with the kernel-choice knob, since removed,
        # "223e2b1caa54d308ec1107f0f77a91abb4266359")
        assert (
            plan_identity("pgbj", data, data, PgbjConfig(), {})
            == "e8b524603d6edf8587e378e7c199c115d83872af"
        )
        # an injected chaos plan stays outside a config's value, as before
        assert JoinConfig(chaos=ChaosPlan()) == JoinConfig()
