"""The knob table is the contract.

Every execution knob is declared once, on its ``JoinConfig`` field
(``repro.joins.base.knob``); the CLI's flags, ``knobs_from_env`` (the bench
harness, the CI legs) and the README / ``repro info`` table are derived from
those declarations.  One suite, parametrised over the table, holds what the
per-knob cases used to: a knob that is declared is a field, a flag and — when
it names one — a variable, and all three spell the same value.  The table's
"affects results" column says ``never`` for every row; each row, set alone,
is run through every join to hold it to that.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys

import numpy as np
import pytest

from repro import cli
from repro.bench.harness import run_algorithm
from repro.core import Dataset
from repro.datasets import generate_forest
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
from tests.test_plan_equivalence import PAIRS, fingerprint, make_config, run_one, s_for

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


def spelled(row: Knob, directory) -> str:
    """``sample(row)``'s text, with a path row pointed under ``directory``."""
    return str(directory / row.field) if invalid(row) is None else sample(row)[0]


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


@pytest.fixture(scope="module")
def data():
    return generate_forest(200, seed=3)



@pytest.fixture(scope="module")
def default_runs(data):
    """Each join's fingerprint, per input shape, with every knob left at its
    default."""
    return functools.cache(
        lambda name, pair="self-join": fingerprint(run_one(name, data, s_for(pair, data))[0])
    )


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    # a CI leg's variables must not leak into what these cases set
    for row in WITH_ENV:
        monkeypatch.delenv(row.env, raising=False)


def test_the_table_is_the_eight_knobs():
    # twelve until --no-plan-concurrency, --checkpoint-dir and --fuse-stages
    # (with REPRO_STAGE_FUSION) went with the concurrent scheduler, the
    # checkpoint store and stage fusion: --plan-cache-dir resumes a join now;
    # nine until --spill-codec (with REPRO_SPILL_CODEC) went with spill
    # compression
    assert [row.flag for row in ROWS] == [
        "--engine", "--workers", "--memory-budget", "--spill-dir",
        "--task-timeout", "--plan-cache-dir", "--chaos-spec", "--chaos-seed",
    ]  # fmt: skip
    assert sorted(row.env for row in WITH_ENV) == [
        "REPRO_CHAOS", "REPRO_CHAOS_SEED", "REPRO_ENGINE",
        "REPRO_MEMORY_BUDGET", "REPRO_PLAN_CACHE_DIR", "REPRO_WORKERS",
    ]  # fmt: skip


#: the knobs retired with the concurrent scheduler, the checkpoint store,
#: stage fusion and spill compression: field -> (flag, a value the frozen
#: benchmark harness or an old script could still pass)
RETIRED = {
    "plan_concurrency": ("--no-plan-concurrency", False),
    "checkpoint_dir": ("--checkpoint-dir", "retired-checkpoints"),
    "stage_fusion": ("--fuse-stages", True),
    "spill_codec": ("--spill-codec", "zlib"),
}

CONFIG_CLASSES = sorted({spec.config_class for spec in JOINS.values()}, key=lambda c: c.__name__)


class TestRetiredKnobs:
    """No flag, variable or config field spells a retired knob any more, and
    ``make_config`` — which the frozen benchmark harness still hands
    ``stage_fusion``, ``checkpoint_dir`` and ``spill_codec`` — drops each
    without moving a result or writing a file."""

    @pytest.mark.parametrize("field", sorted(RETIRED))
    def test_flag_is_refused(self, field, capsys):
        flag, value = RETIRED[field]
        argv = [flag] if isinstance(value, bool) else [flag, value]
        with pytest.raises(SystemExit):
            parse_join(*argv)
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    @pytest.mark.parametrize("variable", ("REPRO_STAGE_FUSION", "REPRO_SPILL_CODEC"))
    def test_variable_is_not_read(self, variable, monkeypatch):
        monkeypatch.setenv(variable, "zlib" if variable == "REPRO_SPILL_CODEC" else "1")
        assert knobs_from_env() == {}
        assert parse_join() == {}

    @pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_not_a_config_field(self, config_class):
        fields = {spec.name for spec in dataclasses.fields(config_class)}
        assert not fields & set(RETIRED)
        # what the frozen harness reads: a class constant, outside the value
        assert config_class.plan_concurrency is True
        assert "plan_concurrency" not in repr(config_class())

    @pytest.mark.parametrize("field", sorted(RETIRED))
    @pytest.mark.parametrize("name", sorted(available_joins()))
    def test_make_config_drops_it(self, name, field, data, default_runs, tmp_path):
        value = RETIRED[field][1]
        if field == "checkpoint_dir":
            value = str(tmp_path / value)
        outcome, config = run_one(name, data, **{field: value})
        assert config == make_config(name)
        assert fingerprint(outcome) == default_runs(name)
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("name", sorted(available_joins()))
    def test_never_moves_a_result(self, row, name, pair, data, default_runs, tmp_path):
        owner = owner_of(row)
        argv = [] if owner is row else [owner.flag, spelled(owner, tmp_path)]
        argv += [row.flag] if row.is_switch else [row.flag, spelled(row, tmp_path)]
        knobs = parse_join(*argv)
        assert knobs  # the row is set, away from its default
        outcome, _ = run_one(name, data, s_for(pair, data), **knobs)
        assert fingerprint(outcome) == default_runs(name, pair)


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
        # the flag overrides its own variable; another variable still applies
        monkeypatch.setenv("REPRO_ENGINE", "threads-pooled")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert cli.main([*self.ARGV, "--engine", "serial"]) == 0
        assert "engine               : serial (2 workers)" in capsys.readouterr().out

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
        for name in available_joins():
            source = inspect.getsource(sys.modules[get_join(name).plan.__module__])
            assert "JoinOutcome(" not in source, name
            assert "def build_merge" not in source, name

    def test_metadata_does_not_leak_into_persisted_identities(self):
        # declaring knobs on the fields moved neither string; only adding or
        # removing a field does
        assert repr(PgbjConfig()) == (
            "PgbjConfig(k=10, num_reducers=4, metric_name='l2', seed=7, split_size=4096, "
            "engine='serial', max_workers=None, memory_budget=None, spill_dir=None, "
            "task_timeout=None, plan_cache_dir=None, num_pivots=64, pivot_selection='random', "
            "grouping='geometric', use_hyperplane_pruning=True, use_ring_pruning=True)"
        )
        data = Dataset(np.arange(40.0).reshape(20, 2), name="d")
        # (the digest moves on purpose with the code version RESULTS_VERSION:
        # before it was part of the identity "005638942c3f2cf04318ca3f238cb610fe0b3aa3",
        # at version 2 "149dae963a323c334f21954e9706e632d37e0b75"; and with the
        # fields: at version 3 with the kernel-choice knob, since removed,
        # "223e2b1caa54d308ec1107f0f77a91abb4266359", and without it
        # "e8b524603d6edf8587e378e7c199c115d83872af"; version 4 added the
        # self-join flag, "d38c2982f04ba2de6ec4582c9edf3a090a2b6ae2"; version 5
        # "248b68c81b6a99817373ecc1757a3077ca853e46"; version 6 dropped the
        # random selector's candidate-set count,
        # "ff65f31b0b6ff2af9c44259355cdf695e5333e09"; version 7 counts the
        # kernel's anchor distances, "41a6fec7af217894c5581bc4d5a6e7ce73f34a1c";
        # version 8 emits a self-join's object once, as a row of both roles,
        # "9069cc67fa45bcda9849cfc9567b0492962803ae"; still version 8, the
        # auto-tuning knob's field was removed,
        # "e2d344dfec9291253e421e31e57208f47514428b"; version 9 chooses the
        # partitioner's anchor count from the pivot matrix,
        # "c10a6a0fa41f42aa166cefec01c7d3cc971bc9f9"; version 10 ships anchor
        # codes and an int32 cell id, "e64f909c9c3e2a971c6b44d01c578700fca564d9";
        # version 11 ships coordinates in the narrowest exact dtype,
        # "34d6a829489cffd37691e287cf86fc1b402796e7"; version 12 ships codes of
        # every anchor and ids and cell ids in their narrowest dtypes,
        # "c8cef590313aa0b35ad5a9f23846ffe41ce0cfd1"; version 13 judges each
        # (row, cell) pair by the cell's anchor ranges,
        # "09f7690e44ad6e5bf7572ceb255a51e52ac4a58a"; still version 13, the
        # plan_concurrency, checkpoint_dir and stage_fusion fields were removed
        # and plan_cache_dir took checkpoint_dir's place outside the identity,
        # "3b590b4e839a5e3f3d7218fffb7619710bbc8dd4"; version 14 scans the
        # first cells in bound-ordered rounds and counts own-cell pairs apart,
        # "3745659c62fd45596b9e40a5a4b2e959b638a15a"; version 15 computes a
        # self-join's own-cell distances once,
        # "315edc80b7b2d00bebf93a7418c0dffcf3306a88"; version 16 carries
        # anchor hulls in T_R and routes S copies by them,
        # "2038724e07575643cf2ca1b0216eb55a1f08a36e"; version 17 refines the
        # grouping by counted S copies, "d6ec12099521df7da4055beb71ab80c0e140b1dc";
        # version 18 ships columnar summary tables,
        # "be0b8924a4c16bc491bd03a6851fd5153ec9ccaf"; version 19 ships a
        # z-order self-join's objects once per curve copy,
        # "3ddc86324120e1c594995b1916cee3cc62ef53a1"; version 20 swaps cells
        # between groups and ranges each (R cell, S cell) pair by its
        # admitted objects, "f91cf7ccba88a02778f284b0b60706994d7f7851"; still
        # version 20, the spill_codec field and the planner's extra arguments
        # left the identity, "b4c4f156812ecbfb06ea472d8ae3a573b40d52c0";
        # version 21 computes each mirrored pair of a z-order self-join once,
        # "66d5a61a9eb06ea8a847a721ea7da625d91f747f"; version 22 ranges each
        # (row, S cell) pair by all the cell's objects and bounds |r, p_j| by
        # the own pivot alone, "853402ec5b902f831dea010e1f61b7f54a1b2f4f";
        # version 23 folds a z-order join's lists into its last curve copy
        # and gives the own pivot's ring bound a relative slack,
        # "4df6653997184faa0a5a161300488edb833db4b4"; version 24 dropped the
        # sampling, k-means and skew split fields, which only tests set)
        assert (
            plan_identity("pgbj", data, data, PgbjConfig())
            == "289be389451ebe2656f09952bf748a9d5f9e7721"
        )
        # an injected chaos plan stays outside a config's value, as before
        assert JoinConfig(chaos=ChaosPlan()) == JoinConfig()


#: the settable options of each config class beyond JoinConfig's, and of
#: LocalRuntime: an option that only tests would set is a module constant
#: instead (the sampling, skew split, R-tree and curve fields; the retry and
#: speculation parameters), so adding one back is a decision this pin names
OPTIONS = {
    "PgbjConfig": (
        "num_pivots", "pivot_selection", "grouping", "use_hyperplane_pruning",
        "use_ring_pruning",
    ),
    "BlockJoinConfig": ("num_pivots", "pivot_selection"),
    "ZOrderConfig": ("num_shifts", "candidates_per_side"),
}

#: the one value every program gave each retired option, now a module
#: constant that the programs read
CONSTANTS = {
    "repro.mapreduce.runtime.MAX_ATTEMPTS": 4,
    "repro.mapreduce.runtime.RETRY_BACKOFF_S": 0.02,
    "repro.mapreduce.runtime.RETRY_BACKOFF_CAP_S": 1.0,
    "repro.mapreduce.runtime.SPECULATION_FACTOR": 4.0,
    "repro.mapreduce.runtime.SPECULATION_FLOOR_S": 2.0,
    "repro.pivots.base.PIVOT_SAMPLE_SIZE": 8192,
    "repro.pivots.base.KMEANS_ITERATIONS": 8,
    "repro.joins.hbrj.RTREE_CAPACITY": 32,
    "repro.joins.zorder.CURVE_BITS": 16,
    "repro.joins.zorder.BOUNDARY_SAMPLE_SIZE": 1024,
}


class TestOptionNames:
    @pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda c: c.__name__)
    def test_config_fields(self, config_class):
        base = tuple(spec.name for spec in dataclasses.fields(JoinConfig))
        fields = tuple(spec.name for spec in dataclasses.fields(config_class))
        assert fields == base + OPTIONS.get(config_class.__name__, ())

    def test_local_runtime_parameters(self):
        from repro.mapreduce import LocalRuntime

        assert tuple(inspect.signature(LocalRuntime).parameters) == (
            "fault_injector", "engine", "max_workers", "executor", "shuffle",
            "memory_budget", "spill_dir", "task_timeout",
        )

    @pytest.mark.parametrize("path", CONSTANTS)
    def test_constant_keeps_the_value_programs_used(self, path):
        module, name = path.rsplit(".", 1)
        assert getattr(importlib.import_module(module), name) == CONSTANTS[path]
