"""Fault-tolerance layer tests: chaos plans, recovery, speculation, checkpoints.

The layer's central contract is *bit-identical results under chaos*: a run
with injected crashes, stragglers, killed workers, corrupt or deleted
segments must produce exactly the outputs, counters and shuffle accounting
of a fault-free run — on every engine.  The timing-dependent robustness
counters (``speculative_wins``) are deliberately outside that contract.
"""

from __future__ import annotations

import pickle

import pytest

from repro.mapreduce import (
    ChaosAction,
    ChaosPlan,
    ChaosRule,
    JobGraph,
    LocalRuntime,
    PlanScheduler,
    StageCheckpointStore,
    TaskFailure,
    get_executor,
    resolve_chaos,
)
from tests.test_engines import job_fingerprint, norm_job, norm_splits

ALL_ENGINES = ("serial", "threads-pooled", "processes-pooled")
#: in-process engines — cheap enough for every chaos mix
FAST_ENGINES = ("serial", "threads-pooled")


def reference_fingerprint():
    with LocalRuntime() as runtime:
        return job_fingerprint(runtime.run(norm_job(), norm_splits(16, 4)))


def chaos_run(chaos, engine="serial", **runtime_kwargs):
    with LocalRuntime(fault_injector=chaos, engine=engine, **runtime_kwargs) as rt:
        result = rt.run(norm_job(), norm_splits(16, 4))
    return result


# -- rule and plan semantics ---------------------------------------------------


class TestChaosRule:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosRule(action="explode")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ChaosRule(action="crash", rate=1.5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosRule(action="crash", kind="shuffle")

    def test_bad_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            ChaosRule(action="crash", attempt=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            ChaosRule(action="delay", delay_s=-1.0)

    def test_selectors(self):
        rule = ChaosRule(
            action="crash", kind="map", job="word", task="m-0000", attempt=2
        )
        assert rule.matches("wordcount", "map", "wc-m-00001", 2)
        assert not rule.matches("wordcount", "reduce", "wc-m-00001", 2)
        assert not rule.matches("other", "map", "x-m-00001", 2)
        assert not rule.matches("wordcount", "map", "wc-r-00001", 2)
        assert not rule.matches("wordcount", "map", "wc-m-00001", 1)


class TestChaosPlan:
    def test_rate_one_always_fires(self):
        plan = ChaosPlan(rules=(ChaosRule(action="crash"),), seed=7)
        action = plan.attempt_action("j", "map", "j-m-00000", 1)
        assert action == ChaosAction(action="crash", delay_s=0.05, rule_index=0)

    def test_rate_zero_never_fires(self):
        plan = ChaosPlan(rules=(ChaosRule(action="crash", rate=0.0),), seed=7)
        assert plan.attempt_action("j", "map", "j-m-00000", 1) is None

    def test_decisions_are_pure_functions_of_identity(self):
        plan = ChaosPlan(rules=(ChaosRule(action="crash", rate=0.5),), seed=3)
        first = [plan.attempt_action("j", "map", f"j-m-{i:05d}", 1) for i in range(40)]
        # same queries in reverse order: identical answers (no hidden RNG state)
        second = [
            plan.attempt_action("j", "map", f"j-m-{i:05d}", 1)
            for i in reversed(range(40))
        ]
        assert first == list(reversed(second))
        fired = sum(1 for action in first if action is not None)
        assert 0 < fired < 40  # a fair-ish coin at rate 0.5

    def test_seed_changes_decisions(self):
        rules = (ChaosRule(action="crash", rate=0.5),)
        a = ChaosPlan(rules=rules, seed=1)
        b = ChaosPlan(rules=rules, seed=2)
        decisions_a = [a.attempt_action("j", "map", f"t{i}", 1) for i in range(64)]
        decisions_b = [b.attempt_action("j", "map", f"t{i}", 1) for i in range(64)]
        assert decisions_a != decisions_b

    def test_first_matching_rule_wins(self):
        plan = ChaosPlan(
            rules=(
                ChaosRule(action="delay", delay_s=0.5),
                ChaosRule(action="crash"),
            )
        )
        action = plan.attempt_action("j", "map", "t", 1)
        assert action.action == "delay" and action.rule_index == 0

    def test_attempt_rules_skip_segment_queries_and_vice_versa(self):
        plan = ChaosPlan(
            rules=(ChaosRule(action="corrupt"), ChaosRule(action="delay"))
        )
        assert plan.attempt_action("j", "map", "t", 1).action == "delay"
        assert plan.segment_action("j", "map", "t", 1) == "corrupt"

    def test_segment_choice_in_range_and_deterministic(self):
        plan = ChaosPlan(seed=5)
        choices = {plan.segment_choice("t", 1, 4) for _ in range(10)}
        assert len(choices) == 1 and choices.pop() in range(4)
        assert plan.segment_choice("t", 1, 1) == 0
        assert plan.segment_choice("t", 1, 0) == 0


class TestSpecGrammar:
    def test_parse_full_spec(self):
        plan = ChaosPlan.from_spec(
            "crash:rate=0.2:kind=map;delay:rate=0.1:delay=0.25:task=m-000;"
            "corrupt:rate=0.05:attempt=1;seed=42"
        )
        assert plan.seed == 42
        assert [r.action for r in plan.rules] == ["crash", "delay", "corrupt"]
        assert plan.rules[0].rate == 0.2 and plan.rules[0].kind == "map"
        assert plan.rules[1].delay_s == 0.25 and plan.rules[1].task == "m-000"
        assert plan.rules[2].attempt == 1

    def test_explicit_seed_overrides_spec_seed(self):
        assert ChaosPlan.from_spec("crash;seed=9", seed=3).seed == 3

    def test_describe_roundtrip(self):
        spec = "crash:rate=0.2;delay:rate=0.1:delay=0.25;corrupt:attempt=1;seed=42"
        plan = ChaosPlan.from_spec(spec)
        assert ChaosPlan.from_spec(plan.describe()) == plan

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            ChaosPlan.from_spec("crash:rate")

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos selector"):
            ChaosPlan.from_spec("crash:frequency=2")

    def test_bad_number_rejected(self):
        with pytest.raises(ValueError, match="bad number"):
            ChaosPlan.from_spec("crash:rate=lots")


class TestResolveChaos:
    def test_none_passthrough(self):
        assert resolve_chaos(None) is None

    def test_plan_passthrough(self):
        plan = ChaosPlan()
        assert resolve_chaos(plan) is plan

    def test_plan_shaped_object_passthrough(self):
        class Scripted:
            def attempt_action(self, job_name, kind, task_id, attempt):
                return ChaosAction(action="crash") if attempt == 1 else None

            def segment_action(self, job_name, kind, task_id, attempt):
                return None

            def segment_choice(self, task_id, attempt, count):
                return 0

        scripted = Scripted()
        assert resolve_chaos(scripted) is scripted
        result = chaos_run(scripted)
        assert job_fingerprint(result) == reference_fingerprint()
        assert all(t.attempts == 2 for t in result.stats.map_tasks)

    @pytest.mark.parametrize("injector", (42, lambda *a: True), ids=("int", "callable"))
    def test_anything_else_rejected_naming_what_is_accepted(self, injector):
        # the bare (kind, task_id, attempt) -> bool callable is no longer a form
        for build in (
            lambda: resolve_chaos(injector),
            lambda: LocalRuntime(fault_injector=injector),
        ):
            with pytest.raises(TypeError, match="fault_injector must be None or a ChaosPlan"):
                build()


# -- structured failures -------------------------------------------------------


class TestTaskFailure:
    def test_exhaustion_names_job_task_and_cause(self):
        chaos = ChaosPlan(rules=(ChaosRule(action="crash", task="m-00001"),))
        with pytest.raises(TaskFailure) as info:
            chaos_run(chaos, max_attempts=2)
        error = info.value
        assert error.job_name == "norms"
        assert error.task_id == "norms-m-00001"
        assert error.kind == "map"
        assert error.attempts == 2
        assert "after 2 attempts" in str(error)
        assert isinstance(error.__cause__, TaskFailure)  # chains the root cause

    def test_pickle_roundtrip_keeps_structured_fields(self):
        error = TaskFailure(
            "boom", job_name="j", task_id="j-m-00000", kind="map", attempts=3
        )
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == "boom"
        assert (clone.job_name, clone.task_id, clone.kind, clone.attempts) == (
            "j",
            "j-m-00000",
            "map",
            3,
        )


# -- bit-identical results under chaos, across engines -------------------------


class TestChaosEquivalence:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_crash_chaos_matches_fault_free(self, engine):
        chaos = ChaosPlan.from_spec("crash:rate=0.4:attempt=1;seed=11")
        result = chaos_run(chaos, engine=engine)
        assert job_fingerprint(result) == reference_fingerprint()
        assert any(t.attempts == 2 for t in result.stats.map_tasks)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_delay_chaos_matches_fault_free(self, engine):
        chaos = ChaosPlan.from_spec("delay:rate=0.3:delay=0.01;seed=2")
        result = chaos_run(chaos, engine=engine)
        assert job_fingerprint(result) == reference_fingerprint()

    @pytest.mark.parametrize("speculation", (True, False), ids=("futures", "barrier"))
    @pytest.mark.parametrize("engine", ("serial", "processes-pooled"))
    def test_kill_chaos_matches_fault_free(self, engine, speculation):
        # kills worker processes on the process engine; degrades to a crash on
        # the others — either way the retried run converges bit-identically,
        # whether the scheduler watches the futures itself (speculation on)
        # or takes the batch through run_tasks' barrier (speculation off)
        chaos = ChaosPlan.from_spec("kill:rate=1.0:attempt=1:kind=map;seed=6")
        workers = 2 if engine == "processes-pooled" else None  # force real workers
        with get_executor(engine, max_workers=workers) as executor:
            result = chaos_run(chaos, executor=executor, speculation=speculation)
            breaks = getattr(executor, "_pool_breaks", 0)
        assert job_fingerprint(result) == reference_fingerprint()
        assert all(t.attempts == 2 for t in result.stats.map_tasks)
        # one break per run, noted once on either path, and the retry round
        # (and the reduce phase) ran on the rebuilt pool
        assert breaks == (1 if engine == "processes-pooled" else 0)

    @pytest.mark.parametrize("engine", ("threads-pooled", "processes-pooled"))
    def test_speculation_off_is_bit_identical_under_mixed_chaos(self, tmp_path, engine):
        runs = []
        for speculation in (True, False):
            result = chaos_run(
                ChaosPlan.from_spec(self.MIXED),
                engine=engine,
                max_workers=2,
                memory_budget=0,
                spill_dir=str(tmp_path / str(speculation)),
                speculation=speculation,
            )
            runs.append(
                (job_fingerprint(result), [t.attempts for t in result.stats.map_tasks])
            )
        assert runs[0] == runs[1]
        assert runs[0][0] == reference_fingerprint()

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_corrupt_chaos_recovers_bit_identically(self, tmp_path, engine):
        chaos = ChaosPlan.from_spec("corrupt:rate=1.0:attempt=1;seed=3")
        result = chaos_run(
            chaos, engine=engine, memory_budget=0, spill_dir=str(tmp_path)
        )
        assert job_fingerprint(result) == reference_fingerprint()
        assert result.stats.checksum_failures > 0
        assert result.stats.recovered_tasks > 0
        assert result.stats.spill_files_deleted > 0

    def test_delete_chaos_recovers_bit_identically(self, tmp_path):
        chaos = ChaosPlan.from_spec("delete:rate=0.5:attempt=1;seed=9")
        result = chaos_run(chaos, memory_budget=0, spill_dir=str(tmp_path))
        assert job_fingerprint(result) == reference_fingerprint()
        assert result.stats.recovered_tasks > 0
        assert result.stats.checksum_failures == 0  # deletions, not CRC errors

    MIXED = "crash:rate=0.3:attempt=1;delay:rate=0.2:delay=0.01;" \
            "corrupt:rate=0.3:attempt=1;seed=1234"

    def test_mixed_chaos_identical_across_engines(self, tmp_path):
        spec = self.MIXED
        fingerprints = []
        for engine in FAST_ENGINES:
            chaos = ChaosPlan.from_spec(spec)
            result = chaos_run(
                chaos,
                engine=engine,
                memory_budget=0,
                spill_dir=str(tmp_path / engine),
            )
            fingerprints.append(job_fingerprint(result))
        assert fingerprints[0] == reference_fingerprint()
        assert all(fp == fingerprints[0] for fp in fingerprints)


class TestRetryExhaustionParity:
    def test_every_engine_raises_the_same_typed_error(self):
        """Satellite: at ``max_attempts`` all three engines surface one typed
        error with identical structured fields — no engine leaks its own
        pool exception instead."""
        chaos = ChaosPlan(rules=(ChaosRule(action="crash", task="m-00001"),))
        observed = []
        for engine in ALL_ENGINES:
            with pytest.raises(TaskFailure) as info:
                chaos_run(chaos, engine=engine, max_attempts=2)
            error = info.value
            observed.append(
                (error.job_name, error.task_id, error.kind, error.attempts, str(error))
            )
        assert all(entry == observed[0] for entry in observed)
        assert observed[0][:4] == ("norms", "norms-m-00001", "map", 2)


# -- timeouts and speculation --------------------------------------------------


class TestSpeculation:
    def test_task_timeout_validated(self):
        with pytest.raises(ValueError, match="task_timeout"):
            LocalRuntime(task_timeout=0)

    def test_straggler_loses_to_speculative_duplicate(self):
        # one map task sleeps ~1s; the duplicate (which bypasses chaos)
        # finishes in milliseconds and must win
        chaos = ChaosPlan(
            rules=(
                ChaosRule(
                    action="delay", task="m-00000", attempt=1, delay_s=1.0, kind="map"
                ),
            )
        )
        result = chaos_run(
            chaos,
            engine="threads-pooled",
            max_workers=4,  # speculation needs real concurrency, not CPU count
            speculation_floor_s=0.05,
            speculation_factor=4.0,
        )
        assert job_fingerprint(result) == reference_fingerprint()
        assert result.stats.speculative_wins >= 1

    def test_speculation_off_still_converges(self):
        chaos = ChaosPlan(
            rules=(
                ChaosRule(
                    action="delay", task="m-00000", attempt=1, delay_s=0.2, kind="map"
                ),
            )
        )
        result = chaos_run(
            chaos, engine="threads-pooled", max_workers=4, speculation=False
        )
        assert job_fingerprint(result) == reference_fingerprint()
        assert result.stats.speculative_wins == 0

    def test_serial_engine_never_speculates(self):
        result = chaos_run(None, engine="serial", speculation_floor_s=0.0)
        assert job_fingerprint(result) == reference_fingerprint()
        assert result.stats.speculative_wins == 0


# -- stage checkpoint/resume ---------------------------------------------------


def job_stage(graph, name, deps=(), key=None):
    return graph.stage(
        name, lambda ctx: (norm_job(), norm_splits(16, 4)), deps=deps, key=key
    )


def chain_graph():
    graph = JobGraph("chain")
    a = job_stage(graph, "a")
    b = job_stage(graph, "b", deps=(a,), key=("b", 1))
    c = job_stage(graph, "c", deps=(b,))
    return graph, (a, b, c)


class TestStageCheckpointStore:
    def run_reference(self):
        with LocalRuntime() as runtime:
            return runtime.run(norm_job(), norm_splits(16, 4))

    def test_save_load_roundtrip_is_bit_identical(self, tmp_path):
        store = StageCheckpointStore(tmp_path)
        graph, (a, _, _) = chain_graph()
        result = self.run_reference()
        path = store.save(a, result)
        assert path is not None and path.exists()
        restored = store.load(a)
        assert job_fingerprint(restored) == job_fingerprint(result)
        assert restored.job_name == result.job_name
        assert [t.attempts for t in restored.stats.map_tasks] == [
            t.attempts for t in result.stats.map_tasks
        ]

    def test_missing_checkpoint_is_none(self, tmp_path):
        graph, (a, _, _) = chain_graph()
        assert StageCheckpointStore(tmp_path).load(a) is None

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        store = StageCheckpointStore(tmp_path)
        graph, (a, _, _) = chain_graph()
        path = store.save(a, self.run_reference())
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last entry's body
        path.write_bytes(bytes(data))
        assert store.load(a) is None  # CRC catches it; the stage re-runs

    def test_checkpoint_for_other_stage_identity_is_ignored(self, tmp_path):
        store = StageCheckpointStore(tmp_path)
        graph = JobGraph("g")
        same_name_a = job_stage(graph, "x", key=("k", 1))
        same_name_b = job_stage(graph, "y", key=("k", 2))
        store.save(same_name_a, self.run_reference())
        assert store.load(same_name_b) is None

    def test_map_only_result_roundtrip(self, tmp_path):
        from repro.mapreduce import MapReduceJob

        job = norm_job()
        map_only = MapReduceJob(name="m", mapper_factory=job.mapper_factory)
        with LocalRuntime() as runtime:
            result = runtime.run(map_only, norm_splits(16, 4))
        assert result.outputs_by_reducer is None
        store = StageCheckpointStore(tmp_path)
        graph = JobGraph("g")
        stage = job_stage(graph, "m")
        store.save(stage, result)
        restored = store.load(stage)
        assert restored.outputs == result.outputs
        assert restored.outputs_by_reducer is None


class TestPlanResume:
    def test_interrupted_plan_resumes_from_last_finished_stage(self, tmp_path):
        reference_graph, reference_stages = chain_graph()
        with LocalRuntime() as runtime:
            reference = PlanScheduler(runtime).execute(reference_graph)

        boom = {"armed": True}

        def exploding_builder(ctx):
            if boom["armed"]:
                raise RuntimeError("simulated kill")
            return norm_job(), norm_splits(16, 4)

        graph, stages = chain_graph()
        graph.stage("d", exploding_builder, deps=(stages[2],))
        with LocalRuntime() as runtime:
            with pytest.raises(RuntimeError, match="simulated kill"):
                PlanScheduler(runtime, checkpoint_dir=tmp_path).execute(graph)

        # "restart the process": a fresh graph, scheduler and runtime
        boom["armed"] = False
        graph2, stages2 = chain_graph()
        d2 = graph2.stage("d", exploding_builder, deps=(stages2[2],))
        with LocalRuntime() as runtime:
            resumed = PlanScheduler(runtime, checkpoint_dir=tmp_path).execute(graph2)
        for stage in stages2:
            assert resumed.execution_of(stage).from_checkpoint
        assert not resumed.execution_of(d2).from_checkpoint
        assert resumed.checkpointed_stage_names() == ["a", "b", "c"]
        for ref_stage, res_stage in zip(reference_stages, stages2):
            assert job_fingerprint(reference.result_of(ref_stage)) == job_fingerprint(
                resumed.result_of(res_stage)
            )

    def test_checkpoints_written_for_every_completed_stage(self, tmp_path):
        graph, stages = chain_graph()
        with LocalRuntime() as runtime:
            PlanScheduler(runtime, checkpoint_dir=tmp_path).execute(graph)
        store = StageCheckpointStore(tmp_path)
        for stage in stages:
            assert store.path_for(stage).exists()

    def test_no_checkpoint_dir_means_no_files(self, tmp_path):
        graph, _ = chain_graph()
        with LocalRuntime() as runtime:
            PlanScheduler(runtime).execute(graph)
        assert list(tmp_path.iterdir()) == []


class TestCheckpointDirReuse:
    """One ``--checkpoint-dir``, two different joins: the second must never
    be served the first one's stages (it used to print the k=3 answer for
    k=7).  Same join again: resumed from the directory, bit-identical."""

    @staticmethod
    def run(directory, data=None, **knobs):
        from repro.datasets import generate_forest
        from repro.joins import PgbjConfig, run_join

        data = data if data is not None else generate_forest(200, seed=3)
        config = PgbjConfig(
            **{
                "k": 3, "num_reducers": 3, "num_pivots": 8, "split_size": 64,
                "checkpoint_dir": str(directory), **knobs,
            }
        )
        return run_join("pgbj", data, data, config)

    @pytest.mark.parametrize(
        "change",
        [{"k": 7}, {"num_pivots": 16}, {"metric_name": "l1"}, {"data_seed": 4}],
        ids=lambda change: next(iter(change)),
    )
    def test_changed_join_reruns_instead_of_serving_stale_stages(self, tmp_path, change):
        from repro.datasets import generate_forest
        from tests.test_engines import outcome_fingerprint

        change = dict(change)
        data = (
            generate_forest(200, seed=change.pop("data_seed"))
            if "data_seed" in change
            else None
        )
        self.run(tmp_path)  # fills the directory with the base join's stages
        files_after_first = set(tmp_path.iterdir())
        reused = self.run(tmp_path, data=data, **change)
        fresh = self.run(tmp_path / "fresh", data=data, **change)
        assert outcome_fingerprint(reused) == outcome_fingerprint(fresh)
        assert reused.result.total_pairs() == 200 * change.get("k", 3)
        # the second join wrote its own checkpoints next to the first's
        assert len(set(tmp_path.iterdir()) - files_after_first - {tmp_path / "fresh"}) == 2

    def test_same_join_resumes_from_the_directory(self, tmp_path, monkeypatch):
        from tests.test_engines import outcome_fingerprint

        first = self.run(tmp_path)
        files = sorted(tmp_path.iterdir())
        ran = []
        original = LocalRuntime.run
        monkeypatch.setattr(
            LocalRuntime, "run",
            lambda self, job, splits: ran.append(job.name) or original(self, job, splits),
        )
        again = self.run(tmp_path)
        assert ran == []  # every stage restored, no job executed
        assert outcome_fingerprint(again) == outcome_fingerprint(first)
        assert sorted(tmp_path.iterdir()) == files

    def test_unfingerprinted_plan_refused(self, tmp_path):
        from repro.datasets import generate_forest
        from repro.joins import PgbjConfig
        from repro.joins.pgbj import plan_pgbj
        from repro.joins.registry import execute_join_plan

        data = generate_forest(60, seed=1)
        config = PgbjConfig(k=2, num_pivots=4, checkpoint_dir=str(tmp_path))
        with pytest.raises(ValueError, match="plan identity"):
            execute_join_plan(plan_pgbj(data, data, config), config)

    def test_identity_moves_with_every_config_field_and_dataset(self):
        import dataclasses

        from repro.datasets import generate_forest
        from repro.joins import PgbjConfig
        from repro.joins.registry import plan_identity

        data = generate_forest(50, seed=1)
        base = PgbjConfig()
        reference = plan_identity("pgbj", data, data, base, {})
        assert plan_identity("pgbj", data, data, PgbjConfig(), {}) == reference
        assert plan_identity("pbj", data, data, base, {}) != reference
        assert plan_identity("pgbj", data, generate_forest(50, seed=2), base, {}) != reference
        assert plan_identity("pgbj", data, data, base, {"theta": 0.5}) != reference
        moved = {
            "k": 11, "num_reducers": 5, "metric_name": "l1", "seed": 8,
            "split_size": 100, "engine": "threads-pooled", "max_workers": 3,
            "memory_budget": 64, "spill_dir": "/tmp/x", "kernel_provider": "numpy",
            "spill_codec": "zlib", "plan_concurrency": False, "task_timeout": 9.0,
            "auto_tune": True, "stage_fusion": True, "plan_cache_dir": "/tmp/y",
            "num_pivots": 65, "pivot_selection": "farthest", "grouping": "greedy",
            "pivot_sample_size": 100, "random_candidate_sets": 6,
            "kmeans_iterations": 9, "use_hyperplane_pruning": False,
            "use_ring_pruning": False, "skew_split_threshold": 0.5,
            "skew_split_max_ways": 5,
        }
        comparing = {
            spec.name for spec in dataclasses.fields(base)
            if spec.compare and spec.name != "checkpoint_dir"
        }
        assert comparing == set(moved)  # a new knob must be added here too
        for name, value in moved.items():
            changed = base.with_changes(**{name: value})
            assert plan_identity("pgbj", data, data, changed, {}) != reference, name
        assert (
            plan_identity("pgbj", data, data, base.with_changes(checkpoint_dir="/d"), {})
            == reference
        )

    @pytest.mark.parametrize(
        "change",
        [{"num_shifts": 3}, {"bits": 1}, {"candidates_per_side": 1}, {"sample_size": 7}],
        ids=lambda change: next(iter(change)),
    )
    def test_changed_zorder_knob_reruns_instead_of_serving_stale_stages(
        self, tmp_path, change
    ):
        """``ZOrderConfig``'s own knobs used to be plain attributes, invisible
        to the plan identity: a ``num_shifts=3`` run in a ``num_shifts=1``
        run's directory got the first join's answer back."""
        from repro.datasets import generate_forest
        from repro.joins import ZOrderConfig, run_join
        from tests.test_engines import outcome_fingerprint

        data = generate_forest(200, seed=3)

        def run(directory, **knobs):
            config = ZOrderConfig(
                **{
                    "k": 3, "num_reducers": 6, "split_size": 64, "num_shifts": 1,
                    "checkpoint_dir": str(directory), **knobs,
                }
            )
            return run_join("zorder", data, data, config)

        base = run(tmp_path)
        files_after_first = set(tmp_path.iterdir())
        reused = run(tmp_path, **change)
        fresh = run(tmp_path / "fresh", **change)
        assert outcome_fingerprint(reused) == outcome_fingerprint(fresh)
        assert outcome_fingerprint(reused) != outcome_fingerprint(base)
        assert len(set(tmp_path.iterdir()) - files_after_first - {tmp_path / "fresh"}) == 2

    #: non-default values for the comparing fields each subclass adds
    SUBCLASS_KNOBS = {
        "PgbjConfig": {
            "num_pivots": 65, "pivot_selection": "farthest", "grouping": "greedy",
            "pivot_sample_size": 100, "random_candidate_sets": 6,
            "kmeans_iterations": 9, "use_hyperplane_pruning": False,
            "use_ring_pruning": False, "skew_split_threshold": 0.5,
            "skew_split_max_ways": 5,
        },
        "BlockJoinConfig": {
            "rtree_capacity": 16, "num_pivots": 65, "pivot_selection": "farthest",
            "pivot_sample_size": 100, "random_candidate_sets": 6,
        },
        "ZOrderConfig": {
            "num_shifts": 4, "bits": 12, "candidates_per_side": 5, "sample_size": 100,
        },
    }

    @pytest.mark.parametrize("config_name", sorted(SUBCLASS_KNOBS))
    def test_subclass_knobs_are_fields_and_survive_with_changes(self, config_name):
        """Every knob a config subclass adds must *be* a dataclass field — so
        it moves the plan identity and config equality — and a sweep helper
        (or the auto-tuner) going through ``with_changes`` must never reset a
        knob it was not asked to move."""
        import dataclasses

        import repro.joins
        from repro.datasets import generate_forest
        from repro.joins import JoinConfig
        from repro.joins.registry import plan_identity

        data = generate_forest(50, seed=1)
        config_class = getattr(repro.joins, config_name)
        knobs = self.SUBCLASS_KNOBS[config_name]
        base = config_class()
        inherited = {spec.name for spec in dataclasses.fields(JoinConfig)}
        own = {
            spec.name for spec in dataclasses.fields(base)
            if spec.compare and spec.name not in inherited
        }
        assert own == set(knobs)  # a new knob must be added here too
        reference = plan_identity("x", data, data, base, {})
        for name, value in knobs.items():
            changed = base.with_changes(**{name: value})
            assert changed != base, name
            assert plan_identity("x", data, data, changed, {}) != reference, name
        config = config_class(**knobs)
        moved = config.with_changes(k=config.k + 1)
        assert type(moved) is config_class and moved.k == config.k + 1
        assert {name: getattr(moved, name) for name in knobs} == knobs
        assert moved.with_changes(k=config.k) == config


# -- config threading ----------------------------------------------------------


class TestJoinConfigThreading:
    def test_chaos_timeout_and_checkpoint_knobs_reach_the_runtime(self, tmp_path):
        from repro.joins import JoinConfig

        plan = ChaosPlan.from_spec("crash:rate=0.1:attempt=1;seed=5")
        config = JoinConfig(
            chaos=plan, task_timeout=30.0, checkpoint_dir=str(tmp_path)
        )
        with config.make_runtime() as runtime:
            assert runtime.fault_injector is plan
            assert runtime.task_timeout == 30.0
        assert config.checkpoint_dir == str(tmp_path)

    def test_invalid_task_timeout_rejected(self):
        from repro.joins import JoinConfig

        with pytest.raises(ValueError, match="task_timeout"):
            JoinConfig(task_timeout=0)

    def test_chaos_excluded_from_config_equality(self):
        from repro.joins import JoinConfig

        with_chaos = JoinConfig(chaos=ChaosPlan.from_spec("crash:rate=0.1"))
        without = JoinConfig()
        assert with_chaos == without  # chaos never invalidates plan cache keys

    def test_join_under_chaos_matches_fault_free(self):
        from tests.test_engines import outcome_fingerprint

        from repro.bench.harness import forest_workload, run_algorithm

        data = forest_workload(times=2)
        plain = run_algorithm("pgbj", data, data, k=3, num_pivots=8, num_reducers=2)
        chaotic = run_algorithm(
            "pgbj",
            data,
            data,
            k=3,
            num_pivots=8,
            num_reducers=2,
            chaos=ChaosPlan.from_spec("crash:rate=0.3:attempt=1;seed=21"),
        )
        assert outcome_fingerprint(chaotic) == outcome_fingerprint(plain)

    def test_outcome_exposes_robustness_counters(self, tmp_path):
        from repro.bench.harness import forest_workload, run_algorithm

        data = forest_workload(times=2)
        outcome = run_algorithm(
            "pgbj",
            data,
            data,
            k=3,
            num_pivots=8,
            num_reducers=2,
            memory_budget=0,
            spill_dir=str(tmp_path),
            chaos=ChaosPlan.from_spec("corrupt:rate=0.5:attempt=1;seed=13"),
        )
        assert outcome.checksum_failures() > 0
        assert outcome.recovered_tasks() > 0
        assert outcome.spill_files_deleted() > 0
        assert outcome.speculative_wins() == 0


class TestChaosCli:
    def test_join_with_chaos_and_checkpoint_flags(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "join",
                "--objects", "200",
                "--k", "2",
                "--num-reducers", "2",
                "--num-pivots", "6",
                "--chaos-spec", "crash:rate=0.3:attempt=1",
                "--chaos-seed", "7",
                "--task-timeout", "60",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault tolerance" in out
        assert list((tmp_path / "ckpt").glob("*.ckpt.seg"))
