"""Unit tests for the bench harness (scaling, workloads, result records)."""

import json

import pytest

from repro.bench.harness import (
    DEFAULTS,
    ExperimentResult,
    forest_workload,
    osm_workload,
    pivot_sweep,
    run_algorithm,
    scaled,
    scaled_pivots,
)


class TestScaling:
    def test_default_scale_is_identity(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert scaled(100) == 100
        assert scaled_pivots(64) == 64

    def test_scale_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert scaled(100) == 50
        assert scaled_pivots(64) == 32

    def test_minimums_enforced(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.001")
        assert scaled(100) >= 8
        assert scaled_pivots(64) >= 4

    def test_pivot_sweep_tracks_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert pivot_sweep() == tuple(
            max(4, int(c * 0.25)) for c in DEFAULTS["pivot_counts"]
        )


class TestWorkloads:
    def test_forest_size_is_base_times_expansion(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        data = forest_workload()
        assert len(data) == scaled(DEFAULTS["forest_base"]) * DEFAULTS["forest_times"]

    def test_forest_dims_parameter(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        assert forest_workload(dims=4).dimensions == 4

    def test_osm_has_payloads(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert osm_workload().payload_bytes is not None


class TestRunners:
    def test_overrides_reach_config(self, monkeypatch, small_uniform):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        outcome = run_algorithm(
            "pgbj", small_uniform, small_uniform, k=3, num_pivots=6, num_reducers=2
        )
        assert outcome.k == 3

    def test_hbrj_ignores_pivot_override(self, monkeypatch, small_uniform):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
        outcome = run_algorithm(
            "hbrj", small_uniform, small_uniform, k=3, num_pivots=999, num_reducers=4
        )
        assert outcome.algorithm == "hbrj"

    def test_typo_override_rejected(self, small_uniform):
        # a knob NO registered config accepts is a typo, not a cross-
        # algorithm knob to filter — it must fail loudly
        import pytest

        with pytest.raises(TypeError, match="num_reducer"):
            run_algorithm("pgbj", small_uniform, small_uniform, num_reducer=32)


class TestExperimentResult:
    def test_save_round_trip(self, tmp_path):
        record = ExperimentResult(
            exhibit="demo",
            title="Demo",
            text="table",
            data={"series": [1, 2]},
            params={"objects": 10},
        )
        path = record.save(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["exhibit"] == "demo"
        assert payload["data"]["series"] == [1, 2]
        assert set(payload) == {"exhibit", "title", "engine", "params", "data", "text"}

    def test_show_contains_title_and_text(self):
        record = ExperimentResult(exhibit="demo", title="A Title", text="BODY")
        shown = record.show()
        assert "DEMO" in shown
        assert "A Title" in shown
        assert "BODY" in shown
