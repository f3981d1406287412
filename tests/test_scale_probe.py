"""The advisory scale probe: ``benchmarks/scale_probe.py``."""

import importlib.util
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "scale_probe", ROOT / "benchmarks" / "scale_probe.py"
)
scale_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_probe)


def scaled_with(monkeypatch, seconds):
    """:func:`scale_probe.scaled` over joins that take ``seconds`` of CPU in
    turn, and the scales it ran them at."""
    seconds, calls = iter(seconds), []

    def probe(name, scale):
        calls.append(scale)
        return {"scale": scale, "objects": 4000, "cpu_s": next(seconds)}

    monkeypatch.setattr(scale_probe, "probe", probe)
    return scale_probe.scaled("forest_pgbj_serial"), calls


def test_the_ratio_divides_by_the_median_small_join(monkeypatch):
    """One slow small join moves the ratio no more than the median does."""
    record, calls = scaled_with(monkeypatch, [0.9, 0.4, 0.5, 12.0, 12.0, 12.0])
    assert calls == [0.5] * scale_probe.SMALL_JOINS + [5.0] * scale_probe.LARGE_JOINS
    assert record["cpu_ratio"] == 24.0  # 12.0 / median(0.9, 0.4, 0.5)
    assert len(record["runs"]) == scale_probe.SMALL_JOINS + scale_probe.LARGE_JOINS


def test_the_ratio_takes_the_median_large_join(monkeypatch):
    """Three 40k joins, one of them a quarter slower, give the ratio of
    their median: a single large join's noise does not reach it."""
    record, calls = scaled_with(monkeypatch, [0.5, 0.5, 0.5, 10.0, 12.5, 9.0])
    assert scale_probe.LARGE_JOINS == 3
    assert calls[scale_probe.SMALL_JOINS:] == [5.0] * 3
    assert record["cpu_ratio"] == 20.0  # median(10.0, 12.5, 9.0) / 0.5
    assert [run["cpu_s"] for run in record["runs"][3:]] == [10.0, 12.5, 9.0]


def test_a_probe_records_the_master_phases(monkeypatch):
    """Each run records the index-merging and grouping seconds of its join."""
    from types import SimpleNamespace

    from repro.core import Dataset

    outcome = SimpleNamespace(
        master_phases={"index_merging": 0.012345, "partition_grouping": 0.5},
        selectivity=lambda: 0.002,
        shuffle_bytes=lambda: 3_000_000,
        counters=SimpleNamespace(value=lambda group, name: 7),
    )
    workload = SimpleNamespace(
        join="pgbj",
        dataset=lambda seed, scale: Dataset(np.zeros((10, 2))),
        config=lambda scale, work_dir: None,
    )
    monkeypatch.setattr(scale_probe, "get_workload", lambda name: workload)
    monkeypatch.setattr(scale_probe, "run_join", lambda *args: outcome)
    record = scale_probe.probe("osm_pgbj_spill", 0.5)
    assert record["merging_s"] == 0.0123
    assert record["grouping_s"] == 0.5
    assert record["objects"] == 10 and record["s_replicas"] == 7


def test_a_probe_times_the_refinement_where_the_join_calls_it(monkeypatch):
    """``refine_s`` is the CPU the join spent in ``replica_counts`` and
    ``refine_groups``, and ``refine_share`` its median over the larger
    joins' median CPU."""
    from types import SimpleNamespace

    from repro.core import Dataset
    from repro.joins import pgbj

    def busy(*args):
        start = time.process_time()
        while time.process_time() - start < 0.02:
            pass

    outcome = SimpleNamespace(
        master_phases={"index_merging": 0.0, "partition_grouping": 0.0},
        selectivity=lambda: 0.0,
        shuffle_bytes=lambda: 0,
        counters=SimpleNamespace(value=lambda group, name: 0),
    )
    workload = SimpleNamespace(
        join="pgbj",
        dataset=lambda seed, scale: Dataset(np.zeros((10, 2))),
        config=lambda scale, work_dir: None,
    )

    def join(*args):
        pgbj.replica_counts()
        pgbj.refine_groups()
        return outcome

    monkeypatch.setattr(scale_probe, "get_workload", lambda name: workload)
    monkeypatch.setattr(scale_probe, "run_join", join)
    monkeypatch.setattr(pgbj, "replica_counts", busy)
    monkeypatch.setattr(pgbj, "refine_groups", busy)
    assert scale_probe.probe("forest_pgbj_serial", 0.5)["refine_s"] >= 0.04
    runs = [{"cpu_s": 1.0, "refine_s": 0.0}] * 3 + [
        {"cpu_s": cpu, "refine_s": refine} for cpu, refine in ((10.0, 0.2), (12.0, 0.3), (9.0, 0.1))
    ]
    monkeypatch.setattr(scale_probe, "probe", lambda name, scale: runs.pop(0) | {"objects": 4000})
    assert scale_probe.scaled("forest_pgbj_serial")["refine_share"] == 0.02  # 0.2 / 10.0
