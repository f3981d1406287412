"""The CI gate on counted metrics: ``benchmarks/check_counted.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "check_counted", ROOT / "benchmarks" / "check_counted.py"
)
check_counted = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_counted)


def record(seed=0, scale=0.125, skipped=1_474_270, **moved):
    """A ``benchmarks.e2e run --out`` file reduced to what the checker reads;
    ``moved`` overrides a metric, or a job's counter as ``workload.job.name``;
    ``skipped`` is the assignment's skipped pairs (the zorder join has none)."""
    values = {"selectivity_permille": 134.3968, "shuffle_mb": 0.794933, "recall_at_k": 1.0}
    jobs = {"partitioning": (0, 0), "knn-join": (45, 9)}
    selectivity = {
        "osm_pgbj_spill": {
            "distance_pairs": 525_730,
            "assignment_pairs_skipped": skipped,
            "reducer_pivot_pairs": 27_075,
            "reducer_own_cell_pairs": 300_000,
            "reducer_other_cell_pairs": 178_755,
        },
        "forest_zorder_spill": {"distance_pairs": 1_280_000},
    }
    master = {"osm_pgbj_spill": 19_900, "forest_zorder_spill": 0}
    return {
        "environment": {"seed": seed, "scale": scale, "cpu_count": 2},
        "results": [
            {
                "workload": workload,
                "metrics": {
                    name: {"value": moved.get(f"{workload}.{name}", value)}
                    for name, value in {**values, "join_wall_s": 0.07}.items()
                },
                "counters": {
                    "master_distance_pairs": moved.get(
                        f"{workload}.master_distance_pairs", master[workload]
                    ),
                    "counters": {"selectivity": selectivity[workload]},
                    "jobs": [
                        {
                            "job": job,
                            "spill_bytes": 1234,
                            **{
                                name: moved.get(f"{workload}.{job}.{name}", value)
                                for name, value in zip(("spill_segments", "merge_passes"), counts)
                            },
                        }
                        for job, counts in jobs.items()
                    ]
                },
            }
            for workload in ("osm_pgbj_spill", "forest_zorder_spill")
        ],
    }


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    baseline = str(tmp_path / "baseline.json")
    first = write("first.json", record())
    assert check_counted.main([first, "--baseline", baseline, "--update"]) == 0
    return write, baseline


def test_equal_record_passes_whatever_the_clocks_say(files, capsys):
    write, baseline = files
    again = record()
    again["results"][0]["metrics"]["join_wall_s"]["value"] = 9.0
    assert check_counted.main([write("again.json", again), "--baseline", baseline]) == 0
    assert "0 counted metric(s) differ" in capsys.readouterr().out


def test_a_moved_counted_metric_fails_and_is_named(files, capsys):
    write, baseline = files
    moved = record(**{"osm_pgbj_spill.selectivity_permille": 134.3969})
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity_permille: 134.3968 -> 134.3969" in out
    assert "forest_zorder_spill" not in out


def test_spill_layout_is_summed_over_jobs_and_held_exactly(files, capsys):
    write, baseline = files
    assert json.loads(Path(baseline).read_text())["workloads"]["osm_pgbj_spill"] == {
        "selectivity_permille": 134.3968, "shuffle_mb": 0.794933, "recall_at_k": 1.0,
        "spill_segments": 45, "merge_passes": 9, "master_distance_pairs": 19_900,
        "selectivity.distance_pairs": 525_730,
        "selectivity.assignment_pairs_skipped": 1_474_270,
        "selectivity.reducer_pivot_pairs": 27_075,
        "selectivity.reducer_anchor_pairs": 0,
        "selectivity.reducer_own_cell_pairs": 300_000,
        "selectivity.reducer_other_cell_pairs": 178_755,
    }
    # the same totals split differently over the jobs: the layout held
    shifted = record(**{
        "osm_pgbj_spill.partitioning.spill_segments": 5,
        "osm_pgbj_spill.knn-join.spill_segments": 40,
    })
    assert check_counted.main([write("shifted.json", shifted), "--baseline", baseline]) == 0
    capsys.readouterr()
    # segments back to one per emission, or a second merge pass: named
    moved = record(**{
        "forest_zorder_spill.knn-join.spill_segments": 405,
        "osm_pgbj_spill.knn-join.merge_passes": 18,
    })
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "forest_zorder_spill.spill_segments: 45 -> 405" in out
    assert "osm_pgbj_spill.merge_passes: 9 -> 18" in out
    assert "2 counted metric(s) differ" in out


def test_skipped_assignment_pairs_are_held_exactly_and_read_0_without_the_job(files, capsys):
    """The layer a selectivity move came from: the Voronoi assignment's
    skipped pairs, 0 for a join that runs no partitioning job."""
    write, baseline = files
    pinned = json.loads(Path(baseline).read_text())["workloads"]
    assert pinned["forest_zorder_spill"]["selectivity.assignment_pairs_skipped"] == 0
    moved = record(skipped=1_474_271)
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity.assignment_pairs_skipped: 1474270 -> 1474271" in out
    assert "1 counted metric(s) differ" in out


def test_job_side_distance_pairs_are_held_exactly(files, capsys):
    """The selectivity's numerator as the jobs counted it (the master's pivot
    selection is the rest): a move inside the jobs is named as one."""
    write, baseline = files
    moved = record()
    moved["results"][0]["counters"]["counters"]["selectivity"]["distance_pairs"] = 525_729
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity.distance_pairs: 525730 -> 525729" in out
    assert "1 counted metric(s) differ" in out


def test_master_pairs_are_held_exactly_and_read_0_without_pivots(files, capsys):
    """The rest of the selectivity's numerator: the master's pivot selection
    (the phase table's master row), 0 for a join that selects no pivots."""
    write, baseline = files
    pinned = json.loads(Path(baseline).read_text())["workloads"]
    assert pinned["forest_zorder_spill"]["master_distance_pairs"] == 0
    moved = record(**{"osm_pgbj_spill.master_distance_pairs": 99_500})
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.master_distance_pairs: 19900 -> 99500" in out
    assert "1 counted metric(s) differ" in out


def test_reducer_pivot_pairs_are_held_exactly_and_read_0_without_the_kernel(files, capsys):
    """The object-pivot part of the kernel reducers' pairs: a move of the
    reducer's bounds is named as one, and a join without the Algorithm 3
    kernel reads 0."""
    write, baseline = files
    pinned = json.loads(Path(baseline).read_text())["workloads"]
    assert pinned["forest_zorder_spill"]["selectivity.reducer_pivot_pairs"] == 0
    moved = record()
    moved["results"][0]["counters"]["counters"]["selectivity"]["reducer_pivot_pairs"] = 27_076
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity.reducer_pivot_pairs: 27075 -> 27076" in out
    assert "1 counted metric(s) differ" in out


def test_reducer_anchor_pairs_are_pinned_at_0_and_a_return_is_named(files, capsys):
    """The kernel reducers filter by the anchor codes the partitioning job
    shipped and compute no object-anchor pair: every workload, the committed
    smoke record's included, reads 0, and a reducer counting some again is
    named."""
    write, baseline = files
    pinned = json.loads(Path(baseline).read_text())["workloads"]
    committed = json.loads(check_counted.BASELINE.read_text())["workloads"]
    for workloads in (pinned, committed):
        assert {w["selectivity.reducer_anchor_pairs"] for w in workloads.values()} == {0}
    moved = record()
    moved["results"][0]["counters"]["counters"]["selectivity"]["reducer_anchor_pairs"] = 2
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity.reducer_anchor_pairs: 0 -> 2" in out
    assert "1 counted metric(s) differ" in out


def test_own_and_other_cell_pairs_are_held_exactly_and_read_0_without_the_kernel(
    files, capsys
):
    """The kernel reducers' scanned pairs by where the object lies, the
    phase table's own-cell and other-cell rows: a move of either is named,
    a join without the Algorithm 3 kernel reads 0, and in the committed
    smoke record each PGBJ workload's pairs add up to its jobs' own."""
    write, baseline = files
    pinned = json.loads(Path(baseline).read_text())["workloads"]
    assert pinned["forest_zorder_spill"]["selectivity.reducer_own_cell_pairs"] == 0
    assert pinned["forest_zorder_spill"]["selectivity.reducer_other_cell_pairs"] == 0
    committed = json.loads(check_counted.BASELINE.read_text())["workloads"]
    for name, workload in committed.items():
        parts = ("pivot", "own_cell", "other_cell")
        reducers = sum(workload[f"selectivity.reducer_{part}_pairs"] for part in parts)
        if "pgbj" in name:
            assert 0 < reducers < workload["selectivity.distance_pairs"]
        else:
            assert reducers == 0
    moved = record()
    counters = moved["results"][0]["counters"]["counters"]["selectivity"]
    counters["reducer_own_cell_pairs"] -= 5
    counters["reducer_other_cell_pairs"] += 5
    assert check_counted.main([write("moved.json", moved), "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "osm_pgbj_spill.selectivity.reducer_own_cell_pairs: 300000 -> 299995" in out
    assert "osm_pgbj_spill.selectivity.reducer_other_cell_pairs: 178755 -> 178760" in out
    assert "2 counted metric(s) differ" in out


def test_a_baseline_without_the_spill_layout_fails(files, capsys):
    write, baseline = files
    older = check_counted.counted_of(record())
    for metrics in older["workloads"].values():
        del metrics["spill_segments"], metrics["merge_passes"]
    Path(baseline).write_text(json.dumps(older))
    assert check_counted.main([write("now.json", record()), "--baseline", baseline]) == 1
    assert "osm_pgbj_spill.spill_segments: None -> 45" in capsys.readouterr().out


def test_a_missing_workload_fails_on_either_side(files, capsys):
    write, baseline = files
    fewer = record()
    del fewer["results"][1]
    assert check_counted.main([write("fewer.json", fewer), "--baseline", baseline]) == 1
    assert "forest_zorder_spill: missing from the record" in capsys.readouterr().out
    Path(baseline).write_text(json.dumps(check_counted.counted_of(fewer)))
    assert check_counted.main([write("full.json", record()), "--baseline", baseline]) == 1
    assert "forest_zorder_spill: missing from the baseline" in capsys.readouterr().out


def test_other_inputs_are_refused_not_compared(files, capsys):
    write, baseline = files
    assert check_counted.main([write("seed1.json", record(seed=1)), "--baseline", baseline]) == 2
    assert "different inputs" in capsys.readouterr().out


def test_committed_baseline_covers_the_declared_workloads():
    baseline = json.loads(check_counted.BASELINE.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(baseline["workloads"]) == sorted(w["name"] for w in declared)
    for metrics in baseline["workloads"].values():
        assert sorted(metrics) == sorted(
            check_counted.COUNTED
            + check_counted.SPILL_LAYOUT
            + check_counted.TOTALS
            + check_counted.COUNTERS
        )
