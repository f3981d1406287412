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


def record(seed=0, scale=0.125, **moved):
    """A ``benchmarks.e2e run --out`` file reduced to what the checker reads."""
    values = {"selectivity_permille": 134.3968, "shuffle_mb": 0.794933, "recall_at_k": 1.0}
    return {
        "environment": {"seed": seed, "scale": scale, "cpu_count": 2},
        "results": [
            {
                "workload": workload,
                "metrics": {
                    name: {"value": moved.get(f"{workload}.{name}", value)}
                    for name, value in {**values, "join_wall_s": 0.07}.items()
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
        assert sorted(metrics) == sorted(check_counted.COUNTED)
