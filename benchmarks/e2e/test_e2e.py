"""Self-test of the benchmark (not of the library): run as
``python -m pytest benchmarks/e2e -q``.  About a minute on the reference box.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from . import JOIN_WALL, SMOKE_SCALE, driver
from .compare import compare_files, judge
from .driver import ROOT, load_spec, worker_environment
from .layers import WORKER_SIDE, install_spans, traced_join
from .spans import Patcher, Recorder
from .worker import Session, measure
from .workloads import WORKLOADS, get_workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: printed beside the end-to-end metrics; the driver contract carries them as
#: ``attempted`` / ``failed`` instead, because a metric there may never be 0
PRINTED_ONLY = {"ops_attempted": "count", "ops_failed_share": "ratio"}


def _cli(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env or worker_environment(str(ROOT)),
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def _printed(stdout: str) -> dict[str, list[tuple[str, str, str]]]:
    """``{workload: [(metric, value, unit), ...]}`` from the printed tables."""
    tables: dict[str, list[tuple[str, str, str]]] = {}
    rows: list[tuple[str, str, str]] = []
    for line in stdout.splitlines():
        heading = re.fullmatch(r"== (\S+) ==", line)
        if heading:
            rows = tables.setdefault(heading.group(1), [])
            continue
        row = re.match(r"  (\S+)\s+(\S+) (\S+)", line)
        if row and not line.startswith("  --") and "%" not in line:
            rows.append(row.groups())
    return tables


def test_spec_is_within_the_contract_limits():
    spec = load_spec()
    sections = ("workloads", "end_to_end", "per_layer")
    assert set(spec) == {"command", "paths", "run_seconds", *sections}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [entry["name"] for entry in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert len(spec["workloads"]) == 4
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in sections for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in spec["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
    assert WORKER_SIDE <= {entry["name"] for entry in spec["per_layer"]}
    # the clocked join time is reported by the traced run and carries no contract bound
    unbounded = {key: value for key, value in JOIN_WALL.items() if key != "bound"}
    assert spec["per_layer"][0] == unbounded


@pytest.mark.parametrize("mode, key", [("run", "end_to_end"), ("trace", "per_layer")])
def test_smoke_prints_exactly_the_declared_metrics(tmp_path, mode, key):
    declared = {entry["name"]: entry["unit"] for entry in load_spec()[key]} | PRINTED_ONLY
    declared[JOIN_WALL["name"]] = JOIN_WALL["unit"]  # `run` prints it beside the end-to-end ones
    out = tmp_path / "set.json"
    extra = ["--spans-out", str(tmp_path / "spans")] if mode == "trace" else []
    done = _cli("-m", "benchmarks.e2e", mode, "--smoke", "--out", str(out), *extra)
    assert done.returncode == 0, done.stdout + done.stderr
    tables = _printed(done.stdout)
    assert list(tables) == [workload.name for workload in WORKLOADS]
    for workload, rows in tables.items():
        assert {name: unit for name, _, unit in rows} == declared, workload
        if mode == "trace":
            unavailable = {name for name, value, _ in rows if value == "n/a"}
            assert unavailable == (WORKER_SIDE if workload == "forest_pgbj_pooled" else set())
    with open(out) as stream:
        written = json.load(stream)
    assert {"cpu_count", "cpu_model", "python", "numpy", "numba", "numba_native", "git_sha",
            "git_dirty", "load_average", "schema_version", "seed", "rounds"} <= set(
        written["environment"]
    )  # fmt: skip
    for result in written["results"]:
        assert result["ops_failed"] == 0 and result["ops_attempted"] >= 2
        assert set(result["metrics"]) == set(declared) - set(PRINTED_ONLY)
        if mode == "run":  # the timing is the median of the clocked samples, nothing else
            walls = result["samples"]["join_wall_s"]
            assert len(walls) == 2 and result["metrics"]["join_wall_s"]["value"] == sum(walls) / 2
        else:  # one spans file per workload, not one overwritten four times
            with open(tmp_path / f"spans.{result['workload']}.json") as stream:
                assert json.load(stream)["spans"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_command_prints_one_json_line(trace, key):
    done = _cli(
        "benchmarks/e2e/run.py", "--workload", "forest_zorder_spill",
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in load_spec()[key]
    }
    assert all(type(m["value"]) in (int, float) for m in line["metrics"].values())


def test_worker_environment_is_hermetic(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "threads")
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    env = worker_environment("/somewhere")
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"


# -- planted failures --------------------------------------------------------


def _session(tmp_path, name="osm_pgbj_spill") -> Session:
    work_dir = tmp_path / "work"
    work_dir.mkdir()
    return Session(get_workload(name), seed=0, scale=SMOKE_SCALE, work_dir=str(work_dir))


def test_a_planted_wrong_result_is_a_failed_op(tmp_path):
    session = _session(tmp_path)

    def wrong():
        outcome = session.join()
        _, dists = outcome.result.neighbors_of(int(session.data.ids[5]))
        dists[-1] *= 1.0 + 1e-6
        return outcome

    assert session.operate() is not None
    assert session.operate(wrong) is not None
    assert session.operate() is not None
    session.verify()
    assert session.attempted == 3 and list(session.failures) == [2]


def test_a_planted_incomplete_result_is_a_failed_op(tmp_path):
    session = _session(tmp_path)

    def incomplete():
        outcome = session.join()
        del outcome.result._neighbors[int(session.data.ids[0])]
        return outcome

    session.operate(incomplete)
    session.verify()
    assert session.failed_ops() == 1


def test_a_planted_leftover_spill_file_is_a_failed_op(tmp_path):
    session = _session(tmp_path)

    def leaky():
        outcome = session.join()
        with open(os.path.join(session.work_dir, "left-behind.seg"), "wb") as stream:
            stream.write(b"x")
        return outcome

    session.operate()
    session.operate(leaky)
    session.verify()
    assert list(session.failures) == [2] and "spill dir" in session.failures[2][0]
    assert os.listdir(session.work_dir) == []  # swept, so op 3 is judged on its own
    session.operate()
    assert session.failed_ops() == 1


def test_a_raising_join_is_a_failed_op_without_a_timing(tmp_path):
    session = _session(tmp_path)

    def broken():
        raise RuntimeError("planted")

    assert session.operate(broken) is None
    assert session.failed_ops() == 1 and "planted" in session.failures[1][0]


def test_different_counters_are_a_failed_op(tmp_path):
    session = _session(tmp_path)

    def recount():
        outcome = session.join()
        outcome.master_distance_pairs += 1
        return outcome

    session.operate()
    session.operate(recount)
    assert list(session.failures) == [2] and "counters differ" in session.failures[2][0]


def test_a_failed_op_has_no_timing_and_still_uses_its_round(tmp_path):
    session = _session(tmp_path)
    join = session.join

    def wrong_on_op_2():
        outcome = join()
        if session.attempted == 2:  # found wrong only by the oracle, after it was timed
            _, dists = outcome.result.neighbors_of(int(session.data.ids[5]))
            dists[-1] *= 1.0 + 1e-6
        return outcome

    session.join = wrong_on_op_2
    result = measure(session, seconds=None, rounds=3)
    assert session.attempted == 3 and list(session.failures) == [2]
    assert result["metrics"]["join_wall_s"]["n"] == len(result["samples"]["join_wall_s"]) == 2


def test_the_contract_command_exits_non_zero_on_a_failed_op(monkeypatch, capsys):
    spec = load_spec()
    result = {
        "metrics": {entry["name"]: {"value": 1.5} for entry in spec["end_to_end"]},
        "ops_attempted": 5,
        "ops_failed": 1,
        "failures": ["op 3: planted"],
    }
    monkeypatch.setattr(driver, "run_workload", lambda *args, **kwargs: result)
    argv = ["--workload", "osm_pgbj_spill", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert driver.contract_main(argv) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 5


# -- tracing -------------------------------------------------------------------


def _library_attributes() -> dict:
    """Every module global and class attribute of the loaded library."""
    held = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            held[module_name, key] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attribute, member in vars(value).items():
                    held[value.__module__, value.__qualname__, attribute] = member
    return held


def test_span_wrappers_are_all_removed_after_a_traced_join(tmp_path):
    session = _session(tmp_path, "forest_zorder_spill")
    before = _library_attributes()
    recorder = Recorder()
    with Patcher(recorder) as patcher:
        install_spans(patcher)
        patched = _library_attributes()
        traced_join(session.workload, session.data, session.data, session.config, recorder)
    after = _library_attributes()
    assert {key for key in before if patched.get(key) is not before[key]}, "nothing was patched"
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in recorder.spans}
    assert {"shuffle.spill_write", "shuffle.merge_read", "kernels.morton", "hdfs.put"} <= names


# -- compare -------------------------------------------------------------------


def test_judge_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert judge(steady, [1.03, 1.02, 1.04, 1.03, 1.03], "lower", 0.10)["verdict"] == "same"
    assert judge(steady, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.10)["verdict"] == "worse"
    assert judge(steady, [0.80, 0.81, 0.79, 0.80, 0.82], "lower", 0.10)["verdict"] == "better"
    assert judge(steady, [0.80, 0.81, 0.79, 0.80, 0.82], "higher", 0.10)["verdict"] == "worse"
    noisy = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert judge(noisy, [0.9, 1.1, 1.4, 1.0, 1.25], "lower", 0.10)["verdict"] == "unresolved"
    assert judge([3.5], [3.5], "lower", 0.10, exact=True)["verdict"] == "same"
    assert judge([3.5], [3.5000001], "lower", 0.10, exact=True)["verdict"] == "worse"


def test_compare_exits_1_on_worse(tmp_path, capsys):
    spec = load_spec()
    result = {
        "workload": "forest_pgbj_serial",
        "ops_attempted": 4,
        "ops_failed": 0,
        "metrics": {entry["name"]: {"value": 1.0} for entry in spec["end_to_end"]},
        "samples": {"join_wall_s": [1.0, 1.01, 0.99]},
    }
    base = {"environment": {"seed": 0, "scale": 0.5, "git_sha": None}, "results": [result]}
    slower = json.loads(json.dumps(base))
    slower["results"][0]["samples"]["join_wall_s"] = [1.5, 1.51, 1.49]
    paths = []
    for name, content in (("a.json", base), ("b.json", slower)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as stream:
            json.dump(content, stream)
    assert compare_files(paths[0], paths[0], spec) == 0
    assert compare_files(paths[0], paths[1], spec) == 1
    assert "worse" in capsys.readouterr().out
    for key, value in (("seed", 1), ("scale", 0.125)):  # other inputs: another program
        other = json.loads(json.dumps(base))
        other["environment"][key] = value
        with open(paths[1], "w") as stream:
            json.dump(other, stream)
        assert compare_files(paths[0], paths[1], spec) == 2
        assert f"cannot compare: {key}" in capsys.readouterr().out
