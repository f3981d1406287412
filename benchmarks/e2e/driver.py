"""Starts the workload interpreters, one after another, in a hermetic
environment, and turns their result files into metric tables.

This process never imports numpy or ``repro``: each workload gets a fresh
interpreter (clean ``setup_s``, clean peak RSS, no heap state leaking between
workloads), and the BLAS thread pins are in its environment before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import RUN_SCALE, SCHEMA_VERSION, SMOKE_SCALE

__all__ = [
    "BENCHMARK_JSON",
    "ROOT",
    "contract_main",
    "environment_stamp",
    "load_spec",
    "run_workload",
    "worker_environment",
]

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: fresh interpreters that only set up (import, data, config, warm-up join),
#: besides the measuring one: ``setup_s`` is the median of all of them
EXTRA_SETUPS = 2

_THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as stream:
        return json.load(stream)


def worker_environment(work_dir: str) -> dict:
    """The parent's environment minus every ``REPRO_*`` variable, with BLAS
    pinned to one thread (so "serial" is one thread and the pooled workload
    uses exactly its two workers), a fixed hash seed, and temp files kept
    inside the run's work dir."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for pin in _THREAD_PINS:
        env[pin] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = work_dir
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp(seed: int, smoke: bool, rounds: int) -> dict:
    """Where and how a result set was taken; written into every result file."""
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, numpy\n"
            "from repro.joins.kernel_providers import available_kernel_providers\n"
            "try:\n    import numba; present = numba.__version__\n"
            "except ImportError:\n    present = None\n"
            "print(json.dumps({'numpy': numpy.__version__, 'numba': present,"
            " 'numba_native': available_kernel_providers()['numba'][0]}))",
        ],
        env=worker_environment(tempfile.gettempdir()),
        capture_output=True,
        text=True,
        check=True,
    )
    status = _git("status", "--porcelain")
    return {
        "schema_version": SCHEMA_VERSION,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **json.loads(probe.stdout.strip().splitlines()[-1]),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "load_average": list(os.getloadavg()),
        "seed": seed,
        "scale": SMOKE_SCALE if smoke else RUN_SCALE,
        "rounds": rounds,
        "thread_pins": {pin: "1" for pin in _THREAD_PINS},
    }


def _run_worker(workload: str, mode: str, seed: int, smoke: bool, scratch: Path, **options) -> dict:
    """One fresh interpreter; returns its result file's content."""
    work_dir = scratch / f"work-{mode}"
    work_dir.mkdir()
    out = scratch / f"{mode}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.worker",
        "--workload", workload,
        "--mode", mode,
        "--seed", str(seed),
        "--work-dir", str(work_dir),
        "--out", str(out),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    for option, value in options.items():
        if value is not None:
            command += [f"--{option.replace('_', '-')}", str(value)]
    command += ["--started", repr(time.perf_counter())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=worker_environment(str(work_dir)), stdout=sys.stderr, check=False
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0 or not out.exists():
        raise RuntimeError(f"worker for {workload} ({mode}) exited with {done.returncode}")
    with open(out) as stream:
        return json.load(stream)


def run_workload(
    workload: str,
    *,
    seed: int,
    smoke: bool = False,
    trace: bool = False,
    seconds: float | None = None,
    rounds: int | None = None,
    extra_setups: int = EXTRA_SETUPS,
    spans_out: str | None = None,
) -> dict:
    """Measure (or trace) one workload; ``setup_s`` is the median over the
    measuring interpreter and ``extra_setups`` set-up-only ones."""
    scratch_root = ROOT / ".e2e_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    try:
        setups = []
        for index in range(extra_setups):
            directory = scratch / f"setup{index}"
            directory.mkdir()
            setups.append(_run_worker(workload, "setup", seed, smoke, directory))
        result = _run_worker(
            workload,
            "trace" if trace else "measure",
            seed,
            smoke,
            scratch,
            seconds=seconds,
            rounds=rounds,
            spans_out=spans_out,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run is using it
    for setup in setups:  # their warm-up joins are verified operations too
        for key in ("ops_attempted", "ops_failed", "failures"):
            result[key] += setup[key]
    setup_samples = [each["setup_s"] for each in setups] + [result.pop("setup_s")]
    if not trace:
        result["samples"]["setup_s"] = setup_samples
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples),
            "n": len(setup_samples),
        }
    result["workload"] = workload
    return result


def contract_main(argv: list[str] | None = None) -> int:
    """``--workload W --seed N --seconds T --trace 0|1`` → one JSON line."""
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument(
        "--workload", required=True, choices=[entry["name"] for entry in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload,
        seed=args.seed,
        trace=bool(args.trace),
        seconds=args.seconds,
        extra_setups=0 if args.trace else EXTRA_SETUPS,
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        measured = result["metrics"].get(entry["name"], {}).get("value")
        # a per-layer metric that does not exist on this workload (worker-side
        # spans on the pooled engine) still needs a number here; the tables
        # `python -m benchmarks.e2e trace` prints show it as n/a
        value = 0 if measured is None else measured
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    missing = [e["name"] for e in declared if e["name"] not in result["metrics"]]
    failed = result["ops_failed"] + (1 if missing else 0)
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    clocked = result["metrics"].get("join_wall_s")
    if clocked and not args.trace:  # not an end_to_end metric (see JOIN_WALL): for the log
        line = "join_wall_s {value:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, n={n})"
        print(line.format(**clocked), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result["ops_attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0
