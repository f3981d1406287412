"""One workload in one fresh interpreter: set-up, warm-up, timed joins,
verification.  Started by :mod:`benchmarks.e2e.driver` with a scrubbed
environment; writes one JSON result file and prints nothing else.

Operation = one ``run_join(name, r, s, config)`` on datasets in memory, from
call to returned outcome; the runtime, its worker pool and its spill directory
are created and torn down inside the call.  Closed loop, one client.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

from repro.joins import run_join

from . import RUN_SCALE, SMOKE_SCALE, oracle
from .compare import quartiles
from .workloads import get_workload

__all__ = ["Session", "main", "summarize"]

#: a timed window always holds at least this many joins, however slow the box
MIN_ROUNDS = 3


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of a timing sample."""
    q1, median, q3 = quartiles(samples)
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples)}


class Session:
    """A workload's datasets and config, plus the bookkeeping of its joins."""

    def __init__(self, workload, seed: int, scale: float, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.data = workload.dataset(seed, scale)
        self.config = workload.config(scale, work_dir)
        self.attempted = 0
        #: what went wrong, by operation number (1 = the warm-up)
        self.failures: dict[int, list[str]] = {}
        #: distinct result digests by sha1, and which operations produced them
        self.digests: dict[str, oracle.ResultDigest] = {}
        self.ops_of_digest: dict[str, list[int]] = {}
        self.first_counters: dict | None = None
        self.last_outcome = None

    # -- one operation -------------------------------------------------------

    def join(self):
        return run_join(self.workload.join, self.data, self.data, self.config)

    def operate(self, do_join=None) -> float | None:
        """Run one join and book it; returns its wall seconds, or ``None``
        when it raised (a failed operation has no timing)."""
        self.attempted += 1
        op = self.attempted
        gc.collect()
        started = time.perf_counter()
        try:
            outcome = (do_join or self.join)()
        except Exception as error:  # the benchmark must report, not die
            self.fail(op, f"raised {type(error).__name__}: {error}")
            self._sweep_work_dir(op)
            return None
        seconds = time.perf_counter() - started
        self.book(outcome, op)
        return seconds

    def fail(self, op: int, problem: str) -> None:
        self.failures.setdefault(op, []).append(problem)

    def book(self, outcome, op: int) -> None:
        """Reduce the outcome to a digest and check what needs no oracle."""
        self.last_outcome = outcome
        digest = oracle.digest_outcome(outcome, self.data.ids, self.config.k)
        self.digests.setdefault(digest.sha1, digest)
        self.ops_of_digest.setdefault(digest.sha1, []).append(op)
        if self.first_counters is None:
            self.first_counters = digest.counters
        elif digest.counters != self.first_counters:
            self.fail(op, "counters differ from op 1")
        self._sweep_work_dir(op)

    def _sweep_work_dir(self, op: int) -> None:
        left = sorted(os.listdir(self.work_dir))
        if left:
            self.fail(op, f"left {len(left)} entries in the spill dir: {left[:3]}")
            for name in left:
                path = os.path.join(self.work_dir, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.unlink(path)

    # -- after timing ----------------------------------------------------------

    def verify(self) -> float:
        """Check every distinct outcome against brute force; returns recall."""
        order = np.argsort(self.data.ids)
        points = self.data.points[order]
        truth = oracle.brute_force_knn(points, self.data.points, self.config.k)
        recalls = set()
        for sha1, digest in self.digests.items():
            problems, recall = oracle.check_digest(
                digest, truth, points, self.data.points, self.data.ids, self.workload.exact
            )
            recalls.add(recall)
            for op in self.ops_of_digest[sha1]:
                for problem in problems:
                    self.fail(op, problem)
        if len(self.digests) > 1:
            first = next(iter(self.ops_of_digest.values()))[0]
            for ops in list(self.ops_of_digest.values())[1:]:
                for op in ops:
                    self.fail(op, f"result differs from op {first}")
        return min(recalls) if recalls else 0.0

    def failed_ops(self) -> int:
        return len(self.failures)

    def failure_lines(self) -> list[str]:
        ops = sorted(self.failures)
        return [f"op {op}: {problem}" for op in ops for problem in self.failures[op]]


def peak_rss_mib() -> float:
    """Peak resident set of this interpreter plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _budget_left(deadline: float | None, done: int, rounds: int | None) -> bool:
    """``done`` counts the timed operations attempted, failed ones included."""
    if rounds is not None:
        return done < rounds
    return done < MIN_ROUNDS or time.perf_counter() < deadline


def measure(session: Session, seconds: float | None, rounds: int | None) -> dict:
    """Untraced timed joins; end-to-end metrics."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    timed: dict[int, float] = {}  # wall seconds by operation number
    done = 0
    while _budget_left(deadline, done, rounds):
        wall = session.operate()
        done += 1
        if wall is not None:
            timed[session.attempted] = wall
    rss = peak_rss_mib()
    recall = session.verify()
    # a failed operation has no timing, whenever its failure was found
    walls = [wall for op, wall in timed.items() if op not in session.failures]
    outcome = session.last_outcome
    metrics = {"peak_rss_mb": {"value": rss}, "recall_at_k": {"value": recall}}
    if walls:
        metrics["join_wall_s"] = summarize(walls)
    if outcome is not None:
        pairs = outcome.r_size * outcome.s_size
        metrics["selectivity_permille"] = {"value": outcome.distance_pairs / pairs * 1000.0}
        metrics["shuffle_mb"] = {"value": outcome.shuffle_bytes() / 1e6}
    return {"metrics": metrics, "samples": {"join_wall_s": walls}}


def trace(
    session: Session, seconds: float | None, rounds: int | None, spans_out: str | None
) -> dict:
    """Alternate untraced and traced joins; per-layer metrics of the traced
    repetition with the median wall."""
    from .layers import UMBRELLA, install_spans, layer_metrics, traced_join
    from .spans import Patcher, Recorder

    deadline = None if seconds is None else time.perf_counter() + seconds
    untraced: dict[int, float] = {}  # wall seconds by operation number
    traced_ops: dict[int, tuple[float, object, dict, Recorder]] = {}
    done = 0
    while _budget_left(deadline, done, rounds):
        wall = session.operate()
        if wall is not None:
            untraced[session.attempted] = wall
        recorder = Recorder()
        kept: list = []

        def traced():
            with Patcher(recorder) as patcher:
                install_spans(patcher)
                outcome, facts = traced_join(
                    session.workload, session.data, session.data, session.config, recorder
                )
            kept.append(facts)
            return outcome

        if session.operate(traced) is not None:
            traced_ops[session.attempted] = (
                kept[0]["wall_s"], session.last_outcome, kept[0], recorder
            )  # fmt: skip
        done += 1
    session.verify()
    untraced_walls = [wall for op, wall in untraced.items() if op not in session.failures]
    repetitions = [kept for op, kept in traced_ops.items() if op not in session.failures]
    if not repetitions or not untraced_walls:
        return {"metrics": {}, "breakdown": {}}
    traced_walls = [repetition[0] for repetition in repetitions]
    by_wall = sorted(repetitions, key=lambda repetition: repetition[0])
    wall, outcome, facts, recorder = by_wall[(len(by_wall) - 1) // 2]
    summary = recorder.summary()
    values = layer_metrics(
        session.workload, outcome, facts, summary, statistics.median(untraced_walls)
    )
    if spans_out:
        with open(spans_out, "w") as stream:
            columns = ["name", "start", "end", "parent", "id"]
            json.dump({"columns": columns, "spans": recorder.spans}, stream)
    return {
        "metrics": {name: {"value": value} for name, value in values.items()},
        "breakdown": {
            "wall_s": wall,
            # largest first; the umbrella spans' own time is glue, shown as unaccounted
            "self_s": {
                name: seconds
                for name, seconds in sorted(summary.self_s.items(), key=lambda item: -item[1])
                if name not in UMBRELLA
            },
            "calls": summary.calls,
            "master_phases": dict(outcome.master_phases),
            "task_s": {
                "map": values["runtime.map_task_s"],
                "reduce": values["runtime.reduce_task_s"],
            },
        },
        "samples": {
            "untraced_wall_s": untraced_walls,
            "traced_wall_s": traced_walls,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--started", type=float, required=True, help="driver's perf_counter")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    if args.mode != "setup" and args.seconds is None and args.rounds is None:
        parser.error("--seconds or --rounds")

    workload = get_workload(args.workload)
    if workload.max_workers and (os.cpu_count() or 1) < workload.max_workers:
        print(f"{workload.name} needs {workload.max_workers} CPUs", file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else RUN_SCALE
    session = Session(workload, args.seed, scale, args.work_dir)
    session.operate()  # warm-up: pool spawn, lazy imports, provider resolution
    # interpreter start -> ready to time, on the system-wide monotonic clock
    setup_s = time.perf_counter() - args.started

    if args.mode == "measure":
        result = measure(session, args.seconds, args.rounds)
    elif args.mode == "trace":
        result = trace(session, args.seconds, args.rounds, args.spans_out)
    else:
        session.verify()  # the warm-up join is an operation like any other
        result = {"metrics": {}}
    result["setup_s"] = setup_s
    result["ops_attempted"] = session.attempted
    result["ops_failed"] = session.failed_ops()
    result["failures"] = session.failure_lines()[:20]
    result["counters"] = session.first_counters
    # which program ran: the data's shape and every knob of the config
    result["data_shape"] = list(session.data.points.shape)
    result["config"] = repr(session.config)
    with open(args.out, "w") as stream:
        json.dump(result, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
