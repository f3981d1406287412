"""Advisory scale probe: each workload of :data:`WORKLOADS` at its recorded
scale and at 40 000 objects, in one process, and the ratio of their median
CPU seconds.

``forest_pgbj_serial`` at scale 0.5 joins 4 000 objects (Forest x10, 160
pivots) and ``osm_pgbj_spill`` 5 000 (200 pivots); at 40 000 objects they
run at scale 5 and 4 (1 600 pivots each).  A join whose cost grows faster
than its data — per-scan work that grows with S, say — shows as a ratio far
above the data's growth, whatever the speed of the machine, since both joins
ran on it.  No bound is applied yet: the record starts the series a bound
will be calibrated from.

    PYTHONPATH=src python benchmarks/scale_probe.py [--out scale-probe.json]

Prints one JSON line (and writes it to ``--out``): per workload, per run
the scale, objects, CPU and wall seconds of one in-process join, its
selectivity, ``shuffle_mb``, S replicas, the master's index-merging seconds
(``merging_s``: folding the partitioning job's summary partials into ``T_R``
and ``T_S``), its grouping seconds (the strategy and the refinement by
counted copies) and the refinement's own CPU seconds (``refine_s``: counting
the copies and moving and swapping cells) — ``SMALL_JOINS`` joins
at the recorded scale, then ``LARGE_JOINS`` larger ones — ``cpu_ratio``,
the median CPU seconds of the larger joins over the median of the smaller
ones, and ``refine_share``, the larger joins' median refinement seconds over
their median CPU seconds (one 0.4–0.6 s join swings the ratio by a third, and one 40k join's CPU
moves by a quarter between runs of the same code).  A join at the
smoke scale runs first, unrecorded, so none pays the process's first-call
costs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.e2e.workloads import get_workload  # noqa: E402
from repro.joins import pgbj, run_join  # noqa: E402
from repro.joins.base import REPLICA_GROUP, REPLICA_NAME  # noqa: E402

WORKLOADS = ("forest_pgbj_serial", "osm_pgbj_spill")
SEED = 0
#: the benchmark's recorded scale, and the objects of the larger join
SCALE, LARGE_OBJECTS = 0.5, 40_000
WARM_UP_SCALE = 0.125
#: joins at the recorded scale whose median CPU the ratio divides by
SMALL_JOINS = 3
#: joins at :data:`LARGE_OBJECTS` whose median CPU the ratio divides
LARGE_JOINS = 3


def probe(name: str, scale: float) -> dict:
    """One join of workload ``name`` at ``scale``: objects, CPU and wall
    seconds, selectivity in permille, shuffled MB, S replicas, the master's
    index-merging and grouping seconds and the CPU seconds of the grouping's
    refinement (:func:`~repro.grouping.refine.replica_counts` and
    :func:`~repro.grouping.refine.refine_groups`, timed where the join
    calls them)."""
    workload = get_workload(name)
    data = workload.dataset(SEED, scale)
    refine_s = [0.0]

    def timed(step):
        def run(*args):
            start = time.process_time()
            try:
                return step(*args)
            finally:
                refine_s[0] += time.process_time() - start

        return run

    with tempfile.TemporaryDirectory() as work_dir, ExitStack() as stack:
        for step in ("replica_counts", "refine_groups"):
            stack.enter_context(mock.patch.object(pgbj, step, timed(getattr(pgbj, step))))
        config = workload.config(scale, work_dir)
        cpu, wall = time.process_time(), time.perf_counter()
        outcome = run_join(workload.join, data, data, config)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return {
        "scale": scale,
        "objects": len(data),
        "cpu_s": round(cpu, 3),
        "wall_s": round(wall, 3),
        "selectivity_permille": round(outcome.selectivity() * 1000.0, 5),
        "shuffle_mb": round(outcome.shuffle_bytes() / 1e6, 4),
        "s_replicas": outcome.counters.value(REPLICA_GROUP, REPLICA_NAME),
        "merging_s": round(outcome.master_phases["index_merging"], 4),
        "grouping_s": round(outcome.master_phases["partition_grouping"], 4),
        "refine_s": round(refine_s[0], 4),
    }


def median_cpu(runs: list[dict]) -> float:
    return statistics.median(run["cpu_s"] for run in runs)


def scaled(name: str) -> dict:
    """``name`` :data:`SMALL_JOINS` times at :data:`SCALE`, then
    :data:`LARGE_JOINS` times at :data:`LARGE_OBJECTS` objects."""
    small = [probe(name, SCALE) for _ in range(SMALL_JOINS)]
    large_scale = SCALE * LARGE_OBJECTS / small[0]["objects"]
    large = [probe(name, large_scale) for _ in range(LARGE_JOINS)]
    refine = statistics.median(run.get("refine_s", 0.0) for run in large)
    return {
        "runs": [*small, *large],
        "cpu_ratio": round(median_cpu(large) / max(median_cpu(small), 1e-9), 2),
        "refine_share": round(refine / max(median_cpu(large), 1e-9), 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="also write the record here")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        probe(name, WARM_UP_SCALE)
    record = {
        "seed": SEED,
        "workloads": {name: scaled(name) for name in WORKLOADS},
        "environment": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
    }
    line = json.dumps(record)
    print(line)
    if args.out is not None:
        args.out.write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
