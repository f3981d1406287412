"""Hold a benchmark record's counted metrics to a committed baseline, exactly.

``selectivity_permille``, ``shuffle_mb`` and ``recall_at_k`` repeat to the
last digit for one seed and size, and so does the spill layout —
``spill_segments`` and ``merge_passes``, each summed over the jobs of the
record's ``counters`` — and so do the pairs the master's pivot selection
computed (``master_distance_pairs``, 0 for a join without pivots) and three
selectivity counters that name the layer when the selectivity moves: the
pairs the jobs computed (``selectivity.distance_pairs``; with the master's,
the selectivity's numerator), the pairs the Voronoi assignment
skipped (``selectivity.assignment_pairs_skipped``, 0 for a join without a
partitioning job), the object-pivot and object-anchor pairs among the
kernel reducers' (``selectivity.reducer_pivot_pairs`` and
``selectivity.reducer_anchor_pairs``, 0 for a join without the Algorithm 3
kernel), and the rest of theirs by where the scanned object lies
(``selectivity.reducer_own_cell_pairs`` and
``selectivity.reducer_other_cell_pairs``, the phase table's scan rows).  So
any
difference from the baseline is a change of behaviour, never noise: CI runs
this on the end-to-end smoke record, and a PR that moves a counted metric on
purpose shows it as a reviewed diff of ``results/e2e_smoke_counted.json``
(rewrite it with ``--update``).

    PYTHONPATH=src python -m benchmarks.e2e run --smoke --out e2e-smoke.json
    python benchmarks/check_counted.py e2e-smoke.json [--baseline FILE] [--update]

Exit 0 when every counted metric equals the baseline, 1 when one moved or a
workload is missing on either side, 2 when the record joined other inputs
(seed or scale differ).  Reads the record's JSON only — nothing of
``benchmarks/e2e`` or ``repro`` is imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COUNTED = ("selectivity_permille", "shuffle_mb", "recall_at_k")
#: spill layout counts, each summed over the workload's jobs
SPILL_LAYOUT = ("spill_segments", "merge_passes")
#: outcome totals, top-level in the record's ``counters``
TOTALS = ("master_distance_pairs",)
#: join counters, ``group.name`` in the record's ``counters`` (0 where never counted)
COUNTERS = (
    "selectivity.distance_pairs",
    "selectivity.assignment_pairs_skipped",
    "selectivity.reducer_pivot_pairs",
    "selectivity.reducer_anchor_pairs",
    "selectivity.reducer_own_cell_pairs",
    "selectivity.reducer_other_cell_pairs",
)
INPUTS = ("seed", "scale")
BASELINE = Path(__file__).resolve().parent.parent / "results" / "e2e_smoke_counted.json"


def counted_of(record: dict) -> dict:
    """The record reduced to what must repeat: its inputs and counted metrics."""
    return {
        **{key: record["environment"][key] for key in INPUTS},
        "workloads": {
            result["workload"]: {
                **{name: result["metrics"][name]["value"] for name in COUNTED},
                **{
                    name: sum(job[name] for job in result["counters"]["jobs"])
                    for name in SPILL_LAYOUT
                },
                **{name: result["counters"][name] for name in TOTALS},
                **{name: _counter(result["counters"]["counters"], name) for name in COUNTERS},
            }
            for result in record["results"]
        },
    }


def _counter(counters: dict, name: str) -> int:
    group, _, counter = name.partition(".")
    return counters.get(group, {}).get(counter, 0)


def differences(baseline: dict, got: dict) -> list[str]:
    """One line per counted metric that is not exactly the baseline's."""
    lines = []
    for workload in sorted(baseline["workloads"].keys() | got["workloads"].keys()):
        before, after = baseline["workloads"].get(workload), got["workloads"].get(workload)
        if before is None or after is None:
            lines.append(f"{workload}: missing from the {'baseline' if after else 'record'}")
            continue
        lines += [
            f"{workload}.{name}: {before.get(name)!r} -> {after.get(name)!r}"
            for name in COUNTED + SPILL_LAYOUT + TOTALS + COUNTERS
            if before.get(name) != after.get(name)
        ]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", type=Path, help="a `benchmarks.e2e run --out` file")
    parser.add_argument("--baseline", type=Path, default=BASELINE)
    parser.add_argument("--update", action="store_true", help="rewrite the baseline")
    args = parser.parse_args(argv)
    got = counted_of(json.loads(args.record.read_text()))
    if args.update:
        args.baseline.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
        return 0
    baseline = json.loads(args.baseline.read_text())
    if any(baseline[key] != got[key] for key in INPUTS):
        print(f"different inputs: baseline {[baseline[k] for k in INPUTS]}, "
              f"record {[got[k] for k in INPUTS]} ({', '.join(INPUTS)})")
        return 2
    moved = differences(baseline, got)
    for line in moved:
        print(line)
    print(f"{len(moved)} counted metric(s) differ from {args.baseline.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
