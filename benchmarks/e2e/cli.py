"""``python -m benchmarks.e2e run|trace|compare`` — the entry point for people.

``run`` measures the end-to-end metrics of the chosen workloads (all four by
default), ``trace`` the per-layer metrics and a stacked breakdown, ``compare``
judges two result files by the bounds in ``BENCHMARK.json``.  ``run`` and
``trace`` exit 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import JOIN_WALL
from .compare import compare_files
from .driver import EXTRA_SETUPS, environment_stamp, load_spec, run_workload

__all__ = ["main"]

DEFAULT_ROUNDS = 21
TRACE_REPETITIONS = 3


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_metrics(result: dict, declared: list[dict]) -> None:
    """Every declared metric of one workload, by name, with its unit."""
    print(f"\n== {result['workload']} ==")
    for entry in declared:
        measured = result["metrics"].get(entry["name"])
        if measured is None:
            print(f"  {entry['name']:34s} {'missing':>12s}")
            continue
        line = f"  {entry['name']:34s} {_format(measured['value']):>12s} {entry['unit']}"
        notes = []
        if "q1" in measured:
            notes.append(f"q1 {measured['q1']:.4g}, q3 {measured['q3']:.4g}, n={measured['n']}")
        elif "n" in measured:
            notes.append(f"median of {measured['n']}")
        if notes:
            line += f"   ({'; '.join(notes)})"
        print(line)
    attempted, failed = result["ops_attempted"], result["ops_failed"]
    print(f"  {'ops_attempted':34s} {attempted:>12d} count")
    print(f"  {'ops_failed_share':34s} {_format(failed / attempted):>12s} ratio")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def print_breakdown(result: dict) -> None:
    """Where one traced join's wall clock went (paper Fig. 6, finer): self
    time per span name, largest first, then what no span covers."""
    breakdown = result.get("breakdown") or {}
    if not breakdown:
        return
    wall = breakdown["wall_s"]
    print(f"  -- self time of the median traced join ({wall:.3f} s) --")
    accounted = 0.0
    for name, seconds in breakdown["self_s"].items():
        accounted += seconds
        bar = "#" * round(40 * seconds / wall)
        calls = breakdown["calls"].get(name, 0)
        share = 100 * seconds / wall
        print(f"  {name:30s} {seconds:8.3f} s {share:5.1f} %  {calls:>7d} calls  {bar}")
    rest = wall - accounted
    print(f"  {'(unaccounted)':30s} {rest:8.3f} s {100 * rest / wall:5.1f} %")


def _measure_all(args, trace: bool) -> int:
    spec = load_spec()
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    rounds = args.rounds
    if args.smoke:
        rounds = 1 if trace else 2
    stamp = environment_stamp(args.seed, args.smoke, rounds)
    print("environment:", json.dumps(stamp))
    results = []
    for name in names:
        spans_out = getattr(args, "spans_out", None)
        result = run_workload(
            name,
            seed=args.seed,
            smoke=args.smoke,
            trace=trace,
            rounds=rounds,
            extra_setups=0 if (trace or args.smoke) else EXTRA_SETUPS,
            # one spans file per workload: the kept repetition of each
            spans_out=spans_out and f"{spans_out}.{name}.json",
        )
        results.append(result)
        print_metrics(result, spec["per_layer"] if trace else [JOIN_WALL, *spec["end_to_end"]])
        if trace:
            print_breakdown(result)
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(
                {"environment": stamp, "mode": "trace" if trace else "run", "results": results},
                stream,
                indent=1,
            )
            stream.write("\n")
    return 1 if any(result["ops_failed"] for result in results) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, rounds, text in (
        ("run", DEFAULT_ROUNDS, "timed joins per workload (after one warm-up)"),
        ("trace", TRACE_REPETITIONS, "traced repetitions per workload; the median one is kept"),
    ):
        sub = commands.add_parser(command)
        sub.add_argument("--workload", action="append", help="repeatable; default: all four")
        sub.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")
        sub.add_argument("--rounds", type=int, default=rounds, help=f"{text} (default {rounds})")
        sub.add_argument("--smoke", action="store_true", help="1/8 sizes, 2 rounds, verified")
        sub.add_argument("--out", help="write the result set here as JSON")
    commands.choices["trace"].add_argument(
        "--spans-out", metavar="PREFIX", help="write the kept spans to PREFIX.<workload>.json"
    )
    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("candidate")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.base, args.candidate, load_spec())
    return _measure_all(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
