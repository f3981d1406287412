"""``compare A.json B.json``: judge result set B against result set A.

Per (metric, workload) the bound comes from ``BENCHMARK.json``; that of
``join_wall_s``, which has none there, is the issue's 10 % (``JOIN_WALL``).
Verdicts:

``same``        B's median is within the bound of A's, and the runs repeat
                tighter than the bound;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``unresolved``  the quartile distance of either side is wider than the bound
                and the two quartile ranges overlap — the runs cannot tell.

The metrics the program counts (selectivity, shuffle bytes, recall) repeat
exactly for one input, so any difference at all is ``worse`` or ``better``,
whatever the bound.  Two sets of different inputs (seed or sizes) measure
different programs and are refused.
"""

from __future__ import annotations

import json
import statistics

from . import JOIN_WALL

__all__ = ["EXACT_METRICS", "compare_files", "judge", "quartiles"]

#: counted by the program, not timed: identical inputs give identical values
EXACT_METRICS = ("selectivity_permille", "shuffle_mb", "recall_at_k")


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is all three."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def judge(
    base: list[float], candidate: list[float], better: str, bound: float, exact: bool = False
) -> dict:
    """Verdict for one metric on one workload from the two sides' samples."""
    base_q1, base_median, base_q3 = quartiles(base)
    cand_q1, cand_median, cand_q3 = quartiles(candidate)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base_median) or 1.0
    worse_by = sign * (cand_median - base_median) / scale
    spread = max(base_q3 - base_q1, cand_q3 - cand_q1) / scale
    overlap = cand_q1 <= base_q3 and base_q1 <= cand_q3
    if exact:
        verdict = "same" if worse_by == 0 else ("worse" if worse_by > 0 else "better")
    elif spread > bound and overlap:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "base": (base_q1, base_median, base_q3),
        "candidate": (cand_q1, cand_median, cand_q3),
        "ratio": cand_median / base_median if base_median else float("nan"),
        "spread": spread,
        "verdict": verdict,
    }


def _samples(result: dict, metric: str) -> list[float] | None:
    samples = result.get("samples", {}).get(metric)
    if samples:
        return samples
    measured = result["metrics"].get(metric)
    return None if measured is None or measured["value"] is None else [measured["value"]]


def compare_files(base_path: str, candidate_path: str, spec: dict) -> int:
    """Print the comparison; 1 when any pairing is ``worse``, 2 when the two
    sets did not join the same inputs, else 0."""
    with open(base_path) as stream:
        base = json.load(stream)
    with open(candidate_path) as stream:
        candidate = json.load(stream)
    for key in ("seed", "scale"):
        ours, theirs = base["environment"][key], candidate["environment"][key]
        if ours != theirs:
            print(f"cannot compare: {key} is {ours} in the base set and {theirs} in the candidate")
            return 2
    print(f"base      {base_path}  (git {base['environment']['git_sha']})")
    print(f"candidate {candidate_path}  (git {candidate['environment']['git_sha']})")
    candidates = {result["workload"]: result for result in candidate["results"]}
    header = f"{'workload':22s} {'metric':22s} {'base median [q1, q3]':>32s} "
    print(header + f"{'candidate median [q1, q3]':>32s} {'cand/base':>10s} {'bound':>6s}  verdict")
    verdicts: list[str] = []
    for base_result in base["results"]:
        workload = base_result["workload"]
        other = candidates.get(workload)
        if other is None:
            print(f"{workload:22s} missing from the candidate set")
            verdicts.append("worse")
            continue
        rows = [(e["name"], e["better"], e["bound"]) for e in (JOIN_WALL, *spec["end_to_end"])]
        for metric, better, bound in rows:
            ours, theirs = _samples(base_result, metric), _samples(other, metric)
            if ours is None or theirs is None:
                print(f"{workload:22s} {metric:22s} missing on one side")
                verdicts.append("worse")
                continue
            outcome = judge(ours, theirs, better, bound, exact=metric in EXACT_METRICS)
            verdicts.append(outcome["verdict"])
            shown = [
                "{1:.5g} [{0:.5g}, {2:.5g}]".format(*outcome[side])
                for side in ("base", "candidate")
            ]
            print(
                f"{workload:22s} {metric:22s} {shown[0]:>32s} {shown[1]:>32s} "
                f"{outcome['ratio']:>10.4f} {bound:>6.2f}  {outcome['verdict']}"
            )
        failed = [r["ops_failed"] / r["ops_attempted"] for r in (base_result, other)]
        verdict = "same"
        if failed[1] != failed[0]:
            verdict = "worse" if failed[1] > failed[0] else "better"
        verdicts.append(verdict)
        print(
            f"{workload:22s} {'ops_failed_share':22s} {failed[0]:>32.4g} {failed[1]:>32.4g} "
            f"{'':>10s} {0:>6.2f}  {verdict}"
        )
    counts = {v: verdicts.count(v) for v in ("same", "better", "unresolved", "worse")}
    print("verdicts:", ", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["worse"] else 0
