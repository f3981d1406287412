"""The benchmark's own correctness oracle: chunked brute-force kNN in plain
numpy (no ``repro.joins`` kernel, no ``repro.core.distance`` metric), plus the
per-operation checks that use it.

A join outcome is reduced to a :class:`ResultDigest` right after it is timed
(small, so keeping one per round does not move peak RSS); the oracle is
computed once, after timing, and every digest is checked against it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["ResultDigest", "brute_force_knn", "check_digest", "counter_snapshot", "digest_outcome"]

_CHUNK_ROWS = 512


def brute_force_knn(r_points: np.ndarray, s_points: np.ndarray, k: int) -> np.ndarray:
    """Ascending distances from every row of R to its k nearest rows of S.

    Squared differences are accumulated one dimension at a time over
    ``(_CHUNK_ROWS, |S|)`` tiles, so memory stays flat in the dimensionality.
    """
    r_points = np.asarray(r_points, dtype=np.float64)
    s_points = np.asarray(s_points, dtype=np.float64)
    out = np.empty((r_points.shape[0], k), dtype=np.float64)
    for start in range(0, r_points.shape[0], _CHUNK_ROWS):
        chunk = r_points[start : start + _CHUNK_ROWS]
        squared = np.zeros((chunk.shape[0], s_points.shape[0]), dtype=np.float64)
        for dim in range(chunk.shape[1]):
            diff = chunk[:, dim, None] - s_points[None, :, dim]
            diff *= diff
            squared += diff
        nearest = np.partition(squared, k - 1, axis=1)[:, :k]
        nearest.sort(axis=1)
        out[start : start + _CHUNK_ROWS] = np.sqrt(nearest)
    return out


@dataclass
class ResultDigest:
    """What is kept of one join outcome for verification.

    ``ids``/``dists`` are ``(|R|, k)`` in ascending ``r_ids`` order, padded
    with -1 / inf where a neighbour list is short or missing.
    """

    r_ids: np.ndarray
    ids: np.ndarray
    dists: np.ndarray
    counters: dict
    sha1: str


def counter_snapshot(outcome) -> dict:
    """Every deterministic count of an outcome — must repeat exactly."""
    jobs = []
    for stats in outcome.job_stats:
        jobs.append(
            {
                "job": stats.job_name,
                "map_tasks": len(stats.map_tasks),
                "reduce_tasks": len(stats.reduce_tasks),
                "map_input_records": sum(t.input_records for t in stats.map_tasks),
                "map_output_records": sum(t.output_records for t in stats.map_tasks),
                "reduce_input_records": sum(t.input_records for t in stats.reduce_tasks),
                "reduce_output_records": sum(t.output_records for t in stats.reduce_tasks),
                "shuffle_records": stats.shuffle_records,
                "shuffle_bytes": stats.shuffle_bytes,
                "output_bytes": stats.output_bytes,
                "spill_segments": stats.spill_segments,
                "spill_bytes": stats.spill_bytes,
                "merge_passes": stats.merge_passes,
            }
        )
    return {
        "distance_pairs": int(outcome.distance_pairs),
        "master_distance_pairs": int(outcome.master_distance_pairs),
        "counters": outcome.counters.as_dict(),
        "jobs": jobs,
    }


def digest_outcome(outcome, r_ids: np.ndarray, k: int) -> ResultDigest:
    """Reduce an outcome to padded neighbour matrices over the expected R ids."""
    r_ids = np.sort(np.asarray(r_ids, dtype=np.int64))
    ids = np.full((r_ids.size, k), -1, dtype=np.int64)
    dists = np.full((r_ids.size, k), np.inf, dtype=np.float64)
    result = outcome.result
    extra = len(result) - sum(1 for r_id in r_ids.tolist() if r_id in result)
    for row, r_id in enumerate(r_ids.tolist()):
        if r_id not in result:
            continue
        neighbor_ids, neighbor_dists = result.neighbors_of(r_id)
        width = min(k, neighbor_ids.size)
        ids[row, :width] = neighbor_ids[:width]
        dists[row, :width] = neighbor_dists[:width]
        if neighbor_ids.size > k:
            extra += 1
    counters = counter_snapshot(outcome)
    counters["unexpected_result_rows"] = extra
    sha1 = hashlib.sha1()
    for array in (r_ids, ids, dists):
        sha1.update(np.ascontiguousarray(array).tobytes())
    return ResultDigest(r_ids, ids, dists, counters, sha1.hexdigest())


def check_digest(
    digest: ResultDigest,
    oracle: np.ndarray,
    r_points: np.ndarray,
    s_points: np.ndarray,
    s_ids: np.ndarray,
    exact: bool,
) -> tuple[list[str], float]:
    """``(problems, recall)`` of one outcome against the oracle distances.

    Every workload: no unexpected rows, every reported neighbour is a real S
    object and its reported distance is the true one.  Exact workloads: all R
    ids present with k neighbours each and the whole ascending distance row
    equal to the oracle's (``rtol=1e-9``).  Recall is distance-based, the
    ``recall_against`` way: a neighbour counts when it lies within the exact
    k-th radius (+1e-9); a missing r contributes k misses.
    """
    problems: list[str] = []
    k = oracle.shape[1]
    if digest.counters["unexpected_result_rows"]:
        problems.append(f"{digest.counters['unexpected_result_rows']} unexpected result rows")
    present = digest.ids >= 0
    row_of_id = {int(s_id): row for row, s_id in enumerate(s_ids.tolist())}
    flat_ids = digest.ids[present]
    s_rows = np.fromiter((row_of_id.get(int(i), -1) for i in flat_ids), np.int64, flat_ids.size)
    if (s_rows < 0).any():
        problems.append(f"{int((s_rows < 0).sum())} neighbour ids are not S objects")
    else:
        r_rows = np.nonzero(present)[0]
        diff = r_points[r_rows] - s_points[s_rows]
        true = np.sqrt((diff * diff).sum(axis=1))
        wrong = ~np.isclose(true, digest.dists[present], rtol=1e-9, atol=1e-12)
        if wrong.any():
            problems.append(f"{int(wrong.sum())} reported distances differ from the true ones")
    radius = oracle[:, -1:] + 1e-9
    recall = float((digest.dists <= radius).sum()) / (oracle.shape[0] * k)
    if exact:
        short = int((~present).any(axis=1).sum())
        if short:
            problems.append(f"{short} R objects miss neighbours (want {k} each)")
        elif not np.allclose(digest.dists, oracle, rtol=1e-9, atol=1e-12):
            bad = int((~np.isclose(digest.dists, oracle, rtol=1e-9, atol=1e-12)).any(axis=1).sum())
            problems.append(f"{bad} R objects have neighbour distances unlike brute force")
    return problems, recall
