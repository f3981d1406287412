"""Cost-based adaptive execution: plan explanation and knob auto-tuning.

Built on the generic machinery in :mod:`repro.mapreduce.cost`, this module
knows the *joins*: per-algorithm volume formulas (how many records each
stage maps, shuffles and how many distance pairs its kernel computes, as a
function of ``|R|``, ``|S|`` and ``k``), the sampled pivot-cell histogram
that feeds skew-aware estimates, and the tuner that walks a small knob grid
and keeps the cheapest predicted plan.

Three guarantees shape the design:

* **Estimates are monotone.**  Every formula is built from sums, products
  and clamped mins of its size inputs, so predicted work never *decreases*
  when ``|R|``, ``|S|`` or ``k`` grows (asserted per registered join in
  ``tests/test_autotune.py``).
* **Tuning is deterministic.**  The histogram samples with a generator
  seeded from ``config.seed``; the grid walk breaks ties by
  ``(cost, knob values)``, so one box + one dataset + one config always
  tunes to the same knobs.
* **Tuning never changes answers.**  The tuner only moves knobs the
  algorithms document as result-preserving (pivot/reducer counts leave
  exact kNN results intact; ``stage_fusion`` and ``skew_split_threshold``
  are bit-identical by construction), and it respects every knob the user
  set explicitly — only fields still at their dataclass default are touched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.dataset import Dataset
from repro.mapreduce.cost import (
    DEFAULT_RATES,
    CalibratedRates,
    PlanCostEstimate,
    StageCostEstimate,
    calibrate,
)
from repro.mapreduce.engines import DEFAULT_ENGINE

from .base import JoinConfig
from .registry import get_join
from .zorder import ZOrderConfig

__all__ = [
    "sampled_cell_histogram",
    "estimate_join_cost",
    "explain_join",
    "auto_tune_config",
    "TuningChoice",
]

#: pivot-count grid the tuner considers (filtered per dataset size)
PIVOT_CANDIDATES = (16, 32, 64, 128, 256)

#: reducer-count grid the tuner considers
REDUCER_CANDIDATES = (2, 4, 8, 16)

#: sampled rows per dataset for the histogram — enough for load shares
HISTOGRAM_SAMPLE = 512

#: the tuner arms PGBJ's skew splitting when the heaviest group's sampled
#: share exceeds this multiple of the ideal ``1 / num_reducers`` share
SKEW_IMBALANCE_TRIGGER = 1.5


def sampled_cell_histogram(
    r: Dataset,
    s: Dataset,
    num_pivots: int,
    seed: int,
    sample_size: int = HISTOGRAM_SAMPLE,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated per-pivot-cell record counts ``(r_counts, s_counts)``.

    Samples ``sample_size`` rows of each dataset (seeded, deterministic),
    assigns them to pivots drawn from R by plain L2 — this is an *estimate*
    feeding cost formulas, so it deliberately bypasses the counted metric
    and the configured distance — and scales the sampled counts back up to
    the full dataset sizes.
    """
    rng = np.random.default_rng(seed)
    num_pivots = max(1, min(int(num_pivots), len(r)))
    pivot_rows = rng.choice(len(r), size=num_pivots, replace=False)
    pivots = np.asarray(r.points[np.sort(pivot_rows)], dtype=float)

    def assign(dataset: Dataset) -> np.ndarray:
        n = min(sample_size, len(dataset))
        if len(dataset) > n:
            rows = np.sort(rng.choice(len(dataset), size=n, replace=False))
        else:
            rows = np.arange(len(dataset))
        points = np.asarray(dataset.points[rows], dtype=float)
        dists = ((points[:, None, :] - pivots[None, :, :]) ** 2).sum(axis=-1)
        cells = np.argmin(dists, axis=1)
        counts = np.bincount(cells, minlength=num_pivots).astype(float)
        return counts * (len(dataset) / max(n, 1))

    return assign(r), assign(s)


def _greedy_group_loads(cell_loads: np.ndarray, num_groups: int) -> tuple[float, ...]:
    """Deterministic largest-first binning of per-cell loads into groups.

    Mirrors the shape (not the exact strategy) of the grouping step: the
    point is a realistic *heaviest group share* for the wall estimate, not
    the precise assignment.
    """
    num_groups = max(1, int(num_groups))
    loads = [0.0] * num_groups
    order = np.argsort(cell_loads, kind="stable")[::-1]
    for idx in order:
        target = min(range(num_groups), key=lambda g: (loads[g], g))
        loads[target] += float(cell_loads[idx])
    return tuple(loads)


def _record_bytes(dims: int) -> int:
    """Serialized record size: 8-byte id + 8 bytes per coordinate."""
    return 8 + 8 * int(dims)


def _list_bytes(k: int) -> int:
    """One candidate list on the wire: id + k (id, distance) pairs."""
    return 8 + 16 * int(k)


def _pair_histogram_cost(
    r_counts: np.ndarray, s_counts: np.ndarray, k: int
) -> np.ndarray:
    """Per-cell distance-pair estimate: local candidates + ring expansion."""
    return r_counts * (s_counts + 2.0 * k)


def estimate_join_cost(
    name: str,
    *,
    r_size: int,
    s_size: int,
    k: int,
    dims: int = 2,
    num_reducers: int = 4,
    num_pivots: int = 64,
    num_shifts: int = ZOrderConfig.num_shifts,
    histogram: tuple[np.ndarray, np.ndarray] | None = None,
    stage_fusion: bool = False,
    rates: CalibratedRates = DEFAULT_RATES,
    workers: int = 1,
) -> PlanCostEstimate:
    """Predicted per-stage cost of one registered join, from volumes alone.

    Scalar-only on purpose: the monotonicity tests sweep ``r_size`` /
    ``s_size`` / ``k`` without touching datasets, and the tuner prices a
    whole knob grid from one histogram pass.  ``histogram`` (when given)
    refines the PGBJ-family replication and skew picture; without it a
    uniform cell distribution is assumed.
    """
    get_join(name)  # validate the name against the registry
    R, S, k = max(int(r_size), 0), max(int(s_size), 0), max(int(k), 0)
    rec = _record_bytes(dims)
    n = max(1, int(num_reducers))
    blocks = max(1, int(np.sqrt(n)))
    P = max(1, int(num_pivots))
    if histogram is None:
        r_counts = np.full(P, R / P, dtype=float)
        s_counts = np.full(P, S / P, dtype=float)
    else:
        r_counts, s_counts = histogram

    def partition_stage() -> StageCostEstimate:
        return StageCostEstimate(
            name="partition",
            map_records=R + S,
            shuffle_records=R + S,
            shuffle_bytes=(R + S) * rec,
            # an upper bound since the assignment prunes with pivot-pivot
            # distances (core/partition.py): the paper's all-pairs count
            distance_pairs=float(R + S) * P,
        )

    def merge_stage(candidate_lists: int) -> StageCostEstimate:
        return StageCostEstimate(
            name="merge",
            map_records=0 if stage_fusion else candidate_lists,
            shuffle_records=candidate_lists,
            shuffle_bytes=candidate_lists * _list_bytes(k),
            distance_pairs=0.0,
            fused=stage_fusion,
        )

    stages: list[StageCostEstimate]
    if name == "broadcast":
        stages = [
            StageCostEstimate(
                name="broadcast-join",
                map_records=R + S,
                shuffle_records=R,
                shuffle_bytes=R * _list_bytes(k),
                distance_pairs=float(R) * S,
            )
        ]
    elif name in ("hbrj", "ijoin"):
        # sqrt(n) x sqrt(n) blocks: every object ships to `blocks` reducers;
        # the reducer index (R-tree / iDistance) visits ~k + a slice of its
        # S block per query, plus ijoin's per-block index build
        index_build = float(S) * blocks if name == "ijoin" else 0.0
        per_query = k + 0.1 * (S / blocks)
        stages = [
            StageCostEstimate(
                name="block-join",
                map_records=R + S,
                shuffle_records=(R + S) * blocks,
                shuffle_bytes=(R + S) * blocks * rec,
                distance_pairs=float(R) * blocks * per_query + index_build,
            ),
            merge_stage(R * blocks),
        ]
    elif name == "pbj":
        per_query = k + 0.05 * (S / blocks)
        stages = [
            partition_stage(),
            StageCostEstimate(
                name="block-join",
                map_records=R + S,
                shuffle_records=(R + S) * blocks,
                shuffle_bytes=(R + S) * blocks * rec,
                distance_pairs=float(R) * blocks * per_query,
            ),
            merge_stage(R * blocks),
        ]
    elif name == "zorder":
        shifts = max(1, int(num_shifts))
        stages = [
            StageCostEstimate(
                name="zorder-join",
                map_records=R + S,
                shuffle_records=(R + S) * shifts,
                shuffle_bytes=(R + S) * shifts * (rec + 8),
                distance_pairs=float(R) * shifts * 4.0 * k,
            ),
            merge_stage(R * shifts),
        ]
    elif name == "closest-pairs":
        per_query = k + 0.05 * (S / blocks)
        stages = [
            partition_stage(),
            StageCostEstimate(
                name="block",
                map_records=R + S,
                shuffle_records=(R + S) * blocks,
                shuffle_bytes=(R + S) * blocks * rec,
                distance_pairs=float(R) * blocks * per_query,
            ),
            merge_stage(n * k),
        ]
    elif name == "range-selection":
        stages = [
            StageCostEstimate(
                name="range-selection",
                map_records=R + S,
                shuffle_records=R + S,
                shuffle_bytes=(R + S) * rec,
                # (R + S) * P is an upper bound, as in partition_stage()
                distance_pairs=float(R + S) * P + 0.2 * float(R) * S,
            )
        ]
    elif name == "pgbj":
        # replication alpha: each S object ships to its own group plus the
        # rings k forces open — clamped to the group count
        alpha = min(float(n), 1.0 + 2.0 * k * P / max(S, 1))
        cell_pairs = _pair_histogram_cost(r_counts, s_counts, k)
        group_loads = _greedy_group_loads(cell_pairs, n)
        stages = [
            partition_stage(),
            StageCostEstimate(
                name="knn-join",
                map_records=0 if stage_fusion else R + S,
                shuffle_records=int(R + alpha * S),
                shuffle_bytes=int((R + alpha * S) * rec),
                distance_pairs=float(cell_pairs.sum()),
                reducer_loads=group_loads,
                fused=stage_fusion,
            ),
        ]
    else:
        # unknown/new join: price it like the generic block framework
        stages = [
            StageCostEstimate(
                name="block-join",
                map_records=R + S,
                shuffle_records=(R + S) * blocks,
                shuffle_bytes=(R + S) * blocks * rec,
                distance_pairs=float(R) * blocks * (k + 0.1 * (S / blocks)),
            ),
            merge_stage(R * blocks),
        ]
    return PlanCostEstimate(
        algorithm=name,
        stages=tuple(stages),
        rates=rates,
        workers=max(1, int(workers)),
        knobs=(
            ("num_reducers", n),
            ("num_pivots", P),
            ("stage_fusion", stage_fusion),
        ),
    )


def _effective_workers(config: JoinConfig) -> int:
    """Parallel slots the configured engine actually provides."""
    if config.engine == "serial":
        return 1
    return config.max_workers or os.cpu_count() or 1


def _config_knob(config: JoinConfig, knob: str, fallback: int) -> int:
    return int(getattr(config, knob, fallback))


def explain_join(
    name: str,
    r: Dataset,
    s: Dataset,
    config: JoinConfig | None = None,
    calibrated: bool = False,
) -> PlanCostEstimate:
    """Cost estimate of running ``name`` on these datasets with this config.

    ``calibrated=True`` prices with on-box measured rates (cached to disk by
    :func:`repro.mapreduce.cost.calibrate`); the default uses the
    deterministic built-in rates, which preserve plan *rankings*.
    """
    spec = get_join(name)
    if config is None:
        config = spec.config_class()
    num_pivots = _config_knob(config, "num_pivots", 64)
    histogram = (
        sampled_cell_histogram(r, s, num_pivots, config.seed)
        if len(r) and name in ("pgbj",)
        else None
    )
    return estimate_join_cost(
        name,
        r_size=len(r),
        s_size=len(s),
        k=config.k,
        dims=int(r.dimensions),
        num_reducers=config.num_reducers,
        num_pivots=num_pivots,
        num_shifts=_config_knob(config, "num_shifts", ZOrderConfig.num_shifts),
        histogram=histogram,
        stage_fusion=config.stage_fusion,
        rates=calibrate() if calibrated else DEFAULT_RATES,
        workers=_effective_workers(config),
    )


@dataclass(frozen=True)
class TuningChoice:
    """The tuner's verdict: the tuned config and how it was reached."""

    name: str
    config: JoinConfig
    chosen: tuple[tuple[str, object], ...]
    estimate: PlanCostEstimate
    considered: int

    def describe(self) -> str:
        rendered = ", ".join(f"{knob}={value}" for knob, value in self.chosen)
        return (
            f"auto-tune[{self.name}]: {rendered or 'no knobs moved'} "
            f"({self.considered} candidate plans priced, "
            f"predicted wall {self.estimate.wall_seconds():.4f}s)"
        )


def _is_default(config: JoinConfig, spec, knob: str) -> bool:
    """True when the user left ``knob`` at its dataclass default."""
    defaults = spec.config_class()
    return hasattr(config, knob) and getattr(config, knob) == getattr(defaults, knob)


def auto_tune_config(
    name: str,
    r: Dataset,
    s: Dataset,
    config: JoinConfig,
    calibrated: bool = False,
) -> TuningChoice:
    """Pick result-preserving knobs for ``name`` on these datasets.

    Walks the (pivots x reducers) grid through :func:`estimate_join_cost`
    (one sampled histogram per pivot count, seeded from ``config.seed``)
    and keeps the cheapest predicted plan, deterministic tie-break by knob
    value.  Only knobs still at their dataclass defaults move; the returned
    config additionally arms ``stage_fusion`` (bit-identical, strictly
    fewer staged bytes) and — for PGBJ under a dominant sampled cell —
    ``skew_split_threshold``.  ``auto_tune`` is cleared on the result so
    running it is exactly running the equivalent hand-tuned config.
    """
    spec = get_join(name)
    rates = calibrate() if calibrated else DEFAULT_RATES
    workers = _effective_workers(config)
    uses_pivots = hasattr(config, "num_pivots")

    tune_pivots = uses_pivots and _is_default(config, spec, "num_pivots")
    tune_reducers = _is_default(config, spec, "num_reducers")

    pivot_grid = [_config_knob(config, "num_pivots", 64)]
    if tune_pivots:
        ceiling = max(2, len(r) // 2)
        pivot_grid = sorted(
            {p for p in PIVOT_CANDIDATES if p <= ceiling} | set(pivot_grid)
        )
    reducer_grid = [config.num_reducers]
    if tune_reducers:
        ceiling = max(1, min(len(r) or 1, 4 * (os.cpu_count() or 1)))
        reducer_grid = sorted(
            {c for c in REDUCER_CANDIDATES if c <= ceiling} | set(reducer_grid)
        )

    best: tuple | None = None
    considered = 0
    for num_pivots in pivot_grid:
        histogram = (
            sampled_cell_histogram(r, s, num_pivots, config.seed)
            if uses_pivots and len(r)
            else None
        )
        for num_reducers in reducer_grid:
            estimate = estimate_join_cost(
                name,
                r_size=len(r),
                s_size=len(s),
                k=config.k,
                dims=int(r.dimensions),
                num_reducers=num_reducers,
                num_pivots=num_pivots,
                num_shifts=_config_knob(config, "num_shifts", ZOrderConfig.num_shifts),
                histogram=histogram,
                stage_fusion=True,
                rates=rates,
                workers=workers,
            )
            considered += 1
            ranked = (estimate.wall_seconds(), num_pivots, num_reducers)
            if best is None or ranked < best[0]:
                best = (ranked, num_pivots, num_reducers, estimate, histogram)
    assert best is not None
    _, num_pivots, num_reducers, estimate, histogram = best

    chosen: list[tuple[str, object]] = []
    updates: dict[str, object] = {"auto_tune": False}
    if not config.stage_fusion:
        updates["stage_fusion"] = True
        chosen.append(("stage_fusion", True))
    if tune_pivots and num_pivots != getattr(config, "num_pivots"):
        updates["num_pivots"] = num_pivots
        chosen.append(("num_pivots", num_pivots))
    if tune_reducers and num_reducers != config.num_reducers:
        updates["num_reducers"] = num_reducers
        chosen.append(("num_reducers", num_reducers))
    if (
        name == "pgbj"
        and histogram is not None
        and _is_default(config, spec, "skew_split_threshold")
    ):
        r_counts, _ = histogram
        total = float(r_counts.sum())
        group_loads = _greedy_group_loads(r_counts, num_reducers)
        trigger = min(1.0, SKEW_IMBALANCE_TRIGGER / max(num_reducers, 1))
        if total > 0 and max(group_loads) / total > trigger:
            threshold = round(trigger, 3)
            updates["skew_split_threshold"] = threshold
            chosen.append(("skew_split_threshold", threshold))
    if (
        config.engine == DEFAULT_ENGINE
        and _is_default(config, spec, "engine")
        and (os.cpu_count() or 1) > 1
        and estimate.work_seconds() > 0.05
    ):
        updates["engine"] = "threads-pooled"
        chosen.append(("engine", "threads-pooled"))

    tuned = config.with_changes(**updates)
    return TuningChoice(
        name=name,
        config=tuned,
        chosen=tuple(chosen),
        estimate=estimate,
        considered=considered,
    )
