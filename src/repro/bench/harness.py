"""Shared experiment harness: scaled workloads, runners, result records.

The paper's evaluation runs on 5.8M-object datasets and a 36-node cluster;
this harness reproduces every exhibit at a laptop scale (~1/1000 of the
objects, pivot counts scaled likewise) while keeping every *ratio* the
experiments are about.  Set the ``REPRO_BENCH_SCALE`` environment variable to
grow or shrink all workloads together (e.g. ``REPRO_BENCH_SCALE=4`` for a
longer, higher-resolution run).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.dataset import Dataset
from repro.datasets import expand_dataset, generate_forest, generate_osm
from repro.joins import JoinOutcome, get_join, run_join
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.engines import DEFAULT_ENGINE, available_engines

__all__ = [
    "bench_scale",
    "bench_engine",
    "bench_workers",
    "bench_memory_budget",
    "bench_kernel_provider",
    "bench_spill_codec",
    "bench_chaos",
    "scaled_pivots",
    "pivot_sweep",
    "forest_workload",
    "osm_workload",
    "default_cluster",
    "run_algorithm",
    "ExperimentResult",
    "DEFAULTS",
]

#: paper-default knobs, pre-scaled (paper value in the comment)
DEFAULTS = {
    "forest_base": 300,  # Forest has 580K objects; x10 expansion is default
    "forest_times": 10,  # "Forest x10"
    "osm_objects": 3000,  # 10M records
    "k": 10,  # k = 10
    "num_reducers": 9,  # 36 computing nodes
    "num_pivots": 128,  # |P| = 4000
    "pivot_counts": (64, 128, 192, 256),  # {2000, 4000, 6000, 8000}
    "split_size": 2048,
}


def bench_scale() -> float:
    """Global workload multiplier from ``REPRO_BENCH_SCALE`` (default 1.0)."""
    try:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        raise ValueError("REPRO_BENCH_SCALE must be a number") from None
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return scale


def bench_engine() -> str:
    """Execution engine for bench runs (``REPRO_ENGINE``, default serial).

    All engines — including the persistent ``threads-pooled`` /
    ``processes-pooled`` backends — yield identical results, counters and
    shuffle accounting; task durations are measured as per-task CPU seconds,
    so the simulated running times stay comparable (up to timing noise) too.
    The engine used is stamped into every saved record.
    """
    engine = os.environ.get("REPRO_ENGINE", DEFAULT_ENGINE)
    if engine not in available_engines():
        raise ValueError(
            f"REPRO_ENGINE must be one of {', '.join(available_engines())}"
        )
    return engine


def bench_workers() -> int | None:
    """Worker count for parallel engines (``REPRO_WORKERS``, default CPUs)."""
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError("REPRO_WORKERS must be an integer") from None
    if workers < 1:
        raise ValueError("REPRO_WORKERS must be >= 1")
    return workers


def bench_memory_budget() -> int | None:
    """Spill budget for bench runs (``REPRO_MEMORY_BUDGET``, default in-RAM).

    Setting it switches every bench join to the out-of-core spill shuffle
    with that per-map-task buffer (bytes).  The CI spill-equivalence leg sets
    a tiny value so every job of every exhibit is forced through segment
    files and the external merge — results and accounting must not move.
    """
    raw = os.environ.get("REPRO_MEMORY_BUDGET", "")
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError("REPRO_MEMORY_BUDGET must be an integer") from None
    if budget < 0:
        raise ValueError("REPRO_MEMORY_BUDGET must be >= 0")
    return budget


def bench_kernel_provider() -> str:
    """Kernel provider for bench runs (``REPRO_KERNEL_PROVIDER``, default auto).

    All providers produce bit-identical results, ``pairs_computed`` and
    shuffle accounting; only wall-clock moves.  The CI ``kernels-native`` leg
    sets ``numba`` so every exhibit exercises the compiled kernels.  The
    provider used is stamped into every saved record.
    """
    from repro.joins.kernel_providers import KERNEL_PROVIDERS

    provider = os.environ.get("REPRO_KERNEL_PROVIDER", "auto")
    if provider not in KERNEL_PROVIDERS:
        raise ValueError(
            f"REPRO_KERNEL_PROVIDER must be one of {', '.join(KERNEL_PROVIDERS)}"
        )
    return provider


def bench_spill_codec() -> str:
    """Segment codec for bench runs (``REPRO_SPILL_CODEC``, default none).

    Setting a codec switches every bench join to the spill shuffle with
    compressed segment payloads.  Shuffle accounting is measured on the
    uncompressed records, so results and every counter stay identical.
    """
    from repro.mapreduce.shuffle import SEGMENT_CODECS

    codec = os.environ.get("REPRO_SPILL_CODEC", "none")
    if codec not in SEGMENT_CODECS:
        raise ValueError(
            f"REPRO_SPILL_CODEC must be one of {', '.join(SEGMENT_CODECS)}"
        )
    return codec


def bench_auto_tune() -> bool:
    """Cost-model auto-tuning for bench runs (``REPRO_AUTO_TUNE``, off).

    When armed, every bench join runs through the tuner first — knobs the
    experiment left at their config defaults are picked by the cost model.
    Results are bit-identical to the equivalent hand-tuned configs (the CI
    ``autotune`` leg runs the equivalence suites this way).
    """
    return os.environ.get("REPRO_AUTO_TUNE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def bench_stage_fusion() -> bool:
    """Map-stage fusion for bench runs (``REPRO_STAGE_FUSION``, off)."""
    return os.environ.get("REPRO_STAGE_FUSION", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def bench_plan_cache_dir() -> str | None:
    """Persistent plan-cache directory (``REPRO_PLAN_CACHE_DIR``, off)."""
    return os.environ.get("REPRO_PLAN_CACHE_DIR") or None


def bench_chaos():
    """Chaos plan for bench runs (``REPRO_CHAOS``, default off).

    Setting a spec (e.g. ``crash:rate=0.2:attempt=1;corrupt:rate=0.1``)
    injects deterministic faults into every job of every bench join.  The
    fault-tolerance contract is that results, counters and shuffle
    accounting are *bit-identical* to a fault-free run — the CI ``chaos``
    leg runs the equivalence suites under a fixed-seed fault mix to prove
    it.  Returns a :class:`~repro.mapreduce.faults.ChaosPlan` or ``None``.
    """
    from repro.mapreduce.faults import ChaosPlan

    return ChaosPlan.from_env()


def scaled(value: int, minimum: int = 8) -> int:
    """Apply the global scale to an object count."""
    return max(minimum, int(value * bench_scale()))


def scaled_pivots(count: int) -> int:
    """Apply the global scale to a pivot count (pivots track data size)."""
    return max(4, int(count * bench_scale()))


def pivot_sweep() -> tuple[int, ...]:
    """The Table 2 / Figure 6-7 pivot-count sweep at the current scale."""
    return tuple(scaled_pivots(count) for count in DEFAULTS["pivot_counts"])


def forest_workload(times: int | None = None, dims: int = 10, seed: int = 0) -> Dataset:
    """The default "Forest x t" replica (self-join workload)."""
    if times is None:
        times = DEFAULTS["forest_times"]
    base = generate_forest(scaled(DEFAULTS["forest_base"]), dims=dims, seed=seed)
    return expand_dataset(base, times)


def osm_workload(seed: int = 0) -> Dataset:
    """The OSM replica (2-d clustered with payloads)."""
    return generate_osm(scaled(DEFAULTS["osm_objects"]), seed=seed)


def default_cluster(num_nodes: int | None = None) -> Cluster:
    """Paper configuration: one map and one reduce slot per node."""
    return Cluster(num_nodes=num_nodes or DEFAULTS["num_reducers"])


# -- the algorithm runner ------------------------------------------------------


def _engine_params() -> dict[str, Any]:
    """Engine/shuffle settings every bench runner inherits (env-overridable)."""
    params: dict[str, Any] = {
        "engine": bench_engine(),
        "max_workers": bench_workers(),
        "kernel_provider": bench_kernel_provider(),
    }
    budget = bench_memory_budget()
    if budget is not None:
        params["memory_budget"] = budget
    codec = bench_spill_codec()
    if codec != "none":
        params["spill_codec"] = codec
    chaos = bench_chaos()
    if chaos is not None:
        params["chaos"] = chaos
    if bench_auto_tune():
        params["auto_tune"] = True
    if bench_stage_fusion():
        params["stage_fusion"] = True
    cache_dir = bench_plan_cache_dir()
    if cache_dir is not None:
        params["plan_cache_dir"] = cache_dir
    return params


def run_algorithm(name: str, r: Dataset, s: Dataset, **overrides) -> JoinOutcome:
    """Run any registered join with bench defaults, per-experiment overrides.

    The algorithm's :class:`~repro.joins.registry.JoinSpec` filters the
    default knob union down to what its config accepts, so one runner serves
    every algorithm.
    Overrides pass straight through — including the plan knobs
    (``plan_cache`` to share stage results across a sweep,
    ``plan_concurrency=False`` to force sequential stages) and
    ``shared_executor`` for one warm pool across a pipeline.  A knob this
    algorithm's config doesn't accept is dropped only if *some* registered
    algorithm accepts it (cross-algorithm sweeps hand every runner the same
    overrides); a name no config knows is a typo and raises.
    """
    from repro.joins.registry import known_config_knobs

    unknown = set(overrides) - known_config_knobs()
    if unknown:
        raise TypeError(
            f"unknown join knob(s) {sorted(unknown)}; no registered "
            "algorithm's config accepts them"
        )
    spec = get_join(name)
    params = {
        "k": DEFAULTS["k"],
        "num_reducers": DEFAULTS["num_reducers"],
        "num_pivots": scaled_pivots(DEFAULTS["num_pivots"]),
        "split_size": DEFAULTS["split_size"],
        **_engine_params(),
    }
    params.update(overrides)
    return run_join(spec.name, r, s, spec.make_config(**params))


# -- result records ------------------------------------------------------------


@dataclass
class ExperimentResult:
    """One exhibit's reproduction: rendered text plus raw JSON data."""

    exhibit: str  # e.g. "table2", "fig8"
    title: str
    text: str  # paper-style rendered tables
    data: dict[str, Any] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)
    #: execution backend the sweep ran on — engine column of every record
    engine: str = field(default_factory=bench_engine)
    #: kernel provider the sweep ran on — provider column of every record
    kernel_provider: str = field(default_factory=bench_kernel_provider)

    def save(self, results_dir: str | Path = "results") -> Path:
        """Write the JSON record under ``results/<exhibit>.json``."""
        directory = Path(results_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.exhibit}.json"
        payload = {
            "exhibit": self.exhibit,
            "title": self.title,
            "engine": self.engine,
            "kernel_provider": self.kernel_provider,
            "params": self.params,
            "data": self.data,
            "text": self.text,
        }
        path.write_text(json.dumps(payload, indent=2, default=float))
        return path

    def show(self) -> str:
        """Header plus rendered tables, ready to print."""
        bar = "=" * 72
        return f"{bar}\n{self.exhibit.upper()}: {self.title}\n{bar}\n{self.text}\n"
