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
from repro.joins import JoinConfig, JoinOutcome, get_join, run_join
from repro.joins.base import knobs_from_env
from repro.mapreduce.cluster import Cluster

__all__ = [
    "bench_scale",
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


def run_algorithm(name: str, r: Dataset, s: Dataset, **overrides) -> JoinOutcome:
    """Run any registered join with bench defaults, the execution knobs the
    environment sets (:func:`~repro.joins.base.knobs_from_env` — how a CI leg
    puts every bench join on its engine, budget or fault mix) and
    per-experiment overrides, later ones winning.

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
        **knobs_from_env(config_class=spec.config_class),
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
    engine: str = field(default_factory=lambda: JoinConfig(**knobs_from_env()).engine)
    #: kernel provider the sweep ran on — provider column of every record
    kernel_provider: str = field(
        default_factory=lambda: JoinConfig(**knobs_from_env()).kernel_provider
    )

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
