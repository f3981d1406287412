"""The unified join registry: every algorithm as a declarative plan builder.

Each join module registers one :class:`JoinSpec` describing how to *plan*
the algorithm — a callable producing a :class:`JoinPlan`: the
:class:`~repro.mapreduce.plan.JobGraph` of its MapReduce stages plus an
``assemble`` function that turns the executed plan into the algorithm's
outcome object.  Everything downstream is generic:

* :func:`run_join` — the one way to run a join: resolve the spec, check the
  inputs at the boundary, build the plan, execute it on one runtime with the
  :class:`~repro.mapreduce.plan.PlanScheduler` (concurrent stages unless
  ``config.plan_concurrency`` is off, stage reuse when ``config.plan_cache``
  is set), assemble the outcome.
* :func:`run_join_plans` — several plans fused into one graph and executed
  together, so *independent* joins overlap stage-by-stage on one shared
  runtime (the multi-join / sweep scenario).
* the CLI derives its ``--algorithm`` choices and dispatch from
  :func:`available_joins` instead of a hand-maintained if/elif chain.
"""

from __future__ import annotations

import hashlib
import inspect
from contextlib import ExitStack
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable

import numpy as np

from repro.core.dataset import Dataset
from repro.mapreduce.plan import JobGraph, PlanCache, PlanRun, PlanScheduler

from .base import JoinConfig, check_join_inputs

__all__ = [
    "JoinPlan",
    "JoinSpec",
    "register_join",
    "get_join",
    "available_joins",
    "plan_join",
    "run_join",
    "run_join_plans",
    "execute_join_plan",
    "dataset_fingerprint",
    "plan_identity",
]


def dataset_fingerprint(dataset: Dataset) -> tuple:
    """Content fingerprint of a dataset, for plan-stage cache keys.

    Hashes the coordinates, ids and (if present) payload sizes — everything
    that can reach a job's outputs or its shuffle accounting — plus the
    cosmetic name so two differently-labelled copies never alias.
    """
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(dataset.points).tobytes())
    digest.update(np.ascontiguousarray(dataset.ids).tobytes())
    if dataset.payload_bytes is not None:
        digest.update(np.ascontiguousarray(dataset.payload_bytes).tobytes())
    return (dataset.name, len(dataset), int(dataset.dimensions), digest.hexdigest())


@dataclass
class JoinPlan:
    """One join, planned: its stage graph and how to read the result.

    ``assemble`` receives the completed :class:`~repro.mapreduce.plan.PlanRun`
    and builds the outcome object (a :class:`~repro.joins.base.JoinOutcome`
    for the kNN joins, the operator-specific outcome otherwise); it holds
    the plan's stage handles in its closure, so a plan keeps assembling
    correctly even after its graph is fused into a larger one.  The graph's
    ``resources`` (DFS instances staging chained intermediates) are held
    open for exactly the execution's duration.  ``identity`` is the
    :func:`plan_identity` digest stage checkpoints are bound to, stamped by
    :func:`plan_join` only when the config names a ``checkpoint_dir``
    (fingerprinting the datasets is not free).
    """

    graph: JobGraph
    assemble: Callable[[PlanRun], Any]
    identity: str = ""


@dataclass(frozen=True)
class JoinSpec:
    """Registry row for one algorithm.

    ``kind`` distinguishes the exact/approximate kNN joins (``"knn"`` —
    uniform ``plan(r, s, config)`` signature and a ``JoinOutcome``) from the
    related operators (``"operator"`` — closest pairs, range selection),
    whose planners take extra keyword arguments and return their own outcome
    types.  The CLI lists kind ``"knn"``.
    """

    name: str
    config_class: type[JoinConfig]
    plan: Callable[..., JoinPlan]
    kind: str = "knn"
    summary: str = ""

    def make_config(self, **kwargs) -> JoinConfig:
        """Build this join's config from a superset of keyword knobs.

        Drops knobs the config class does not accept (the CLI collects the
        union of every algorithm's flags); classes taking ``**kwargs``
        additionally accept every base :class:`JoinConfig` field.
        """
        parameters = inspect.signature(self.config_class).parameters
        takes_var = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        base_fields = {f.name for f in dataclass_fields(JoinConfig)}
        accepted = {
            key: value
            for key, value in kwargs.items()
            if key in parameters or (takes_var and key in base_fields)
        }
        return self.config_class(**accepted)


#: name -> spec; populated by the join modules at import time
JOINS: dict[str, JoinSpec] = {}


def known_config_knobs() -> frozenset[str]:
    """Every keyword any registered join's config accepts.

    The guard rail behind knob-union entry points (the CLI, the bench
    harness): a knob outside this union is a typo, not a knob some *other*
    algorithm consumes, and should fail loudly instead of being filtered
    into a silent no-op.
    """
    knobs = {field.name for field in dataclass_fields(JoinConfig)}
    for spec in JOINS.values():
        knobs.update(inspect.signature(spec.config_class).parameters)
    knobs.discard("kwargs")
    return frozenset(knobs)


def register_join(spec: JoinSpec) -> JoinSpec:
    """Register an algorithm (module-import time); last registration wins."""
    JOINS[spec.name] = spec
    return spec


def get_join(name: str) -> JoinSpec:
    """Resolve a registered join by name (case-insensitive)."""
    try:
        return JOINS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {', '.join(available_joins())}"
        ) from None


def available_joins(kind: str | None = None) -> tuple[str, ...]:
    """Registered algorithm names (optionally one kind), sorted."""
    return tuple(
        sorted(name for name, spec in JOINS.items() if kind is None or spec.kind == kind)
    )


def _resolve_config(spec: JoinSpec, config: JoinConfig | None) -> JoinConfig:
    if config is None:
        return spec.config_class()
    if not isinstance(config, spec.config_class):
        raise TypeError(
            f"{spec.name} requires a {spec.config_class.__name__}, "
            f"got {type(config).__name__}"
        )
    return config


def plan_identity(
    name: str, r: Dataset, s: Dataset, config: JoinConfig, extra: dict[str, Any]
) -> str:
    """Digest of everything a plan's stage results can depend on: the join,
    both datasets by content, the planner's extra arguments and *every*
    comparing config field but ``checkpoint_dir`` itself — not a hand-picked
    "semantic" subset, so a new knob cannot be forgotten (the price: changing
    an execution-only knob between a kill and its resume re-runs the stages)."""
    knobs = [
        (spec.name, repr(getattr(config, spec.name)))
        for spec in dataclass_fields(config)
        if spec.compare and spec.name != "checkpoint_dir"
    ]
    identity = (
        name.lower(),
        dataset_fingerprint(r),
        dataset_fingerprint(s),
        type(config).__name__,
        knobs,
        sorted((key, repr(value)) for key, value in extra.items()),
    )
    return hashlib.sha1(repr(identity).encode()).hexdigest()


def _checked(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None
) -> tuple[JoinSpec, JoinConfig]:
    """Resolve the spec and config, and pass the inputs through the boundary
    check — the one place it runs, once per planned join."""
    spec = get_join(name)
    config = _resolve_config(spec, config)
    check_join_inputs(r, s, config.k if spec.kind == "knn" else None)
    return spec, config


def _build_plan(
    spec: JoinSpec, r: Dataset, s: Dataset, config: JoinConfig, extra: dict[str, Any]
) -> JoinPlan:
    plan = spec.plan(r, s, config, **extra)
    if config.checkpoint_dir:
        plan.identity = plan_identity(spec.name, r, s, config, extra)
    return plan


def plan_join(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None = None, **extra
) -> JoinPlan:
    """Build (without executing) the named join's plan — the raw material
    for fused multi-join execution via :func:`run_join_plans`."""
    spec, config = _checked(name, r, s, config)
    return _build_plan(spec, r, s, config, extra)


def _checkpoint_identity(plans: list[JoinPlan], config: JoinConfig) -> str:
    """What this execution's checkpoints are bound to.  A ``checkpoint_dir``
    with a plan nobody fingerprinted is refused: unbound checkpoints are how
    a reused directory once served a stale join."""
    identities = [plan.identity for plan in plans]
    if config.checkpoint_dir and not all(identities):
        raise ValueError(
            "checkpoint_dir needs plans built by plan_join/run_join under the "
            "same config: a checkpoint must be bound to its plan identity"
        )
    return "|".join(identities)


def _plan_cache_for(config: JoinConfig) -> PlanCache | None:
    """The stage cache this run schedules with.

    An explicitly attached ``config.plan_cache`` wins (the sweep-harness
    pattern — possibly itself persistent); otherwise ``plan_cache_dir``
    alone stands up a fresh persistent cache over that directory, so
    cross-process reuse needs nothing but the path knob.
    """
    if config.plan_cache is not None:
        return config.plan_cache
    if config.plan_cache_dir:
        return PlanCache(directory=config.plan_cache_dir)
    return None


def _execute(graph: JobGraph, plans: list[JoinPlan], config: JoinConfig) -> PlanRun:
    """Run ``graph`` (the stages of ``plans``) the way ``config`` says.

    The one place the execution knobs meet the scheduler.  The runtime (and
    with it any worker pool and spill directory the config implies) plus the
    graph's DFS resources live exactly as long as the execution.
    """
    with ExitStack() as stack:
        runtime = stack.enter_context(config.make_runtime())
        for resource in graph.resources:
            stack.enter_context(resource)
        return PlanScheduler(
            runtime,
            cache=_plan_cache_for(config),
            concurrent=config.plan_concurrency,
            checkpoint_dir=config.checkpoint_dir,
            checkpoint_identity=_checkpoint_identity(plans, config),
        ).execute(graph)


def execute_join_plan(plan: JoinPlan, config: JoinConfig) -> Any:
    """Execute one plan on a fresh runtime scoped to it, then assemble."""
    return plan.assemble(_execute(plan.graph, [plan], config))


def run_join(
    name: str, r: Dataset, s: Dataset, config: JoinConfig | None = None, **extra
) -> Any:
    """Plan and execute one join; returns its outcome object.

    The uniform entry point for every registered algorithm::

        outcome = run_join("pgbj", r, s, PgbjConfig(k=10, num_pivots=64))

    Operator-kind joins take their extra arguments as keywords (e.g.
    ``run_join("range-selection", dataset, queries, config, theta=0.2)``).
    """
    spec, config = _checked(name, r, s, config)  # before the tuner samples the data
    if config.auto_tune:
        from .autotune import auto_tune_config  # deferred: autotune imports us

        config = auto_tune_config(name, r, s, config).config
    return execute_join_plan(_build_plan(spec, r, s, config, extra), config)


def run_join_plans(plans: list[JoinPlan], config: JoinConfig) -> list[Any]:
    """Execute several plans as one fused graph on one shared runtime.

    Stages of different plans have no edges between them, so the concurrent
    scheduler overlaps whole joins; with ``config.plan_concurrency`` off the
    fused graph runs plan by plan in order, exactly like sequential driver
    calls.  ``config`` supplies the runtime (engine, shuffle backend), the
    concurrency switch and the stage cache; each plan's own workload knobs
    were already baked into its builders.  Returns one assembled outcome per
    plan, in input order.
    """
    run = _execute(JobGraph.fuse([plan.graph for plan in plans]), plans, config)
    return [plan.assemble(run) for plan in plans]
