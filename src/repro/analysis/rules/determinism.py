"""DET rules: task code must be a pure function of its inputs and seeds.

Every equivalence contract in this repository — cross-engine, spill vs
in-memory, chaos vs fault-free, kernel vs oracle — assumes a re-run task
attempt reproduces its emissions bit for bit.  These rules reject the
ambient-nondeterminism sources that silently break that: unseeded RNGs,
wall clocks and entropy, unordered-set iteration feeding emissions, and
process-local identity (``id``/salted ``hash``) reaching keys.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..model import ModuleModel, TaskRegion
from ..registry import RuleSpec, register_rule

#: RNG constructors that are only deterministic when explicitly seeded
_SEEDABLE_FACTORIES = frozenset({"numpy.random.default_rng", "random.Random"})

#: the legacy numpy global-state RNG surface — never allowed in task code,
#: seeded or not: global state is shared across tasks of one worker process
_NUMPY_GLOBAL_RNG = frozenset(
    f"numpy.random.{name}"
    for name in (
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "seed", "normal",
        "uniform", "standard_normal", "bytes", "get_state", "set_state",
    )
)

#: the stdlib module-level RNG surface (module-global Mersenne state)
_STDLIB_RANDOM = frozenset(
    f"random.{name}"
    for name in (
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "gauss", "normalvariate", "betavariate",
        "expovariate", "triangular", "seed", "getrandbits", "randbytes",
    )
)

#: wall-clock and entropy calls whose value differs per attempt/host
_CLOCK_AND_ENTROPY = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "secrets.randbits", "secrets.randbelow", "secrets.choice",
    }
)


def _task_calls(model: ModuleModel) -> Iterator[tuple[ast.Call, TaskRegion]]:
    """Every call inside a task region, innermost-region attributed."""
    for region in model.task_regions:
        for node in ast.walk(region.node):
            if isinstance(node, ast.Call) and model.task_region_of(node) is region:
                yield node, region


def check_unseeded_rng(model: ModuleModel) -> Iterator[Finding]:
    """DET001: RNG without an explicit seed (or with shared global state)."""
    for call, region in _task_calls(model):
        resolved = model.resolve(call.func)
        if resolved is None:
            continue
        if resolved in _SEEDABLE_FACTORIES and not call.args and not call.keywords:
            yield Finding(
                model.path, call.lineno, call.col_offset, "DET001",
                f"unseeded {resolved}() in {region.kind} {region.name!r}: "
                "derive the seed from config and task identity "
                "(e.g. default_rng(seed + task_index)) so retried attempts "
                "reproduce their emissions",
            )
        elif resolved in _NUMPY_GLOBAL_RNG or resolved in _STDLIB_RANDOM:
            yield Finding(
                model.path, call.lineno, call.col_offset, "DET001",
                f"{resolved}() uses shared global RNG state in {region.kind} "
                f"{region.name!r}: use a per-task numpy Generator seeded from "
                "config instead",
            )


def check_clock_entropy(model: ModuleModel) -> Iterator[Finding]:
    """DET002: wall clock / entropy reads inside task code."""
    for call, region in _task_calls(model):
        resolved = model.resolve(call.func)
        if resolved in _CLOCK_AND_ENTROPY:
            yield Finding(
                model.path, call.lineno, call.col_offset, "DET002",
                f"{resolved}() in {region.kind} {region.name!r} differs per "
                "attempt and host: task emissions must not depend on clocks "
                "or entropy (master-side phases time through ctx.timed)",
            )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _set_valued_names(func: ast.AST) -> set[str]:
    """Names whose every assignment in ``func`` is an unordered set."""
    set_named: set[str] = set()
    other: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        value = getattr(node, "value", None)
        for target in targets:
            if isinstance(target, ast.Name):
                bucket = set_named if value is not None and _is_set_expr(value) else other
                bucket.add(target.id)
    return set_named - other


def check_unordered_iteration(model: ModuleModel) -> Iterator[Finding]:
    """DET003: iterating an unordered set inside task code.

    Set iteration order depends on hash seeding and insertion history, so a
    loop over a set feeding ``yield`` or a sort key reorders emissions
    between attempts and hosts.  ``sorted(...)`` over the same set is the
    deterministic fix and is never flagged.  Dict views are *not* flagged:
    CPython dicts iterate in insertion order and the runtime guarantees
    deterministic arrival order.
    """
    for region in model.task_regions:
        functions = [
            node
            for node in ast.walk(region.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ] or [region.node]
        for func in functions:
            local_sets = _set_valued_names(func)
            iter_exprs = []
            for node in ast.walk(func):
                if isinstance(node, ast.For):
                    iter_exprs.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    iter_exprs.extend(gen.iter for gen in node.generators)
            for expr in iter_exprs:
                if model.task_region_of(expr) is not region:
                    continue
                is_set = _is_set_expr(expr) or (
                    isinstance(expr, ast.Name) and expr.id in local_sets
                )
                if is_set:
                    yield Finding(
                        model.path, expr.lineno, expr.col_offset, "DET003",
                        f"iteration over an unordered set in {region.kind} "
                        f"{region.name!r}: set order varies across attempts "
                        "and hosts — iterate sorted(...) instead",
                    )


def check_identity_hash(model: ModuleModel) -> Iterator[Finding]:
    """DET004: ``id()`` / builtin ``hash()`` inside task code.

    ``id`` is a process-local address and builtin ``hash`` is salted per
    process (str/bytes), so neither may feed emitted keys, partitioning or
    dedup decisions — use stable key bytes (CRC32 of the encoded key, as
    ``HashPartitioner._stable_hash`` does) instead.
    """
    for call, region in _task_calls(model):
        if isinstance(call.func, ast.Name) and call.func.id in ("id", "hash"):
            if call.func.id in model.aliases:
                continue  # shadowed by an import — not the builtin
            yield Finding(
                model.path, call.lineno, call.col_offset, "DET004",
                f"builtin {call.func.id}() in {region.kind} {region.name!r} is "
                "process-local (id: address; hash: salted per process): use "
                "stable key bytes, e.g. zlib.crc32 of the encoded key",
            )


def _register() -> None:
    register_rule(RuleSpec(
        code="DET001", name="unseeded-rng", category="determinism",
        summary="task code draws randomness without an explicit per-task seed",
        check=check_unseeded_rng,
    ))
    register_rule(RuleSpec(
        code="DET002", name="clock-entropy", category="determinism",
        summary="task code reads wall clocks, uuids or OS entropy",
        check=check_clock_entropy,
    ))
    register_rule(RuleSpec(
        code="DET003", name="unordered-iteration", category="determinism",
        summary="task code iterates an unordered set (emission order hazard)",
        check=check_unordered_iteration,
    ))
    register_rule(RuleSpec(
        code="DET004", name="identity-hash", category="determinism",
        summary="task code calls id()/hash(), which are process-local",
        check=check_identity_hash,
    ))


_register()
