"""PKL rules: job specs must survive the worker boundary.

The process engine pickles each :class:`~repro.mapreduce.job.MapReduceJob`
once per worker (PR 3's slot shipping), and the roadmap's distributed
transport ships the same specs to remote hosts.  Pickle resolves classes
and functions *by module path*, so a lambda, a closure or a nested class in
a job spec works under ``serial``/``threads-pooled`` and then dies — or
silently diverges — the moment the job crosses a process or host boundary.
These rules make that contract static.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..model import ModuleModel
from ..registry import RuleSpec, register_rule

#: task-class kinds whose definitions ship inside job specs
_SHIPPED_KINDS = frozenset({"mapper", "reducer", "partitioner"})


def _local_definitions(model: ModuleModel) -> dict[str, ast.AST]:
    """Name -> def/class node for every *non-module-level* definition."""
    nested: dict[str, ast.AST] = {}
    for node in ast.walk(model.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not model.is_module_level(node):
                nested[node.name] = node
    return nested


def _lambda_names(model: ModuleModel) -> set[str]:
    """Names ever assigned a lambda anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(model.tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return names


def check_unpicklable_factory(model: ModuleModel) -> Iterator[Finding]:
    """PKL001: lambdas / nested definitions shipped in a job spec.

    Flags ``MapReduceJob`` factory arguments that are lambdas, references
    to nested (function-local) definitions, or names bound to lambdas —
    plus lambdas anywhere inside the ``cache=`` argument, which must stay
    plain picklable data.  Module-level classes and functions pass.
    """
    nested = _local_definitions(model)
    lambdas = _lambda_names(model)
    for call in model.job_calls:
        for field, value in model.factory_arguments(call):
            problem = None
            if isinstance(value, ast.Lambda):
                problem = "a lambda"
            elif isinstance(value, ast.Name):
                if value.id in nested:
                    problem = f"function-local definition {value.id!r}"
                elif value.id in lambdas:
                    problem = f"{value.id!r}, which is bound to a lambda"
            if problem is not None:
                yield Finding(
                    model.path, value.lineno, value.col_offset, "PKL001",
                    f"{field} is {problem}: pickle resolves factories by "
                    "module path, so job specs crossing the worker boundary "
                    "need module-level classes or functions",
                )
        for keyword in call.keywords:
            if keyword.arg != "cache":
                continue
            for node in ast.walk(keyword.value):
                if isinstance(node, ast.Lambda):
                    yield Finding(
                        model.path, node.lineno, node.col_offset, "PKL001",
                        "lambda inside a job cache: cache contents ship to "
                        "every worker and must be plain picklable data",
                    )


def check_nested_task_class(model: ModuleModel) -> Iterator[Finding]:
    """PKL002: Mapper/Reducer/Partitioner subclasses must be module-level."""
    for node, kind in model.task_classes.values():
        if kind in _SHIPPED_KINDS and not model.is_module_level(node):
            yield Finding(
                model.path, node.lineno, node.col_offset, "PKL002",
                f"{kind} class {node.name!r} is not module-level: pickle "
                "cannot resolve nested classes, so the spec breaks on the "
                "process engines and any distributed transport",
            )


def _is_mutable_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray", "defaultdict", "deque")
    )


def check_mutable_class_default(model: ModuleModel) -> Iterator[Finding]:
    """PKL003: mutable class-level state on a task class.

    A list/dict/set class attribute is shared by every instance the worker
    creates — task attempts would observe each other's leftovers, and the
    pooled engines reuse workers across jobs.  Per-attempt state belongs in
    ``setup()``.
    """
    for node, kind in model.task_classes.values():
        if kind not in _SHIPPED_KINDS:
            continue
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                value, targets = statement.value, statement.targets
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                value, targets = statement.value, [statement.target]
            else:
                continue
            if _is_mutable_expr(value):
                names = ", ".join(
                    t.id for t in targets if isinstance(t, ast.Name)
                ) or "attribute"
                yield Finding(
                    model.path, statement.lineno, statement.col_offset, "PKL003",
                    f"mutable class-level default {names!r} on {kind} "
                    f"{node.name!r}: shared across every attempt the worker "
                    "runs — initialize per-attempt state in setup()",
                )


def _register() -> None:
    register_rule(RuleSpec(
        code="PKL001", name="unpicklable-factory", category="distribution",
        summary="job spec ships a lambda, closure or nested definition",
        check=check_unpicklable_factory,
    ))
    register_rule(RuleSpec(
        code="PKL002", name="nested-task-class", category="distribution",
        summary="Mapper/Reducer/Partitioner subclass is not module-level",
        check=check_nested_task_class,
    ))
    register_rule(RuleSpec(
        code="PKL003", name="mutable-class-default", category="distribution",
        summary="task class carries mutable class-level default state",
        check=check_mutable_class_default,
    ))


_register()
