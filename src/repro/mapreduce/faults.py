"""Structured, deterministic fault injection for the MapReduce runtime.

The runtime's ``fault_injector`` is a seeded :class:`ChaosPlan` — a value
object describing a mix of failure modes:

* ``crash``   — the attempt fails before it runs.
* ``delay``   — the attempt runs, but sleeps ``delay_s`` wall-clock seconds
  first: a straggler.  Task CPU durations are measured with
  ``time.thread_time()``, so delays never distort the paper's measurements.
* ``kill``    — the worker *process* executing the attempt dies mid-batch
  (``os._exit``), breaking the pool.  On engines without worker processes
  (``serial``, ``threads-pooled``) the kill degrades to a crash.
* ``corrupt`` — one spill segment written by the (successful) attempt has a
  byte flipped on disk; the per-entry CRC32 catches it at reduce time.
* ``delete``  — one spill segment written by the attempt is removed.

Every decision is a pure function of ``(seed, rule, task identity,
attempt)`` — a hash, never a call-sequence-dependent RNG — so the *same
tasks* fail in the *same ways* regardless of engine, scheduling order or
concurrency.  That is what lets CI assert bit-identical results under chaos
across all engines.

Plans are built programmatically (``ChaosPlan(rules=(...), seed=7)``) or from
a compact spec string (:meth:`ChaosPlan.from_spec` — what the ``chaos`` row of
the join configs' knob table applies to ``--chaos-spec`` and ``REPRO_CHAOS``).
Spec grammar — semicolon-separated rules::

    action[:key=value]*  [; ...]  [; seed=N]

    crash:rate=0.2;delay:rate=0.1:delay=0.05;corrupt:rate=0.05;seed=42

Rule keys: ``rate`` (firing probability, default 1), ``kind`` (``map`` /
``reduce`` / ``*``), ``job`` (substring of the job name), ``task``
(substring of the task id), ``attempt`` (restrict to one attempt number —
``attempt=1`` makes chaos hit first attempts only, so retries always
converge), and ``delay`` (sleep seconds, delay rules only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "ChaosPlan",
    "ChaosRule",
    "ChaosAction",
    "resolve_chaos",
]

#: actions evaluated before an attempt is dispatched
ATTEMPT_ACTIONS = ("crash", "delay", "kill")
#: actions applied to a successful map attempt's spilled segments
SEGMENT_ACTIONS = ("corrupt", "delete")


@dataclass(frozen=True)
class ChaosRule:
    """One failure mode plus the selector deciding which attempts it hits."""

    action: str
    rate: float = 1.0
    kind: str = "*"  # "map" | "reduce" | "*"
    job: str = "*"  # substring of the job name; "*" matches any
    task: str = "*"  # substring of the task id; "*" matches any
    attempt: int | None = None  # fire on this attempt number only
    delay_s: float = 0.05  # sleep injected by delay rules

    def __post_init__(self) -> None:
        if self.action not in ATTEMPT_ACTIONS + SEGMENT_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; known: "
                f"{', '.join(ATTEMPT_ACTIONS + SEGMENT_ACTIONS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.kind not in ("map", "reduce", "*"):
            raise ValueError(f"chaos kind must be map, reduce or *, got {self.kind!r}")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError("chaos attempt restriction must be >= 1")
        if self.delay_s < 0:
            raise ValueError("chaos delay must be >= 0")

    def matches(self, job_name: str, kind: str, task_id: str, attempt: int) -> bool:
        if self.kind != "*" and self.kind != kind:
            return False
        if self.job != "*" and self.job not in job_name:
            return False
        if self.task != "*" and self.task not in task_id:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True


@dataclass(frozen=True)
class ChaosAction:
    """A fired attempt-level decision the scheduler acts on."""

    action: str  # "crash" | "delay" | "kill"
    delay_s: float = 0.0
    rule_index: int = 0


def _coin(seed: int, rule_index: int, task_id: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one (rule, attempt) identity.

    A hash of the identity, not a sequential RNG: the draw is independent of
    how many other draws happened before it, so engines that schedule tasks
    in different orders (or concurrently) see identical chaos.
    """
    import hashlib

    digest = hashlib.sha256(
        f"{seed}|{rule_index}|{task_id}|{attempt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic set of chaos rules.

    Rules are evaluated in order; the first one that matches *and* fires
    (its identity-hashed coin lands under ``rate``) wins.  Attempt-level
    rules (crash/delay/kill) are consulted by the scheduler before dispatch;
    segment-level rules (corrupt/delete) after a successful spilling map
    attempt, picking one of its segments deterministically.
    """

    rules: tuple[ChaosRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- scheduler queries -----------------------------------------------------

    def attempt_action(
        self, job_name: str, kind: str, task_id: str, attempt: int
    ) -> ChaosAction | None:
        """The crash/delay/kill decision for one task attempt, if any."""
        for index, rule in enumerate(self.rules):
            if rule.action not in ATTEMPT_ACTIONS:
                continue
            if not rule.matches(job_name, kind, task_id, attempt):
                continue
            if _coin(self.seed, index, task_id, attempt) < rule.rate:
                return ChaosAction(
                    action=rule.action, delay_s=rule.delay_s, rule_index=index
                )
        return None

    def segment_action(
        self, job_name: str, kind: str, task_id: str, attempt: int
    ) -> str | None:
        """The corrupt/delete decision for one successful map attempt."""
        for index, rule in enumerate(self.rules):
            if rule.action not in SEGMENT_ACTIONS:
                continue
            if not rule.matches(job_name, kind, task_id, attempt):
                continue
            if _coin(self.seed, index, task_id, attempt) < rule.rate:
                return rule.action
        return None

    def segment_choice(self, task_id: str, attempt: int, count: int) -> int:
        """Which of the attempt's ``count`` segments the action targets."""
        if count <= 1:
            return 0
        return int(_coin(self.seed, -1, task_id, attempt) * count)

    def describe(self) -> str:
        parts = []
        for rule in self.rules:
            selectors = []
            if rule.rate != 1.0:
                selectors.append(f"rate={rule.rate}")
            if rule.kind != "*":
                selectors.append(f"kind={rule.kind}")
            if rule.job != "*":
                selectors.append(f"job={rule.job}")
            if rule.task != "*":
                selectors.append(f"task={rule.task}")
            if rule.attempt is not None:
                selectors.append(f"attempt={rule.attempt}")
            if rule.action == "delay":
                selectors.append(f"delay={rule.delay_s}")
            parts.append(":".join([rule.action, *selectors]))
        parts.append(f"seed={self.seed}")
        return ";".join(parts)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int | None = None) -> "ChaosPlan":
        """Parse the ``--chaos-spec`` / ``REPRO_CHAOS`` grammar.

        An explicit ``seed`` argument overrides a ``seed=N`` token inside the
        spec.
        """
        rules: list[ChaosRule] = []
        spec_seed = 0
        for token in spec.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                spec_seed = _parse_int(token[len("seed="):], token)
                continue
            action, _, selector_text = token.partition(":")
            action = action.strip()
            settings: dict[str, Any] = {}
            if selector_text:
                for selector in selector_text.split(":"):
                    key, eq, value = selector.partition("=")
                    key = key.strip()
                    if not eq:
                        raise ValueError(
                            f"bad chaos selector {selector!r} in rule {token!r}: "
                            "expected key=value"
                        )
                    if key == "rate":
                        settings["rate"] = _parse_float(value, token)
                    elif key == "kind":
                        settings["kind"] = value.strip()
                    elif key == "job":
                        settings["job"] = value.strip()
                    elif key == "task":
                        settings["task"] = value.strip()
                    elif key == "attempt":
                        settings["attempt"] = _parse_int(value, token)
                    elif key == "delay":
                        settings["delay_s"] = _parse_float(value, token)
                    else:
                        raise ValueError(
                            f"unknown chaos selector {key!r} in rule {token!r}; "
                            "known: rate, kind, job, task, attempt, delay"
                        )
            rules.append(ChaosRule(action=action, **settings))
        return cls(rules=tuple(rules), seed=seed if seed is not None else spec_seed)


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad number {text!r} in chaos spec {where!r}") from None


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in chaos spec {where!r}") from None


#: the scheduler's three queries — what makes an object plan-shaped
_PLAN_QUERIES = ("attempt_action", "segment_action", "segment_choice")


def resolve_chaos(injector) -> "ChaosPlan | None":
    """Check a runtime's ``fault_injector`` argument: ``None``, or a
    :class:`ChaosPlan` (or anything answering its three scheduler queries)."""
    if injector is None or all(hasattr(injector, query) for query in _PLAN_QUERIES):
        return injector
    raise TypeError(
        "fault_injector must be None or a ChaosPlan (or an object with its "
        f"{'/'.join(_PLAN_QUERIES)} methods), got {type(injector).__name__}"
    )
