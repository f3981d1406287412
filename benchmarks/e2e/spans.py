"""Span recording from outside the library.

Nothing under ``src/`` knows about tracing.  :class:`Patcher` replaces public
functions and methods of the layers with timing wrappers — a module-level
function at every module that imported it by name, a method on every class
that defines it — and puts the originals back on exit.  A span is
``(name, start, end, parent id, id)``; spans stay in memory until the run is
over.  A span's *self time* is its duration minus its children's.

Wrappers run in the calling thread and keep one open-span stack per thread, so
a stage the plan scheduler runs on a pool thread starts a new root there.  Work
done in a worker *process* (the pooled workload) is not seen at all.

The wrappers sit on per-record boundaries (``SpillMapWriter.add``, every
``next()`` of a segment merge), so their own cost matters: the bookkeeping is
written out inside each wrapper instead of being shared through helper calls,
and a span is one flat tuple appended when it ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Patcher", "Recorder", "SpanSummary", "timed_iterator"]

_NAME, _START, _END, _PARENT, _ID = range(5)
_NO_PARENT = 0


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.local = threading.local()
        self.ids = itertools.count(1)

    def stack(self) -> list[int]:
        """Ids of this thread's open spans, innermost last."""
        try:
            return self.local.stack
        except AttributeError:
            self.local.stack = []
            return self.local.stack

    @contextmanager
    def span(self, name: str):
        """Bracket a block; yields a one-item list that receives the span."""
        stack = self.stack()
        parent = stack[-1] if stack else _NO_PARENT
        me = next(self.ids)
        stack.append(me)
        holder: list = []
        started = time.perf_counter()
        try:
            yield holder
        finally:
            ended = time.perf_counter()
            stack.pop()
            holder.append((name, started, ended, parent, me))
            self.spans.append(holder[0])

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.counts)


class SpanSummary:
    """Aggregates of a finished recording."""

    def __init__(self, spans: list[tuple], counts: dict[str, int]) -> None:
        self.counts = dict(counts)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.first: dict[str, float] = {}
        #: inclusive seconds keyed by (name, parent name); spans nested under a
        #: span of their own name are left out so recursion is not counted twice
        self._inclusive: dict[tuple[str, str | None], float] = {}
        by_id = {span[_ID]: span for span in spans}
        children: dict[int, float] = {}
        for span in spans:
            if span[_PARENT]:
                children[span[_PARENT]] = (
                    children.get(span[_PARENT], 0.0) + span[_END] - span[_START]
                )
        for span in sorted(spans, key=lambda span: span[_START]):
            name = span[_NAME]
            duration = span[_END] - span[_START]
            self.first.setdefault(name, duration)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (
                self.self_s.get(name, 0.0) + duration - children.get(span[_ID], 0.0)
            )
            parent = by_id.get(span[_PARENT])
            ancestor = parent
            while ancestor is not None and ancestor[_NAME] != name:
                ancestor = by_id.get(ancestor[_PARENT])
            if ancestor is None:
                key = (name, None if parent is None else parent[_NAME])
                self._inclusive[key] = self._inclusive.get(key, 0.0) + duration

    def total(self, name: str, under: str | None = None, not_under: str | None = None) -> float:
        """Inclusive seconds of ``name`` spans, optionally by direct parent."""
        return sum(
            seconds
            for (span_name, parent), seconds in self._inclusive.items()
            if span_name == name
            and (under is None or parent == under)
            and (not_under is None or parent != not_under)
        )

    def total_prefix(self, prefix: str) -> float:
        return sum(s for (name, _), s in self._inclusive.items() if name.startswith(prefix))

    def calls_prefix(self, prefix: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))


def timed_iterator(recorder: Recorder, name: str, iterator, wrap_item=None):
    """Yield from ``iterator``, recording only the time spent inside it."""
    local, ids, append = recorder.local, recorder.ids, recorder.spans.append
    clock = time.perf_counter
    while True:
        try:
            stack = local.stack
        except AttributeError:
            stack = recorder.stack()
        parent = stack[-1] if stack else _NO_PARENT
        me = next(ids)
        stack.append(me)
        started = clock()
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            ended = clock()
            stack.pop()
            append((name, started, ended, parent, me))
        yield item if wrap_item is None else wrap_item(item)


class Patcher:
    """Installs span wrappers on library callables and restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapper factories --------------------------------------------------

    def _call_wrapper(self, name, fn, counter=None):
        recorder = self.recorder
        local, ids, append = recorder.local, recorder.ids, recorder.spans.append
        clock = time.perf_counter
        label = name if callable(name) else None

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = recorder.stack()
            parent = stack[-1] if stack else _NO_PARENT
            me = next(ids)
            stack.append(me)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                span_name = label(*args, **kwargs) if label else name
                append((span_name, started, ended, parent, me))
            if counter is not None:
                recorder.count(span_name, counter(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, name, fn, wrap_item=None):
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            return timed_iterator(recorder, name, iter(fn(*args, **kwargs)), wrap_item)

        wrapper.__wrapped__ = fn
        return wrapper

    def _context_wrapper(self, label, fn):
        recorder = self.recorder

        @contextmanager
        def wrapper(*args, **kwargs):
            with recorder.span(label(*args, **kwargs)), fn(*args, **kwargs) as value:
                yield value

        wrapper.__wrapped__ = fn
        return wrapper

    def _batch_wrapper(self, label, fn):
        """``submit_batch``: one span from submission until the last future of
        the batch is done (completions arrive on the pool's threads)."""
        recorder = self.recorder
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            started = clock()
            batch = fn(*args, **kwargs)
            if batch is None:
                return None
            name = label(*args, **kwargs)
            # the submitting thread waits for the batch inside its current span
            stack = recorder.stack()
            parent = stack[-1] if stack else _NO_PARENT
            pending = [len(batch.futures)]
            lock = threading.Lock()

            def done(_future):
                with lock:
                    pending[0] -= 1
                    last = pending[0] == 0
                if last:
                    recorder.spans.append((name, started, clock(), parent, next(recorder.ids)))

            for future in batch.futures:
                future.add_done_callback(done)
            return batch

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def function(self, module, attribute, name, *, kind="call", home=True, **options) -> None:
        """Wrap ``module.attribute`` wherever a ``repro`` module holds it.

        ``home=False`` leaves the defining module's own global alone, so the
        function's calls to itself are not spans ("outermost calls only").
        """
        original = getattr(module, attribute)
        wrapper = self._make(kind, name, original, options)
        for module_name, holder in list(sys.modules.items()):
            if holder is None or not module_name.startswith("repro"):
                continue
            if holder is module and not home:
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapper)

    def method(self, cls, attribute, name, *, kind="call", **options) -> None:
        """Wrap ``attribute`` on ``cls`` and on every subclass that defines it."""
        stack, seen = [cls], set()
        while stack:
            owner = stack.pop()
            if owner in seen:
                continue
            seen.add(owner)
            stack.extend(owner.__subclasses__())
            original = vars(owner).get(attribute)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue
            self._set(owner, attribute, self._make(kind, name, original, options))

    def _make(self, kind, name, original, options):
        if kind == "call":
            return self._call_wrapper(name, original, **options)
        if kind == "generator":
            return self._generator_wrapper(name, original, **options)
        if kind == "context":
            return self._context_wrapper(name, original)
        if kind == "batch":
            return self._batch_wrapper(name, original)
        raise ValueError(f"unknown wrapper kind {kind!r}")

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()
