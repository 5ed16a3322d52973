"""In-memory span recording around the public functions of allwas.

A :class:`Tracer` replaces a module attribute (``allwas.harness.train``,
``allwas.gradspace.sinkhorn_plans_batched``, ...) with a wrapper that
records one span per call: name, start, end, parent span, the sample it
belongs to, and per-call counts derived from the call's arguments and
result. Callers look these names up at call time, so the wrapper sees
every call made through that name. Nothing in the program changes, and
:meth:`Tracer.restore` puts the original functions back.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    sample: str | None
    start: float
    end: float = 0.0
    thread: str = ""
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sample: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around a block."""
        stack = self._stack()
        # A pool thread starts with an empty stack; its work was caused by
        # whatever the main thread is blocked in (the sweep).
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), name, parent, self.sample,
                        time.perf_counter(), thread=threading.current_thread().name)
            self.spans.append(span)
        stack.append(span.id)
        try:
            yield span
        except BaseException:
            span.counts["errors"] = 1
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``counts(bound_args, result)`` returns a dict of numbers to attach
        to the span; ``bound_args`` maps parameter names to values with
        defaults applied.
        """
        original = getattr(module, attr)
        sig = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(counts(bound.arguments, result))
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> its duration minus the part its children cover.

    Children running in parallel threads overlap; their union is counted
    once, clipped to the parent's interval.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[s.id] = (s.end - s.start) - _covered(kids)
    return out
