"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the package by rebinding the names
that the calling modules imported (for example `engine.cholesky` or
`oracle.simulate_paths`), and methods by rebinding them on their class
(`GaussianStream.normals`).  The package source is not touched, and
`restore` puts every original back.

A span holds its name, start, end, parent span, thread and a work count
(normals drawn, elements evaluated, nodes per axis).  A span opened in a
thread that has no open span of its own, such as a worker of a thread
pool, takes as parent the innermost span open in the main thread, so the
work of a parallel block is charged to the call that started it.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, whatever thread they ran in).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    count: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        # worker threads open spans concurrently: append and index together
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def close(self, sid: int, count: int = 0) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.count = count
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def patch(self, owner, attr: str, name: str, count=None,
              iterate: bool = False) -> None:
        """Rebind owner.attr to a traced wrapper.

        `count(args, kwargs, result)` gives the span's work count.  With
        `iterate`, the function returns an iterator and every `next()` on
        it is its own span, counted by `count(None, None, item)`.
        """
        original = getattr(owner, attr)
        tracer = self

        if iterate:
            def wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    sid = tracer.open(name)
                    item = None
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(sid, count(None, None, item)
                                     if count and item is not None else 0)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                sid = tracer.open(name)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    tracer.close(sid, count(args, kwargs, result)
                                 if count else 0)

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, new) -> None:
        """Rebind owner.attr to `new` until `restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like `spans`."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = []
        for sid, span in enumerate(self.spans):
            if span.end < span.start:
                raise RuntimeError(f"span {sid} ({span.name}) never closed")
            covered = 0.0
            cursor = span.start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end - span.start - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy self seconds, total work count."""
        table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "count": 0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = table[span.name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["count"] += span.count
        return dict(table)

    def dump(self) -> list[list]:
        """Spans as [name, start, end, parent, thread, count] rows."""
        return [[s.name, s.start, s.end, s.parent, s.thread, s.count]
                for s in self.spans]
