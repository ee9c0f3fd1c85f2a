"""Outside-in tracing of the program's layers for the per-layer run.

The traced run wraps the program's public functions *where the pipeline
looks them up* (module globals and class attributes), records one span per
call in memory, and restores every original afterwards.  Nothing inside
``src/`` changes; the untraced runs execute the program untouched.

A layer's busy time is the self time of its spans: a span's duration minus
the intervals of its direct children on the same thread.  Work done on
another thread on a span's behalf -- a loopback server's handler answering
the crawler's HTTP request -- is subtracted from the enclosing client span
named in ``clients``, so the client's self time is its own share of the
round trip and the server's time is counted once, under the server's layer.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    """One traced call: its layer, the thread it ran on, start and end."""

    layer: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span], clients: Iterable[str] = ()) -> dict[str, float]:
    """Sum of self time per layer.

    Spans nest per thread: each span's parent is the innermost span on the
    same thread whose interval contains it.  A span's self time is its
    duration minus its direct children's durations.

    A *root* span (no parent on its thread) that overlaps a span of a
    ``clients`` layer on another thread ran on that client's behalf.  Client
    spans must not overlap each other (one request in flight).  The
    overlap is subtracted from the client span's self time.  The part of
    the root span outside the client span is dropped from the root's own
    self time -- it is a handler's epilogue waiting for the CPU while the
    client thread already went on, so the client thread's spans cover it.
    """
    span_list = list(spans)
    by_thread: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(span_list):
        by_thread[span.thread].append(index)
    own = [span.duration for span in span_list]
    roots: list[int] = []
    for indices in by_thread.values():
        indices.sort(key=lambda i: (span_list[i].start, -span_list[i].end))
        stack: list[int] = []
        for index in indices:
            span = span_list[index]
            while stack and span_list[stack[-1]].end <= span.start:
                stack.pop()
            if stack:
                own[stack[-1]] -= span.duration
            else:
                roots.append(index)
            stack.append(index)
    client_layers = set(clients)
    client_indices = sorted((i for i, s in enumerate(span_list) if s.layer in client_layers),
                            key=lambda i: span_list[i].start)
    starts = [span_list[i].start for i in client_indices]
    for root_index in roots:
        root = span_list[root_index]
        # Client spans do not overlap each other (one request in flight),
        # so walking back from the last one that starts before the root
        # ends, the overlapping ones come first and ends only decrease.
        position = bisect.bisect_left(starts, root.end) - 1
        best, best_overlap = None, 0.0
        while position >= 0 and span_list[client_indices[position]].end > root.start:
            client_index = client_indices[position]
            client = span_list[client_index]
            overlap = min(client.end, root.end) - max(client.start, root.start)
            if client.thread != root.thread and overlap > best_overlap:
                best, best_overlap = client_index, overlap
            position -= 1
        if best is not None:
            own[best] -= best_overlap
            own[root_index] -= root.duration - best_overlap
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(span_list, own):
        totals[span.layer] += seconds
    return dict(totals)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    Usage: :meth:`wrap` each function once, then bracket traced work with
    :meth:`install` / :meth:`uninstall`; :meth:`drain` hands back (and
    forgets) the spans and counts recorded since the last drain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def record(self, layer: str, start: float, end: float) -> None:
        span = Span(layer, threading.get_ident(), start, end)
        with self._lock:
            self._spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def drain(self) -> tuple[list[Span], Counter[str]]:
        with self._lock:
            spans, self._spans = self._spans, []
            counts, self.counts = self.counts, Counter()
        return spans, counts

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: object, name: str, layer: str, *,
             counter: str | None = None,
             snapshot: Callable[[tuple], object] | None = None,
             observe: Callable[["Tracer", tuple, object, object], None] | None = None,
             ) -> None:
        """Register a wrapper for ``owner.name`` recording spans of ``layer``.

        ``counter`` counts calls.  ``observe(tracer, args, result, before)``
        records extra counts after each call, where ``before`` is what
        ``snapshot(args)`` returned before it (``None`` without a snapshot).
        """
        function = inspect.getattr_static(owner, name)

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced(*args, **kwargs):
                before = snapshot(args) if snapshot is not None else None
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    self.record(layer, start, time.perf_counter())
                if counter is not None:
                    self.count(counter)
                if observe is not None:
                    observe(self, args, result, before)
                return result
        else:
            @functools.wraps(function)
            def traced(*args, **kwargs):
                before = snapshot(args) if snapshot is not None else None
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    self.record(layer, start, time.perf_counter())
                if counter is not None:
                    self.count(counter)
                if observe is not None:
                    observe(self, args, result, before)
                return result

        self._patches.append((owner, name, function, traced))

    def install(self) -> None:
        for owner, name, _original, replacement in self._patches:
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original, _replacement in reversed(self._patches):
            setattr(owner, name, original)
