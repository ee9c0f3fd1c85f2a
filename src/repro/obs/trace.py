"""Spans and events: the tracing core.

A *trace* is one build (or serve session) identified by a ``trace_id``;
a *span* is one timed operation within it (a pipeline stage, a transport
request, a selection window, a dataset commit) carrying a ``span_id``
and the ``parent`` span id that nests it.  Spans and point-in-time
*events* are appended as JSON lines — one :class:`TraceWriter` file per
process under the trace directory — and reassembled into one tree by
:mod:`repro.obs.tree` (``langcrux trace``).

Cross-process propagation works by value, not by ambient magic: the
process that starts a build allocates the trace id, stamps it (plus the
root span id as ``trace_parent``) into the :class:`PipelineConfig`, and
every worker — process-pool or ``repro.dist`` — calls
:func:`ensure` with those values before doing traced work.  ``ensure``
is idempotent per process, so re-entry from every window of a pool
worker costs a lock and two comparisons.

Overhead discipline: with tracing disabled, :func:`span` and
:func:`event` are one module-global ``None`` check.  Enabled, perf-hook
spans (the per-stage timers of :mod:`repro.perf`, which fire for every
parsed page and audited rule) are only *written* when they exceed a
minimum duration (``LANGCRUX_TRACE_MIN_MS``, default 1ms), bounding
trace volume and keeping the enabled overhead within the bench's bound;
structural spans (build, shard, window, request, merge) are always
written.  Record schema (``"schema": 1``)::

    {"schema": 1, "kind": "span", "trace": ..., "span": ..., "parent": ...,
     "name": "window", "proc": "host:pid", "ts": <start, time.time()>,
     "dur_s": 0.1234, "attrs": {...}}
    {"schema": 1, "kind": "event", "trace": ..., "span": <enclosing>,
     "name": "transport.cache_hit", "proc": "host:pid", "ts": ..., "attrs": {...}}
"""

from __future__ import annotations

import atexit
import json
import os
import socket
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro import perf

#: Bumped when the span/event record shape changes incompatibly; readers
#: skip records from other schemas.
TRACE_SCHEMA = 1

#: Per-process trace files are named ``trace-<proc>.jsonl``.
TRACE_FILE_PREFIX = "trace-"

#: Default write threshold for perf-hook spans, overridable via the
#: ``LANGCRUX_TRACE_MIN_MS`` environment variable.
DEFAULT_MIN_SPAN_MS = 1.0


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return uuid.uuid4().hex[:16]


def process_label() -> str:
    """This process's identity in trace records (``host:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class TraceContext:
    """A propagatable (trace id, span id) pair.

    What crosses process boundaries: the coordinator ships
    ``TraceContext(trace_id, root_span_id)`` to workers (via the config in
    ``build.json``), workers parent their spans under ``span_id`` and ship
    their window span's context back inside the window result.
    """

    trace_id: str
    span_id: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"trace_id": self.trace_id}
        if self.span_id is not None:
            payload["span_id"] = self.span_id
        return payload

    @classmethod
    def from_dict(cls, payload: dict | None) -> "TraceContext | None":
        if not payload or "trace_id" not in payload:
            return None
        return cls(trace_id=payload["trace_id"],
                   span_id=payload.get("span_id"))


class TraceWriter:
    """Appends span/event records to one JSONL file for this process.

    Writes are buffered under a lock and flushed every ``flush_every``
    records via a single ``os.write`` to an ``O_APPEND`` descriptor —
    POSIX guarantees the append is atomic per call, so concurrent writers
    (should two tracers ever share a file) never interleave mid-line and
    a crash can tear at most the buffered tail, which the tree reader
    tolerates line by line.
    """

    def __init__(self, directory: str | Path, *, label: str | None = None,
                 flush_every: int = 64) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.label = label or process_label()
        safe = self.label.replace(os.sep, "_").replace(":", "-")
        self.path = self.directory / f"{TRACE_FILE_PREFIX}{safe}.jsonl"
        self._flush_every = max(1, flush_every)
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._fd: int | None = None
        self._closed = False

    def emit(self, record: dict) -> None:
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":"),
                          default=str)
        with self._lock:
            if self._closed:
                return
            self._buffer.append(line)
            if len(self._buffer) >= self._flush_every:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        data = ("\n".join(self._buffer) + "\n").encode("utf-8")
        self._buffer.clear()
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(self._fd, data)

    def flush(self) -> None:
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._closed = True
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def abandon(self) -> None:
        """Close *without* flushing.

        For fork children that inherited the parent's writer: the buffer
        holds the parent's records (the parent will flush them itself),
        so flushing here would write them twice.
        """
        with self._lock:
            self._buffer.clear()
            self._closed = True
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


class _Span:
    """One open span; closed (and possibly written) by ``Tracer.end_span``."""

    __slots__ = ("name", "span_id", "parent_id", "ts", "started",
                 "attrs", "detached", "structural")

    def __init__(self, name: str, span_id: str, parent_id: str | None,
                 attrs: dict | None, *, detached: bool,
                 structural: bool) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.ts = time.time()
        self.started = time.perf_counter()
        self.attrs = attrs
        self.detached = detached
        self.structural = structural

    def context(self, trace_id: str) -> TraceContext:
        return TraceContext(trace_id=trace_id, span_id=self.span_id)


class Tracer:
    """The per-process tracing state: id, writer, per-thread span stacks.

    ``default_parent`` is the span every *new stack root* nests under —
    the build's root span in the coordinating process, the propagated
    ``trace_parent`` in workers — so spans started on fresh threads (shard
    workers) or fresh processes still join the one tree.
    """

    def __init__(self, writer: TraceWriter, trace_id: str, *,
                 parent_span_id: str | None = None,
                 min_duration_s: float | None = None) -> None:
        self.writer = writer
        self.trace_id = trace_id
        self.default_parent = parent_span_id
        if min_duration_s is None:
            try:
                min_ms = float(os.environ.get("LANGCRUX_TRACE_MIN_MS",
                                              DEFAULT_MIN_SPAN_MS))
            except ValueError:
                min_ms = DEFAULT_MIN_SPAN_MS
            min_duration_s = min_ms / 1000.0
        self.min_duration_s = min_duration_s
        self.pid = os.getpid()
        self._local = threading.local()

    # -- span lifecycle ---------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> str | None:
        """The innermost open span on this thread (or the default parent)."""
        stack = self._stack()
        return stack[-1].span_id if stack else self.default_parent

    def start_span(self, name: str, attrs: dict | None = None, *,
                   detached: bool = False, structural: bool = True) -> _Span:
        """Open a span parented under the thread's current span.

        ``detached`` spans are not pushed on the thread stack — the shape
        for operations that interleave on one thread (concurrent async
        fetches): each parents under the enclosing stack span, never under
        a sibling.  ``structural=False`` marks perf-hook spans, written
        only when their duration clears ``min_duration_s``.
        """
        span = _Span(name, new_span_id(), self.current_span_id(), attrs,
                     detached=detached, structural=structural)
        if not detached:
            self._stack().append(span)
        return span

    def end_span(self, span: _Span) -> None:
        duration = time.perf_counter() - span.started
        if not span.detached:
            stack = self._stack()
            # LIFO in the overwhelming case; tolerate out-of-order closes
            # (a generator finalized late) by identity removal.
            if stack and stack[-1] is span:
                stack.pop()
            else:  # pragma: no cover - defensive
                try:
                    stack.remove(span)
                except ValueError:
                    pass
        if span.structural or duration >= self.min_duration_s:
            record = {"schema": TRACE_SCHEMA, "kind": "span",
                      "trace": self.trace_id, "span": span.span_id,
                      "parent": span.parent_id, "name": span.name,
                      "proc": self.writer.label,
                      "ts": round(span.ts, 6), "dur_s": round(duration, 6)}
            if span.attrs:
                record["attrs"] = span.attrs
            self.writer.emit(record)

    def event(self, name: str, attrs: dict | None = None) -> None:
        """Record a point-in-time event under the current span."""
        record = {"schema": TRACE_SCHEMA, "kind": "event",
                  "trace": self.trace_id, "span": self.current_span_id(),
                  "name": name, "proc": self.writer.label,
                  "ts": round(time.time(), 6)}
        if attrs:
            record["attrs"] = attrs
        self.writer.emit(record)

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id,
                            span_id=self.current_span_id())


# -- the process-global tracer ---------------------------------------------------

_state_lock = threading.Lock()
_tracer: Tracer | None = None
_atexit_registered = False


def active() -> Tracer | None:
    """The process's tracer, or ``None`` when tracing is disabled."""
    return _tracer


def ensure(trace_dir: str | Path, *, trace_id: str | None = None,
           parent_span_id: str | None = None,
           label: str | None = None) -> Tracer:
    """Enable tracing for this process (idempotent).

    A second call with the same directory and trace id returns the
    existing tracer untouched — the hot path for pool workers re-entering
    per window.  A call naming a *different* directory or trace id closes
    the old tracer and starts fresh (sequential traced runs in one
    process, e.g. the overhead benchmark).
    """
    global _tracer, _atexit_registered
    directory = Path(trace_dir)
    with _state_lock:
        current = _tracer
        if current is not None and current.pid != os.getpid():
            # A fork child inherited the parent's tracer.  It is not ours:
            # the writer's label names the parent and its buffer holds the
            # parent's records.  Abandon it (no flush) and start fresh so
            # this process gets its own trace file.
            current.writer.abandon()
            perf.set_tracer(None)
            _tracer = current = None
        if (current is not None and current.writer.directory == directory
                and (trace_id is None or current.trace_id == trace_id)):
            return current
        if current is not None:
            perf.set_tracer(None)
            current.writer.close()
        writer = TraceWriter(directory, label=label)
        _tracer = Tracer(writer, trace_id or new_trace_id(),
                         parent_span_id=parent_span_id)
        perf.set_tracer(_tracer)
        if not _atexit_registered:
            # Pool workers exit when their executor shuts down, with spans
            # possibly still buffered; flush whatever is pending on the way
            # out (close() is a no-op for already-disabled tracers).
            atexit.register(disable)
            _atexit_registered = True
        return _tracer


def disable() -> None:
    """Flush and close the process's tracer, if any."""
    global _tracer
    with _state_lock:
        if _tracer is None:
            return
        perf.set_tracer(None)
        _tracer.writer.close()
        _tracer = None


@contextmanager
def span(name: str, attrs: dict | None = None, *,
         detached: bool = False) -> Iterator[_Span | None]:
    """Context manager recording a structural span (no-op when disabled)."""
    tracer = _tracer
    if tracer is None:
        yield None
        return
    opened = tracer.start_span(name, attrs, detached=detached)
    try:
        yield opened
    finally:
        tracer.end_span(opened)


def event(name: str, attrs: dict | None = None) -> None:
    """Record an event on the active tracer (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, attrs)
