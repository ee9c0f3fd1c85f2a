"""Hot-path profiling and instrumentation.

The post-fetch pipeline stages (parse, DocumentIndex build, extraction, audit
rules, langid scoring, Kizuki, record build) are pure-Python CPU work; knowing
where the time goes is a prerequisite for optimising them.  This module
provides a lightweight stage timer / op counter facility modeled on
:class:`repro.crawler.metrics.TransportMetrics`:

* :class:`PerfCounters` — the accumulator.  Thread-safe, picklable (shard
  workers snapshot one and ship it back to the parent like transport
  metrics), mergeable via :meth:`PerfCounters.merge`.
* :func:`collecting` — context manager that installs a collector for the
  current thread.  Instrumented code records into whatever collector is
  active; with none installed the instrumentation reduces to one attribute
  lookup and a ``None`` check per stage entry (near-zero overhead, which is
  why profiling can stay compiled into the hot paths).
* :func:`stage` / :func:`count` / :func:`gauge` — the instrumentation points
  used throughout ``repro.html``, ``repro.langid``, ``repro.audit`` and
  ``repro.core``.

Counters sum when merged; **gauges** merge by ``max`` and capture level-style
observations where the run-wide peak is the interesting number — peak
resident set size, the record-buffer high-water mark of a streaming run,
time-to-first-record.  :func:`memory_gauges` samples the process's memory
peaks (``resource.getrusage`` RSS for self and children, plus the
``tracemalloc`` peak when tracing is active) in that shape.

Collection is thread-local on purpose: a collector sees only the work of
the thread that installed it, so per-window collectors never observe each
other's work (or that of any other thread in the process) and per-window
totals stay deterministic.

Stages nest (e.g. ``record`` encloses ``extract`` which encloses ``index``),
so stage times are inclusive and do not sum to wall-clock time; the summary
line orders stages by total time (what matters for finding hot spots) while
the ``--profile`` table is name-sorted so its output diffs deterministically
across executors and runs.

The stage timers double as tracing hooks: when :mod:`repro.obs.trace` is
enabled it registers itself via :func:`set_tracer`, and every ``stage()``
block then also emits a span — durations and nesting identical to the
profile view, but per-occurrence and cross-process joinable.  With no
tracer registered the hook costs one module-global ``None`` check.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class StageStat:
    """Aggregate of one named stage: call count and total seconds."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def avg_ms(self) -> float:
        return (self.seconds / self.calls) * 1000.0 if self.calls else 0.0


@dataclass
class PerfCounters:
    """Per-stage timers, named op counters and peak gauges.

    Instances are plain picklable data (the lock is dropped on pickling and
    recreated on restore, mirroring ``TransportMetrics``), so shard workers
    can snapshot and ship them back to the parent, which merges them via
    :meth:`merge`.  Stage times and counters *sum* across merges; gauges
    merge by ``max`` — they record the highest level any contributor saw.
    """

    stages: dict[str, StageStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"stages": self.stages, "counters": self.counters,
                "gauges": self.gauges}

    def __setstate__(self, state: dict) -> None:
        self.stages = state["stages"]
        self.counters = state["counters"]
        self.gauges = state.get("gauges", {})
        self._lock = threading.Lock()

    # -- accumulation ----------------------------------------------------------

    def add_stage(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record ``calls`` invocations of ``name`` totalling ``seconds``."""
        with self._lock:
            stat = self.stages.get(name)
            if stat is None:
                stat = self.stages[name] = StageStat()
            stat.calls += calls
            stat.seconds += seconds

    def count(self, name: str, amount: int = 1) -> None:
        """Increment op counter ``name`` by ``amount`` (thread-safe)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (thread-safe).

        Gauges are high-water marks: setting a lower value than the current
        one is a no-op, and merging keeps the maximum of both sides.
        """
        with self._lock:
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value

    def merge(self, other: "PerfCounters") -> None:
        """Fold another collector's stages, counters and gauges into this one."""
        with self._lock:
            for name, stat in other.stages.items():
                mine = self.stages.get(name)
                if mine is None:
                    self.stages[name] = StageStat(stat.calls, stat.seconds)
                else:
                    mine.calls += stat.calls
                    mine.seconds += stat.seconds
            for name, value in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in other.gauges.items():
                current = self.gauges.get(name)
                if current is None or value > current:
                    self.gauges[name] = value

    # -- derived / reporting ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.stages and not self.counters and not self.gauges

    def total_seconds(self) -> float:
        """Sum of stage times (inclusive; nested stages double-count)."""
        return sum(stat.seconds for stat in self.stages.values())

    def stage_calls(self) -> dict[str, int]:
        """Deterministic {stage: calls} snapshot (seconds excluded)."""
        return {name: self.stages[name].calls for name in sorted(self.stages)}

    def as_dict(self) -> dict:
        return {
            "stages": {name: {"calls": stat.calls, "seconds": stat.seconds}
                       for name, stat in sorted(self.stages.items())},
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PerfCounters":
        """Rebuild a collector from :meth:`as_dict` output.

        The JSON round trip is what lets distributed workers ship their
        per-window counters home through window-result files; the
        coordinator merges the rebuilt collectors exactly as the process
        executor merges pickled ones.
        """
        counters = cls(
            stages={name: StageStat(calls=stat.get("calls", 0),
                                    seconds=stat.get("seconds", 0.0))
                    for name, stat in payload.get("stages", {}).items()},
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
        )
        return counters

    def summary_line(self) -> str:
        """One-line per-stage timing summary, hottest stage first."""
        if not self.stages:
            return "no stages recorded"
        ranked = sorted(self.stages.items(), key=lambda item: (-item[1].seconds, item[0]))
        parts = [f"{name} {stat.seconds:.3f}s/{stat.calls}" for name, stat in ranked]
        return " ".join(parts)

    def table_lines(self) -> list[str]:
        """Per-stage table plus a counters line (used by ``build --profile``).

        Deterministically ordered — stages sorted by name, then the
        counters line, gauges last — so CI greps and diffs of profile
        output are stable across executors and timing jitter (the
        hotness ranking lives in :meth:`summary_line`).
        """
        lines = [f"{'stage':<28}{'calls':>10}{'total s':>12}{'avg ms':>10}"]
        for name, stat in sorted(self.stages.items()):
            lines.append(f"{name:<28}{stat.calls:>10}{stat.seconds:>12.4f}{stat.avg_ms:>10.3f}")
        if self.counters:
            pairs = " ".join(f"{name}={value}" for name, value in sorted(self.counters.items()))
            lines.append(f"counters: {pairs}")
        if self.gauges:
            pairs = " ".join(f"{name}={value:g}" for name, value in sorted(self.gauges.items()))
            lines.append(f"gauges: {pairs}")
        return lines


# -- thread-local collection ---------------------------------------------------

_local = threading.local()

#: The process's tracer hook (set by ``repro.obs.trace`` when tracing is
#: enabled).  Typed loosely to keep this module import-cycle-free: perf is
#: imported by nearly everything, obs imports perf.
_tracer = None


def set_tracer(tracer) -> None:
    """Register (or with ``None`` deregister) the stage-span tracer hook."""
    global _tracer
    _tracer = tracer


def active() -> PerfCounters | None:
    """The collector installed for the current thread, or ``None``."""
    return getattr(_local, "collector", None)


@contextmanager
def collecting(collector: PerfCounters | None) -> Iterator[PerfCounters | None]:
    """Install ``collector`` for the current thread for the duration.

    Passing ``None`` is an explicit no-op, which lets callers write one
    ``with perf.collecting(counters_or_none):`` regardless of whether
    profiling is enabled.  Nested use restores the previous collector.
    """
    if collector is None:
        yield None
        return
    previous = getattr(_local, "collector", None)
    _local.collector = collector
    try:
        yield collector
    finally:
        _local.collector = previous


class _NullTimer:
    """Shared no-op context manager returned when no collector is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class StageTimer:
    """Times one ``with`` block into a collector and/or a tracer span."""

    __slots__ = ("_name", "_collector", "_tracer", "_span", "_started")

    def __init__(self, name: str, collector: PerfCounters | None,
                 tracer=None) -> None:
        self._name = name
        self._collector = collector
        self._tracer = tracer

    def __enter__(self) -> "StageTimer":
        if self._tracer is not None:
            # Perf-hook spans are non-structural: the tracer only writes
            # them past its minimum-duration threshold, bounding trace
            # volume from hot micro-stages.
            self._span = self._tracer.start_span(self._name, structural=False)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._collector is not None:
            self._collector.add_stage(self._name,
                                      time.perf_counter() - self._started)
        if self._tracer is not None:
            self._tracer.end_span(self._span)


def stage(name: str):
    """Context manager timing ``name`` into the active collector/tracer.

    With no collector installed and no tracer registered this returns a
    shared no-op timer, so the disabled cost is one thread-local lookup
    and one global check per stage entry.
    """
    collector = getattr(_local, "collector", None)
    tracer = _tracer
    if collector is None and tracer is None:
        return _NULL_TIMER
    return StageTimer(name, collector, tracer)


def count(name: str, amount: int = 1) -> None:
    """Increment op counter ``name`` on the active collector, if any."""
    collector = getattr(_local, "collector", None)
    if collector is not None:
        collector.count(name, amount)


def gauge(name: str, value: float) -> None:
    """Raise gauge ``name`` on the active collector, if any."""
    collector = getattr(_local, "collector", None)
    if collector is not None:
        collector.gauge(name, value)


# -- memory gauges --------------------------------------------------------------


def memory_gauges() -> dict[str, float]:
    """Sample the process's peak-memory gauges.

    Returns ``mem.peak_rss_kb`` (the process's lifetime peak resident set
    size) and ``mem.peak_rss_children_kb`` (the largest peak among reaped
    child processes — the process-executor workers) from
    ``resource.getrusage``, plus ``mem.tracemalloc_peak_kb`` when
    ``tracemalloc`` is tracing (the resettable Python-heap peak the memory
    benchmark compares across runs).  On platforms without ``resource`` the
    RSS gauges are omitted.
    """
    gauges: dict[str, float] = {}
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        resource = None
    if resource is not None:
        # ru_maxrss is kilobytes on Linux, bytes on macOS; normalise to KiB.
        scale = 1024.0 if sys.platform == "darwin" else 1.0
        gauges["mem.peak_rss_kb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
        gauges["mem.peak_rss_children_kb"] = \
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    import tracemalloc
    if tracemalloc.is_tracing():
        gauges["mem.tracemalloc_peak_kb"] = tracemalloc.get_traced_memory()[1] / 1024.0
    return gauges
