"""Execution backends for the pipeline's selection windows.

The paper's methodology (Figure 1) treats every language–country pair as an
independent unit of work: each country gets its own VPN vantage, its own
CrUX ranking walk, its own crawl session and its own audits.  The pipeline
cuts that work into *selection windows* (rank slices of one country's
ranking, or the whole ranking), and nothing flows between windows until
their rank-ordered merge.  This module supplies the execution layer that
exploits that independence without giving up determinism:

* :class:`PipelineExecutor` — the abstraction: ``run()`` dispatches a work
  function over a sequence of work units and streams :class:`ShardResult`
  envelopes back *as they complete*; ``run_ordered()`` re-sequences that
  stream into submission order with a reorder buffer, which is what makes
  parallel output byte-identical to sequential output.
* :class:`SerialExecutor` — the reference backend: runs units inline, in
  order, with zero concurrency machinery.  Parallel backends are verified
  against it.
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor`` backend for true
  CPU parallelism (page generation, HTML parsing and audits are pure-Python
  hot loops).  Work functions and their arguments must be picklable.

The distributed work queue is a backend too
(:class:`repro.dist.coordinator.Coordinator`): its worker processes claim
windows from a shared directory, and it yields their results in plan order.

Determinism contract
--------------------
Backends never inject randomness: every window derives its own RNG from
``stable_seed(seed, "transport", country, host)`` inside the window
function, and ``run_ordered`` merges results in submission order.
Consequently a run with ``workers=4`` serializes to JSONL byte-for-byte
identically to a sequential run with the same
:class:`~repro.core.pipeline.PipelineConfig` — a property pinned by
``tests/test_core_executor.py``.

Failure contract
----------------
The first exception aborts the run: pending units are cancelled, the pool
is drained and shut down, and the original exception is re-raised wrapped
in :class:`ExecutorError` (with the failing unit attached).

Sizing
------
``create_executor("auto", workers)`` picks :class:`SerialExecutor` for one
worker and :class:`ProcessExecutor` otherwise.  Over-provisioning
(``workers > windows``) changes no output, and the process pool starts no
more workers than there are windows.
"""

from __future__ import annotations

import itertools
import queue
import time
from abc import ABC, abstractmethod
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

#: Executor kinds accepted by :func:`create_executor` (and the CLI).
EXECUTOR_KINDS = ("auto", "serial", "process")


def plan_chunks(total: int, size: int) -> list[tuple[int, int]]:
    """``[start, stop)`` windows of at most ``size`` covering ``range(total)``.

    The unit of sub-shard planning: a shard of ``total`` rank-ordered items
    splits into ``ceil(total / size)`` contiguous windows, each of which can
    be evaluated independently and merged back in window order.

    Raises:
        ValueError: For a non-positive ``size`` or a negative ``total``.
    """
    if size < 1:
        raise ValueError(f"chunk size must be positive, got {size}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    return [(start, min(start + size, total)) for start in range(0, total, size)]


class ExecutorError(RuntimeError):
    """A shard function raised; wraps the original exception.

    Attributes:
        shard: The shard whose function failed (``None`` when unknown).
    """

    def __init__(self, message: str, *, shard: Any = None) -> None:
        super().__init__(message)
        self.shard = shard


@dataclass(frozen=True)
class ShardResult:
    """One completed shard, as streamed out of an executor.

    Attributes:
        index: Position of the shard in the submitted sequence.
        shard: The shard object itself (a country code in the pipeline).
        value: Whatever the shard function returned.
        duration_s: Wall-clock seconds the shard function ran for.
    """

    index: int
    shard: Any
    value: Any
    duration_s: float


@dataclass(frozen=True)
class ShardMetrics:
    """Progress/timing metrics for one shard, surfaced on the result.

    Attributes:
        shard: Shard identifier (the country code).
        index: Submission position of the shard.
        duration_s: Wall-clock seconds spent in the shard function.  For a
            sub-sharded shard this is the *sum* over its sub-shards — the
            work a serial walk would do, not the elapsed wall-clock.
        records: Number of site records the shard produced.
        sub_shards: How many sub-shard units the shard was executed as
            (1 when the shard ran as a single unit).
    """

    shard: str
    index: int
    duration_s: float
    records: int
    sub_shards: int = 1

    @property
    def records_per_second(self) -> float:
        """Shard throughput (0.0 for an instantaneous shard)."""
        if self.duration_s <= 0.0:
            return 0.0
        return self.records / self.duration_s


class PipelineExecutor(ABC):
    """Dispatches a shard function over independent shards."""

    #: Human-readable backend name (used in CLI output and benchmarks).
    name: str = "abstract"

    #: Number of concurrent workers the backend may use.
    workers: int = 1

    #: Name of the root span of a traced run on this backend.
    trace_root: str = "build"

    @abstractmethod
    def run(self, fn: Callable[[Any], Any],
            shards: Sequence[Any] | Iterable[Any]) -> Iterator[ShardResult]:
        """Run ``fn`` over ``shards``, yielding results as they complete.

        Completion order is backend-dependent; use :meth:`run_ordered` when
        downstream consumers require submission order.

        Raises:
            ExecutorError: When any shard function raises; remaining shards
                are cancelled.
        """

    def run_ordered(self, fn: Callable[[Any], Any],
                    shards: Sequence[Any] | Iterable[Any]) -> Iterator[ShardResult]:
        """Like :meth:`run` but re-sequenced into submission order.

        Out-of-order completions are held in a reorder buffer until every
        earlier shard has been yielded, which restores the deterministic
        merge order of a sequential run.  The buffer cannot be hard-bounded:
        a straggling early shard can only deliver its result once the queue
        is drained, so in the worst case (first shard slowest) the buffer
        holds all later results.  Callers for whom that matters should
        consume :meth:`run` directly and reorder/spill themselves.
        """
        buffered: dict[int, ShardResult] = {}
        next_index = 0
        stream = self.run(fn, shards)
        try:
            for result in stream:
                buffered[result.index] = result
                del result  # as in SerialExecutor.run: the consumer owns it
                while next_index in buffered:
                    yield buffered.pop(next_index)
                    next_index += 1
        finally:
            # A consumer that stops early (e.g. the sub-sharded selection
            # walk once its quota fills) closes this generator; propagate
            # the close so the backend cancels pending shards and shuts its
            # pool down deterministically instead of at garbage collection.
            close = getattr(stream, "close", None)
            if close is not None:
                close()


class SerialExecutor(PipelineExecutor):
    """Runs shards inline, in submission order — the reference backend."""

    name = "serial"
    workers = 1

    def run(self, fn: Callable[[Any], Any],
            shards: Sequence[Any] | Iterable[Any]) -> Iterator[ShardResult]:
        for index, shard in enumerate(shards):
            started = time.perf_counter()
            try:
                value = fn(shard)
            except Exception as error:
                raise ExecutorError(f"shard {shard!r} failed: {error}",
                                    shard=shard) from error
            yield ShardResult(index=index, shard=shard, value=value,
                              duration_s=time.perf_counter() - started)
            del value  # the consumer owns the result: no two alive at once


def _timed_call(fn: Callable[[Any], Any], index: int,
                shard: Any) -> tuple[int, Any, Any, float, Exception | None]:
    """Run one shard in a worker process, measuring its wall-clock time.

    Exceptions are returned rather than raised so the parent can report
    *which* shard failed (a raised exception would surface through
    ``Future.result()`` with the shard identity lost).
    """
    started = time.perf_counter()
    try:
        value = fn(shard)
    except Exception as error:
        return index, shard, None, 0.0, error
    return index, shard, value, time.perf_counter() - started, None


class ProcessExecutor(PipelineExecutor):
    """Process-pool backend for CPU-bound shards.

    ``fn`` and the shards must be picklable (the pipeline passes a
    ``functools.partial`` over a module-level shard function).  Completed
    futures are streamed through a completion queue so the consumer sees
    results as they finish rather than after a full barrier.  The queue
    holds future *references*, not payloads, and at most ``workers + 1`` of
    them (the submission window below).

    Shards are consumed *lazily* through a bounded submission window of
    ``workers + 1`` outstanding tasks (enough to keep every worker busy
    plus one queued), refilled after each yielded result.  Speculative
    workloads exploit this: the pipeline's sub-sharded selection walk hands
    this backend a *generator* that drops windows of already-finished
    countries at submit time, so a filled quota stops new windows from
    being scheduled at all — worker processes cannot observe the parent's
    live filled-flag, but the parent-side submission point can.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"ProcessExecutor requires at least one worker, got {workers}")
        self.workers = workers

    def run(self, fn: Callable[[Any], Any],
            shards: Sequence[Any] | Iterable[Any]) -> Iterator[ShardResult]:
        source = enumerate(shards)
        window = self.workers + 1
        # Pull the first submission window before forking: a source with
        # fewer windows than workers gets a pool no larger than its windows
        # (the ``fork`` pool starts every worker at its first submit).
        first = list(itertools.islice(source, window))
        if not first:
            return
        pool = futures.ProcessPoolExecutor(max_workers=min(self.workers, len(first)))
        done: queue.SimpleQueue = queue.SimpleQueue()
        # Futures not yet taken off ``done`` (a taken one holds its result).
        pending: set[futures.Future] = set()

        def submit(index: int, shard: Any) -> None:
            future = pool.submit(_timed_call, fn, index, shard)
            future.add_done_callback(done.put)
            pending.add(future)

        try:
            for index, shard in first:
                submit(index, shard)
            while pending:
                future = done.get()
                pending.discard(future)
                try:
                    index, shard, value, duration_s, error = future.result()
                except futures.CancelledError:  # pragma: no cover - abort path
                    continue
                except Exception as error:  # pool breakage, unpicklable payloads
                    raise ExecutorError(f"shard failed: {error}") from error
                if error is not None:
                    raise ExecutorError(f"shard {shard!r} failed: {error}",
                                        shard=shard) from error
                yield ShardResult(index=index, shard=shard, value=value,
                                  duration_s=duration_s)
                del future, value  # the consumer owns the result now
                # Refill *after* the consumer processed the result: whatever
                # state the consumer updates (e.g. finished countries) is
                # visible to a lazily filtered shard source before the next
                # submission.
                for index, shard in itertools.islice(source, window - len(pending)):
                    submit(index, shard)
        finally:
            for future in pending:
                future.cancel()
            # Every future fires its done-callback exactly once — on
            # completion or on cancellation — so exactly one envelope per
            # pending future is still owed; block for each instead of
            # sleep-polling future states.
            for _ in range(len(pending)):
                done.get()
            pool.shutdown(wait=True)


def create_executor(kind: str = "auto", workers: int = 1) -> PipelineExecutor:
    """Build an executor backend.

    Args:
        kind: One of :data:`EXECUTOR_KINDS`.  ``"auto"`` selects
            :class:`SerialExecutor` for a single worker and
            :class:`ProcessExecutor` otherwise.
        workers: Number of concurrent work units.  Must be >= 1; a value
            larger than the number of units is allowed (surplus workers
            are not started).

    Raises:
        ValueError: For an unknown ``kind`` or a non-positive worker count.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}")
    if workers < 1:
        raise ValueError(f"executor requires at least one worker, got {workers}")
    if kind == "serial" or (kind == "auto" and workers == 1):
        return SerialExecutor()
    return ProcessExecutor(workers)
