"""The distributed crawl worker.

A worker is a plain process pointed at a queue directory (``langcrux
dist-build --role worker --queue-dir DIR``).  It loads the build config,
then loops (rebuilding the synthetic web deterministically in-process on
the first window, exactly like a process-pool worker — the web is never
shipped): find the
first unclaimed, unfinished window of an unfilled country, claim it,
evaluate it through the pure
:func:`~repro.core.pipeline.execute_selection_subshard`, and commit the
encoded result.  It exits when the coordinator drops the done marker.

Crash behaviour is the whole point: while a window is being evaluated a
daemon heartbeat thread refreshes the lease's mtime, so a SIGKILLed
worker's lease goes stale within the coordinator's timeout and the window
is re-issued.  Because every participant shares one crawl-cache
directory, the replacement worker replays the dead worker's completed
fetches from disk — only the un-fetched remainder costs wire time — and
the re-evaluated result is byte-identical (window purity), keeping
duplicate completions harmless.

Workers force ``cache_fsync="entry"``: a window result must not claim
fetches whose manifest lines, or the pack bytes those lines point at, a
crash could still lose.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace

from repro import perf
from repro.core.pipeline import PipelineConfig, execute_selection_subshard
from repro.crawler.metrics import TransportMetrics
from repro.dist.results import encode_window_result
from repro.dist.workqueue import Lease, QueuedWindow, WorkQueue
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.obs.status import StatusReporter

LOG = get_logger("dist.worker")


@dataclass
class WorkerStats:
    """What one worker did, for the CLI's exit line and the tests."""

    worker: str
    windows_executed: int = 0
    windows_skipped_filled: int = 0
    claim_conflicts: int = 0
    idle_s: float = 0.0


class _HeartbeatThread(threading.Thread):
    """Refreshes a lease's mtime until stopped (daemon: dies with the worker,
    which is exactly what lets the coordinator detect a SIGKILL)."""

    def __init__(self, lease: Lease, interval_s: float) -> None:
        super().__init__(daemon=True)
        self._lease = lease
        self._interval_s = interval_s
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval_s):
            self._lease.heartbeat()

    def stop(self) -> None:
        self._stopped.set()
        self.join()


class CrawlWorker:
    """Claims and evaluates windows from a queue directory until done.

    Args:
        queue_dir: The shared queue directory.
        worker_id: Stable identity written into leases and results
            (defaults to ``host:pid``).
        heartbeat_interval_s: Lease mtime refresh period; must be well
            under the coordinator's lease timeout.
        poll_interval_s: Sleep between scans when no window is claimable.
        build_timeout_s: How long to wait for ``build.json`` to appear.
    """

    def __init__(self, queue_dir: str, *, worker_id: str | None = None,
                 heartbeat_interval_s: float = 0.5,
                 poll_interval_s: float = 0.05,
                 build_timeout_s: float = 60.0) -> None:
        self.queue = WorkQueue(queue_dir)
        self.worker_id = worker_id or f"{os.uname().nodename}:{os.getpid()}"
        self.heartbeat_interval_s = heartbeat_interval_s
        self.poll_interval_s = poll_interval_s
        self.build_timeout_s = build_timeout_s

    def run(self) -> WorkerStats:
        """The claim→evaluate→commit loop; returns on the done marker."""
        stats = WorkerStats(worker=self.worker_id)
        config = self.queue.wait_for_build(timeout_s=self.build_timeout_s)
        # A window declared complete must not be able to lose cache
        # manifest lines to a crash: later windows (possibly on other
        # workers) rely on replaying its fetches.
        config = replace(config, cache_fsync="entry")
        windows = self.queue.load_windows()
        # The coordinator stamped the build's trace identity into
        # build.json; joining it here is what makes `langcrux trace`
        # see one tree spanning every process.
        tracer = None
        session_span = None
        if config.trace_dir is not None:
            tracer = obs_trace.ensure(config.trace_dir,
                                      trace_id=config.trace_id,
                                      parent_span_id=config.trace_parent)
            session_span = tracer.start_span("dist.worker",
                                             {"worker": self.worker_id})
            tracer.default_parent = session_span.span_id
        totals = TransportMetrics()

        def _snapshot() -> dict:
            payload = {
                "windows_executed": stats.windows_executed,
                "claim_conflicts": stats.claim_conflicts,
                "idle_s": round(stats.idle_s, 2),
                "network_requests": totals.network_requests,
            }
            looked = totals.cache_hits + totals.cache_misses
            if looked:
                payload["cache_hit_rate"] = round(totals.cache_hits / looked, 3)
            if config.trace_id is not None:
                payload["trace"] = config.trace_id
            return payload

        reporter = StatusReporter(str(self.queue.root), "worker", _snapshot,
                                  ident=self.worker_id)
        reporter.start()
        LOG.info("worker started", worker=self.worker_id,
                 queue=str(self.queue.root))
        try:
            while not self.queue.is_done():
                claimed = self._claim_next(windows, stats)
                if claimed is None:
                    stats.idle_s += self.poll_interval_s
                    time.sleep(self.poll_interval_s)
                    continue
                window, lease = claimed
                self._execute(config, window, lease, totals)
                stats.windows_executed += 1
        finally:
            reporter.stop(final=_snapshot())
            if tracer is not None:
                tracer.end_span(session_span)
                obs_trace.disable()
        return stats

    def _claim_next(self, windows: list[QueuedWindow],
                    stats: WorkerStats) -> tuple[QueuedWindow, Lease] | None:
        """The first claimable window in plan order, claimed — or ``None``.

        Plan order keeps workers on the merge frontier (the coordinator
        consumes results in exactly this order), which minimises the time
        results sit speculative on disk.
        """
        filled = self.queue.filled_countries()
        for window in windows:
            if window.spec.country_code in filled:
                stats.windows_skipped_filled += 1
                continue
            if self.queue.result_path(window.window_id).exists():
                continue
            if self.queue.lease_path(window.window_id).exists():
                continue
            lease = self.queue.try_claim(window.window_id, self.worker_id)
            if lease is None:  # lost the claim race
                stats.claim_conflicts += 1
                continue
            return window, lease
        return None

    def _execute(self, config: PipelineConfig, window: QueuedWindow,
                 lease: Lease, totals: TransportMetrics) -> None:
        heartbeat = _HeartbeatThread(lease, self.heartbeat_interval_s)
        heartbeat.start()
        try:
            started = time.perf_counter()
            result = execute_selection_subshard(config, window.spec)
            duration_s = time.perf_counter() - started
            if result.transport_metrics is not None:
                totals.merge(result.transport_metrics)
            LOG.debug("window executed", window=window.window_id,
                      country=window.spec.country_code,
                      duration_s=round(duration_s, 3))
            if result.perf_metrics is not None:
                # Ship this worker's memory peaks home with the counters;
                # the coordinator's gauge merge keeps the fleet-wide max.
                for name, value in perf.memory_gauges().items():
                    result.perf_metrics.gauge(name, value)
            self.queue.commit_result(
                window.window_id,
                encode_window_result(result, worker=self.worker_id,
                                     duration_s=duration_s))
        finally:
            heartbeat.stop()
            lease.release()
