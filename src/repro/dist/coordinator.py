"""The distributed build coordinator.

The coordinator is a :class:`~repro.core.executor.PipelineExecutor` whose
workers are independent processes reached through a queue directory.  A
distributed build is an ordinary :meth:`LangCrUXPipeline.run
<repro.core.pipeline.LangCrUXPipeline.run>` on this executor: the
pipeline's merge loop consumes the window results the coordinator yields
*in plan order* — country by country in configured order, windows by rank
within each country — and streams the accepted record lines, which
workers serialized exactly as the single-host writer would, verbatim into
the output.  The output JSONL is therefore byte-identical to a single-host
build regardless of worker count, crashes or retries.

While the merge waits on a window the coordinator is also the failure
detector: leases whose heartbeat stopped are reaped (re-opening the
window — counted as ``dist.windows_reissued``), torn result files are
deleted (``dist.results_torn``), and dead local workers are respawned up
to a restart budget.  Once the pipeline stops asking for a country's
windows (its quota filled or its ranking ran out) the country gets a
filled marker, so workers stop claiming its remaining windows.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro import perf
from repro.core.executor import PipelineExecutor, ShardMetrics, ShardResult
from repro.core.pipeline import (
    LangCrUXPipeline,
    PipelineConfig,
    SelectionSubShard,
    plan_selection_windows,
    web_for_config,
)
from repro.core.site_selection import SelectionOutcome
from repro.dist.results import DecodedWindowResult, decode_window_result
from repro.dist.workqueue import QueuedWindow, WorkQueue
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger
from repro.obs.status import StatusReporter

LOG = get_logger("dist.coordinator")


class DistBuildError(RuntimeError):
    """A distributed build cannot make progress (e.g. every worker died)."""


@dataclass
class DistBuildResult:
    """What a coordinated build produced, mirroring ``PipelineResult``
    where the concepts coincide."""

    output: Path
    streamed_records: int
    selection_outcomes: dict[str, SelectionOutcome]
    shard_metrics: dict[str, ShardMetrics] = field(default_factory=dict)
    windows_planned: int = 0
    windows_merged: int = 0
    windows_reissued: int = 0
    results_torn: int = 0
    workers_spawned: int = 0
    worker_restarts: int = 0
    transport_metrics: object | None = None
    perf_metrics: perf.PerfCounters | None = None
    time_to_first_record_s: float | None = None

    def qualifying_site_counts(self) -> dict[str, int]:
        return {country: len(outcome.selected)
                for country, outcome in self.selection_outcomes.items()}


class Coordinator(PipelineExecutor):
    """Plans, supervises and merges one distributed build.

    :meth:`run` without arguments executes the build.  The pipeline calls
    it back as an executor, with its window function and the lazily
    filtered windows, and gets the window results from the queue.

    Args:
        config: The pipeline configuration (``sub_shard_size`` required —
            windows are the unit of distribution).
        queue_dir: The shared queue directory (created if missing).
        output: Destination JSONL path.
        workers: Local worker processes to spawn.  0 spawns none — the
            multi-host mode, where workers are started elsewhere with
            ``--role worker`` against the same (shared) queue dir.
        lease_timeout_s: Heartbeat age after which a lease is considered
            dead and its window re-issued.
        poll_interval_s: Result-poll period while waiting on a window.
        max_worker_restarts: Total respawn budget for dead local workers.
        worker_command: Override of the spawned worker argv (tests use
            this to inject crashing workers).
    """

    name = "dist"
    trace_root = "dist.build"

    def __init__(self, config: PipelineConfig, queue_dir: str | Path,
                 output: str | Path, *, workers: int = 0,
                 lease_timeout_s: float = 10.0,
                 poll_interval_s: float = 0.02,
                 max_worker_restarts: int = 3,
                 worker_command: list[str] | None = None) -> None:
        if config.sub_shard_size is None:
            raise ValueError("distributed builds require sub_shard_size: "
                             "windows are the unit of distribution")
        if config.crawl_cache is None:
            raise ValueError("distributed builds require crawl_cache: "
                             "re-issued windows replay from the shared cache")
        self.config = config
        self.queue = WorkQueue(queue_dir)
        self.output = Path(output)
        self.workers = workers
        self.lease_timeout_s = lease_timeout_s
        self.poll_interval_s = poll_interval_s
        self.max_worker_restarts = max_worker_restarts
        self.worker_command = worker_command
        self._procs: list[subprocess.Popen] = []
        self._restarts = 0
        self._spawned = 0
        self._reissued = 0
        self._torn = 0
        self._planned = 0
        self._merged: set[str] = set()  # ids of the windows the merge awaited

    # -- worker supervision -----------------------------------------------------

    def _spawn_worker(self) -> None:
        command = list(self.worker_command) if self.worker_command is not None \
            else [sys.executable, "-m", "repro.cli", "dist-build",
                  "--role", "worker", "--queue-dir", str(self.queue.root)]
        self._procs.append(subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                            env=os.environ.copy()))
        self._spawned += 1

    def _check_workers(self) -> None:
        """Respawn dead local workers; raise when none can make progress."""
        if not self._procs:
            return  # multi-host mode: external workers, nothing to supervise
        alive = [proc for proc in self._procs if proc.poll() is None]
        dead = len(self._procs) - len(alive)
        self._procs = alive
        for _ in range(dead):
            if self._restarts >= self.max_worker_restarts:
                continue
            self._restarts += 1
            self._spawn_worker()
        if not self._procs:
            raise DistBuildError(
                "all local workers exited with work remaining "
                f"(restart budget {self.max_worker_restarts} exhausted)")

    def _stop_workers(self) -> None:
        for proc in self._procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._procs = []

    # -- the executor -----------------------------------------------------------

    def _await_result(self, window: QueuedWindow,
                      counters: perf.PerfCounters | None) -> DecodedWindowResult:
        """Block until ``window`` has a readable result; police the queue."""
        path = self.queue.result_path(window.window_id)
        waited = 0.0
        while True:
            if path.exists():
                payload = self.queue.read_result(window.window_id)
                if payload is not None:
                    if counters is not None and waited:
                        counters.add_stage("dist.wait", waited)
                    return decode_window_result(payload)
                # A torn result can only come from a non-conforming or
                # half-dead writer; drop it so the window is re-evaluated.
                try:
                    path.unlink()
                except OSError:
                    pass
                self._torn += 1
                LOG.warn("torn result dropped", window=window.window_id)
                obs_trace.event("dist.result_torn",
                                {"window": window.window_id})
                if counters is not None:
                    counters.count("dist.results_torn")
            reaped = self.queue.reap_stale_leases(self.lease_timeout_s)
            if reaped:
                self._reissued += len(reaped)
                LOG.warn("stale leases reaped; windows re-issued",
                         windows=",".join(reaped))
                obs_trace.event("dist.windows_reissued",
                                {"windows": ",".join(reaped)})
                if counters is not None:
                    counters.count("dist.windows_reissued", len(reaped))
            self._check_workers()
            time.sleep(self.poll_interval_s)
            waited += self.poll_interval_s

    def _results(self, shards: Iterable[SelectionSubShard]) -> Iterator[ShardResult]:
        """Publish the plan, then yield the results of ``shards`` in order.

        The queue gets the whole plan up front so workers can run ahead of
        the merge; ``shards`` (the pipeline's filtered windows) decides
        which results the merge waits for.  Results that workers finished
        for windows it never asked for follow last, so their cost reaches
        the run totals.
        """
        config = self.config
        windows = self.queue.initialize(
            config, plan_selection_windows(config, web_for_config(config)[1]))
        self._planned = len(windows)
        by_spec = {window.spec: window for window in windows}
        reporter = None
        if config.trace_dir is not None:
            reporter = StatusReporter(
                str(self.queue.root), "coordinator",
                lambda: {"trace": config.trace_id,
                         "windows_planned": self._planned,
                         "windows_merged": len(self._merged),
                         "windows_reissued": self._reissued,
                         "results_torn": self._torn})
            reporter.start()
        index = -1
        country = None
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            for index, spec in enumerate(shards):
                if spec.country_code != country:
                    # The pipeline moved past the previous country: its
                    # quota filled or its ranking ran out.
                    if country is not None:
                        self.queue.mark_filled(country)
                    country = spec.country_code
                window = by_spec[spec]
                counters = perf.PerfCounters() if config.profile else None
                decoded = self._await_result(window, counters)
                if counters is not None:
                    counters.count("dist.windows_merged")
                    if decoded.perf_metrics is None:
                        decoded.perf_metrics = counters
                    else:
                        decoded.perf_metrics.merge(counters)
                self._merged.add(window.window_id)
                yield ShardResult(index=index, shard=spec, value=decoded,
                                  duration_s=decoded.duration_s)
            if country is not None:
                self.queue.mark_filled(country)
            self.queue.mark_done()
            # Speculative results the merge never asked for (windows past a
            # fill point that a worker evaluated before seeing the marker).
            for window in windows:
                if window.window_id in self._merged:
                    continue
                payload = self.queue.read_result(window.window_id)
                if payload is not None:
                    index += 1
                    late = decode_window_result(payload)
                    yield ShardResult(index=index, shard=late.spec, value=late,
                                      duration_s=late.duration_s)
        finally:
            self.queue.mark_done()  # even on failure: workers must exit
            self._stop_workers()
            if reporter is not None:
                reporter.stop()

    def run(self, fn: Callable[[Any], Any] | None = None,
            shards: Iterable[SelectionSubShard] | None = None):
        """Execute the build; returns once the output file is committed.

        Called with ``shards`` — as the pipeline does — this is the
        executor protocol instead: it yields their results from the queue,
        in order.  ``fn`` is never called here; the workers evaluate each
        window with the same pure
        :func:`~repro.core.pipeline.execute_selection_subshard` in their own
        processes.
        """
        if shards is not None:
            return self._results(shards)
        result = LangCrUXPipeline(self.config).run(
            executor=self, stream_to=self.output, keep_in_memory=False)
        return DistBuildResult(
            output=self.output, streamed_records=result.streamed_records,
            selection_outcomes=result.selection_outcomes,
            shard_metrics=result.shard_metrics,
            windows_planned=self._planned, windows_merged=len(self._merged),
            windows_reissued=self._reissued, results_torn=self._torn,
            workers_spawned=self._spawned, worker_restarts=self._restarts,
            transport_metrics=result.transport_metrics,
            perf_metrics=result.perf_metrics,
            time_to_first_record_s=result.time_to_first_record_s)


def dist_build(config: PipelineConfig, queue_dir: str | Path,
               output: str | Path, *, workers: int = 2,
               **kwargs) -> DistBuildResult:
    """Convenience wrapper: coordinate a build with ``workers`` local workers."""
    return Coordinator(config, queue_dir, output,
                       workers=workers, **kwargs).run()
