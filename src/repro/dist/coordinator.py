"""The distributed build coordinator.

The coordinator owns the merge — everything order-sensitive — while
workers own the crawling.  It plans the deterministic window split,
publishes it to the queue directory, optionally spawns local worker
processes, and then consumes window results *in plan order*: country by
country in configured order, windows by rank within each country, each
committed through the country's :class:`~repro.core.pipeline.CountryMerge`
with accepted record lines streamed verbatim into per-country sections of
a :class:`~repro.core.dataset.StreamingDatasetWriter`.  That is the same
merge step the single-host build runs, so the output JSONL is
byte-identical to ``LangCrUXPipeline.run(stream_to=...)`` regardless of
worker count, crashes or retries.

While waiting on a window the coordinator is also the failure detector:
leases whose heartbeat stopped are reaped (re-opening the window —
counted as ``dist.windows_reissued``), torn result files are deleted
(``dist.results_torn``), and dead local workers are respawned up to a
restart budget.  A country whose quota fills mid-merge gets a filled
marker so workers stop claiming its remaining windows, and those windows
are *not* waited on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import perf
from repro.core.dataset import StreamingDatasetWriter
from repro.core.executor import ShardMetrics
from repro.core.pipeline import (
    CountryMerge,
    PipelineConfig,
    RecordSink,
    _RunTotals,
    build_web_for_config,
    plan_selection_windows,
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


class Coordinator:
    """Plans, supervises and merges one distributed build.

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
        poll_interval_s: Result-poll period of the merge loop.
        max_worker_restarts: Total respawn budget for dead local workers.
        worker_command: Override of the spawned worker argv (tests use
            this to inject crashing workers).
        stream_fsync: Fsync policy of the output writer.
    """

    def __init__(self, config: PipelineConfig, queue_dir: str | Path,
                 output: str | Path, *, workers: int = 0,
                 lease_timeout_s: float = 10.0,
                 poll_interval_s: float = 0.02,
                 max_worker_restarts: int = 3,
                 worker_command: list[str] | None = None,
                 stream_fsync: str = "commit") -> None:
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
        self.stream_fsync = stream_fsync
        self._procs: list[subprocess.Popen] = []
        self._restarts = 0
        self._spawned = 0
        self._reissued = 0
        self._torn = 0

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

    # -- the merge --------------------------------------------------------------

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

    def run(self) -> DistBuildResult:
        """Execute the build; returns once the output file is committed."""
        config = self.config
        # Tracing identity must be settled *before* the queue publishes
        # build.json — that file is how workers inherit the trace id and
        # parent span, which is what lets `langcrux trace` reassemble one
        # tree spanning the coordinator and every worker process.
        tracer = None
        root_span = None
        if config.trace_dir is not None:
            tracer = obs_trace.ensure(config.trace_dir,
                                      trace_id=config.trace_id)
            config.trace_id = tracer.trace_id
            root_span = tracer.start_span(
                "dist.build",
                {"countries": ",".join(config.countries),
                 "quota": config.sites_per_country,
                 "seed": config.seed, "workers": self.workers})
            config.trace_parent = root_span.span_id
            tracer.default_parent = root_span.span_id
        web, crux = build_web_for_config(config)
        specs = plan_selection_windows(config, crux)
        windows = self.queue.initialize(config, specs)
        by_country: dict[str, list[QueuedWindow]] = {
            country: [] for country in config.countries}
        for window in windows:
            by_country[window.spec.country_code].append(window)
        counters = perf.PerfCounters() if config.profile else None
        totals = _RunTotals()
        outcomes: dict[str, SelectionOutcome] = {}
        metrics: dict[str, ShardMetrics] = {}
        merged = 0
        merged_ids: set[str] = set()
        writer = StreamingDatasetWriter(self.output, fsync=self.stream_fsync)
        sink = RecordSink(writer, None)
        progress = {"windows_merged": 0, "records_streamed": 0,
                    "countries_done": 0}
        reporter = None
        if tracer is not None:
            reporter = StatusReporter(
                str(self.queue.root), "coordinator",
                lambda: {"trace": config.trace_id,
                         "windows_planned": len(windows),
                         "windows_reissued": self._reissued, **progress})
            reporter.start()
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            for index, country in enumerate(config.countries):
                merge = CountryMerge.for_country(config, country, index)
                with obs_trace.span("merge", {"country": country}):
                    for window in by_country[country]:
                        if merge.committer.filled:
                            break
                        decoded = self._await_result(window, counters)
                        merged += 1
                        merged_ids.add(window.window_id)
                        totals.merge(decoded.transport_metrics,
                                     decoded.perf_metrics)
                        progress["records_streamed"] += merge.commit_window(
                            decoded.evaluations, decoded.record_lines,
                            decoded.duration_s, sink.commit_serialized)
                        progress["windows_merged"] = merged
                # Either the quota filled or the ranking is exhausted;
                # both mean workers should stop claiming this country.
                self.queue.mark_filled(country)
                metrics[country] = merge.finalize(sink)
                outcomes[country] = merge.committer.outcome
                progress["countries_done"] = index + 1
            self.queue.mark_done()
            if counters is not None:
                counters.count("dist.windows_merged", merged)
            # Fold in speculative results the merge never consumed (windows
            # past a fill point that a worker evaluated before seeing the
            # marker), mirroring the single-host late-window accounting.
            for window in windows:
                if window.window_id in merged_ids:
                    continue
                payload = self.queue.read_result(window.window_id)
                if payload is not None:
                    late = decode_window_result(payload)
                    totals.merge(late.transport_metrics, late.perf_metrics)
            with obs_trace.span("dataset.commit", {"path": str(self.output)}):
                streamed = writer.close()
        except BaseException:
            writer.abort()
            raise
        finally:
            self.queue.mark_done()  # even on failure: workers must exit
            self._stop_workers()
            if reporter is not None:
                reporter.stop()
            if tracer is not None:
                tracer.end_span(root_span)
                obs_trace.disable()
        totals.merge(None, counters)
        totals.stamp_gauges(sink)
        return DistBuildResult(
            output=self.output, streamed_records=streamed,
            selection_outcomes=outcomes, shard_metrics=metrics,
            windows_planned=len(windows), windows_merged=merged,
            windows_reissued=self._reissued, results_torn=self._torn,
            workers_spawned=self._spawned, worker_restarts=self._restarts,
            transport_metrics=totals.transport, perf_metrics=totals.perf,
            time_to_first_record_s=sink.first_record_s)


def dist_build(config: PipelineConfig, queue_dir: str | Path,
               output: str | Path, *, workers: int = 2,
               **kwargs) -> DistBuildResult:
    """Convenience wrapper: coordinate a build with ``workers`` local workers."""
    return Coordinator(config, queue_dir, output,
                       workers=workers, **kwargs).run()
