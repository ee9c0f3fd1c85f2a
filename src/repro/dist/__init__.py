"""Distributed crawl coordination (ROADMAP item 1).

One host's process pool tops out long before the paper's origin counts do;
this package scales the sub-sharded selection walk across *independent
worker processes* — on one machine today, on many machines tomorrow —
coordinated through nothing but a shared directory:

* :class:`~repro.dist.workqueue.WorkQueue` — the on-disk protocol: planned
  window specs, ``O_CREAT|O_EXCL`` lease files with mtime heartbeats,
  idempotent window-result files committed via temp-file + ``os.replace``,
  and marker files (per-country quota-filled, run done).
* :class:`~repro.dist.worker.CrawlWorker` — claims windows, executes them
  through the existing pure :func:`~repro.core.pipeline.execute_selection_subshard`,
  and commits serialized results.  Workers share one crawl-cache directory,
  so a re-issued window replays its fetches from disk for free.
* :class:`~repro.dist.coordinator.Coordinator` — a pipeline executor: it
  publishes the deterministic window split
  (:func:`~repro.core.pipeline.plan_selection_windows`), spawns/monitors
  local workers, re-issues windows whose leases go stale (a SIGKILLed
  worker's heartbeat stops), and yields window results in plan order to
  the same merge loop a single-host build runs — so the final JSONL is
  byte-identical to the sequential single-host build, for any worker
  count and any crash/retry history.
"""

from repro.dist.coordinator import Coordinator, DistBuildError, DistBuildResult, dist_build
from repro.dist.worker import CrawlWorker
from repro.dist.workqueue import WorkQueue

__all__ = [
    "Coordinator",
    "CrawlWorker",
    "DistBuildError",
    "DistBuildResult",
    "WorkQueue",
    "dist_build",
]
