"""End-to-end tests of distributed builds (`repro.dist`).

The load-bearing invariant: a distributed build's JSONL is byte-identical
to the single-host build for the same config — across worker counts,
SIGKILLed workers, torn result files and pre-computed (multi-host)
results.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.pipeline import (
    LangCrUXPipeline,
    PipelineConfig,
    build_web_for_config,
    execute_selection_subshard,
    plan_selection_windows,
)
from repro.dist import Coordinator, DistBuildError, dist_build
from repro.dist.results import encode_window_result
from repro.dist.workqueue import WorkQueue, read_json
from repro.obs.tree import assemble_trace, load_trace_records

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def worker_pythonpath(monkeypatch):
    """Spawned workers must import `repro` regardless of pytest's cwd."""
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH",
                       str(SRC) + (os.pathsep + existing if existing else ""))


def dist_config(tmp_path, **overrides) -> PipelineConfig:
    defaults = dict(countries=("bd", "th"), sites_per_country=4, seed=23,
                    sub_shard_size=2, crawl_cache=str(tmp_path / "cache"))
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def single_host_bytes(config: PipelineConfig, tmp_path) -> bytes:
    """The sequential single-host reference build (no cache interference)."""
    out = tmp_path / "single-host.jsonl"
    LangCrUXPipeline(replace(config, crawl_cache=None)).run(
        stream_to=out, keep_in_memory=False)
    return out.read_bytes()


def test_three_worker_build_is_byte_identical_to_single_host(tmp_path):
    config = dist_config(tmp_path)
    expected = single_host_bytes(config, tmp_path)
    out = tmp_path / "dist.jsonl"
    result = dist_build(config, tmp_path / "queue", out, workers=3,
                        lease_timeout_s=30.0)
    assert out.read_bytes() == expected
    assert result.workers_spawned == 3
    assert result.windows_reissued == 0
    assert result.results_torn == 0
    assert result.streamed_records == sum(
        len(outcome.selected) for outcome in result.selection_outcomes.values())
    # Selection counters match the sequential walk too, not just the bytes.
    reference = LangCrUXPipeline(replace(config, crawl_cache=None)).run()
    for country, outcome in result.selection_outcomes.items():
        ref = reference.selection_outcomes[country]
        assert [site.entry for site in outcome.selected] == \
            [site.entry for site in ref.selected]
        assert outcome.replacement_count == ref.replacement_count
        assert outcome.candidates_examined == ref.candidates_examined


def test_warm_cache_rebuild_is_identical_without_refetching(tmp_path):
    config = dist_config(tmp_path)
    out_cold = tmp_path / "cold.jsonl"
    out_warm = tmp_path / "warm.jsonl"
    cold = dist_build(config, tmp_path / "queue-cold", out_cold, workers=2,
                      lease_timeout_s=30.0)
    warm = dist_build(config, tmp_path / "queue-warm", out_warm, workers=1,
                      lease_timeout_s=30.0)
    assert out_warm.read_bytes() == out_cold.read_bytes()
    assert warm.transport_metrics is not None
    assert warm.transport_metrics.cache_hits > 0
    # Only uncacheable responses (failed fetches are never stored) may
    # touch the wire again on a warm cache.
    assert warm.transport_metrics.network_requests < \
        cold.transport_metrics.network_requests


def test_sigkilled_worker_lease_is_reissued_and_output_identical(tmp_path):
    """The kill-and-resume path: SIGKILL a worker mid-window, the
    coordinator reaps its stale lease after the timeout, the window is
    re-executed (replaying the dead worker's fetches from the shared
    cache), and the final JSONL is byte-identical to an unharmed run.

    The order is fixed by construction, not by timing: the coordinator
    spawns no workers, so the doomed worker is the only claimant and its
    first lease is on the first window of the first country, which the
    merge must await.  The healthy workers start only after the SIGKILL,
    so that window can complete only through a reaped, re-issued lease.

    The run is traced throughout, so this also pins the observability
    acceptance bar: one span tree reassembles across the coordinator and
    the surviving workers, kill and re-issue notwithstanding."""
    config = dist_config(tmp_path, trace_dir=str(tmp_path / "trace"))
    expected = single_host_bytes(replace(config, trace_dir=None), tmp_path)
    queue_dir = tmp_path / "queue"
    out = tmp_path / "dist.jsonl"
    # A worker that stalls inside every window evaluation (lease held,
    # heartbeat running) until killed — a stand-in for a wedged or
    # about-to-die host.
    doomed_script = tmp_path / "doomed_worker.py"
    doomed_script.write_text(
        "import sys, time\n"
        "import repro.dist.worker as worker_mod\n"
        "def stall(config, spec, **kwargs):\n"
        "    time.sleep(300)\n"
        "worker_mod.execute_selection_subshard = stall\n"
        "from repro.dist.worker import CrawlWorker\n"
        "CrawlWorker(sys.argv[1], heartbeat_interval_s=0.1,\n"
        "            poll_interval_s=0.02).run()\n",
        encoding="utf-8")
    doomed = subprocess.Popen([sys.executable, str(doomed_script),
                               str(queue_dir)], env=os.environ.copy())
    healthy: list[subprocess.Popen] = []
    coordinator = Coordinator(config, queue_dir, out, workers=0,
                              lease_timeout_s=1.0, poll_interval_s=0.02)
    outcome: dict = {}

    def run() -> None:
        try:
            outcome["result"] = coordinator.run()
        except BaseException as error:  # surfaced after the join
            outcome["error"] = error

    # A daemon: if the test fails before any healthy worker starts, the
    # coordinator waits on the first window forever and must not keep
    # the test process alive.
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        # Wait until the doomed worker holds a lease, then SIGKILL it.
        queue = WorkQueue(queue_dir)
        first_window = None
        deadline = time.monotonic() + 60.0
        while first_window is None and time.monotonic() < deadline:
            for lease_path in list(queue.leases_dir.glob("*.json")) \
                    if queue.leases_dir.is_dir() else []:
                payload = read_json(lease_path)
                if payload and payload.get("worker", "").endswith(f":{doomed.pid}"):
                    os.kill(doomed.pid, signal.SIGKILL)
                    first_window = lease_path.stem
                    break
            else:
                time.sleep(0.02)
        assert first_window is not None, "doomed worker never claimed a window"
        doomed.wait(timeout=10.0)
        assert first_window == queue.load_windows()[0].window_id
        for _ in range(2):
            healthy.append(subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "dist-build",
                 "--role", "worker", "--queue-dir", str(queue_dir)],
                stdout=subprocess.DEVNULL, env=os.environ.copy()))
        thread.join(timeout=120.0)
        for proc in healthy:
            assert proc.wait(timeout=30.0) == 0
    finally:
        for proc in [doomed, *healthy]:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        thread.join(timeout=120.0)
    assert not thread.is_alive()
    assert "error" not in outcome, outcome.get("error")
    result = outcome["result"]
    assert result.windows_reissued >= 1
    assert out.read_bytes() == expected
    # One trace, one tree: the coordinator's root plus its two surviving
    # workers' sessions (the SIGKILLed worker never wrote a span — it
    # died holding the lease, which is exactly the point).
    tree = assemble_trace(load_trace_records(tmp_path / "trace"))
    assert tree is not None
    assert [root.name for root in tree.roots] == ["dist.build"]
    assert tree.orphan_count == 0
    sessions = [node for _depth, node in tree.walk()
                if node.name == "dist.worker"]
    assert len(sessions) >= 2
    assert len(tree.processes) >= 3  # coordinator + >=2 worker processes
    windows = [node for _depth, node in tree.walk() if node.name == "window"]
    assert windows, "worker window spans missing from the trace"
    reissue_events = [event for _depth, node in tree.walk()
                      for event in node.events
                      if event.get("name") == "dist.windows_reissued"]
    assert reissue_events, "the reaped lease left no trace event"


def test_torn_result_file_is_discarded_and_window_reexecuted(tmp_path):
    config = dist_config(tmp_path)
    expected = single_host_bytes(config, tmp_path)
    queue_dir = tmp_path / "queue"
    queue = WorkQueue(queue_dir)
    _web, crux = build_web_for_config(config)
    windows = queue.initialize(config, plan_selection_windows(config, crux))
    # A half-written result that survived some non-conforming writer's
    # crash; atomic commits can't produce this, the coordinator still
    # polices it.
    queue.result_path(windows[0].window_id).write_text(
        '{"window": {"country_code": "bd", "chunk_in', encoding="utf-8")
    out = tmp_path / "dist.jsonl"
    result = dist_build(config, queue_dir, out, workers=1, lease_timeout_s=30.0)
    assert result.results_torn >= 1
    assert out.read_bytes() == expected


def test_precomputed_results_are_merged_verbatim(tmp_path):
    """Multi-host shape: results committed by a foreign process (here: the
    test itself) are merged exactly like local workers' — and committing a
    duplicate over a finished window changes nothing (idempotency)."""
    config = dist_config(tmp_path)
    expected = single_host_bytes(config, tmp_path)
    queue_dir = tmp_path / "queue"
    queue = WorkQueue(queue_dir)
    web_and_crux = build_web_for_config(config)
    windows = queue.initialize(
        config, plan_selection_windows(config, web_and_crux[1]))
    first = execute_selection_subshard(
        replace(config, cache_fsync="entry"), windows[0].spec,
        web_and_crux=web_and_crux)
    payload = encode_window_result(first, worker="foreign-host:1", duration_s=0.5)
    queue.commit_result(windows[0].window_id, payload)
    # Double completion: a slow duplicate landing again is a no-op.
    queue.commit_result(windows[0].window_id, payload)
    out = tmp_path / "dist.jsonl"
    result = dist_build(config, queue_dir, out, workers=1, lease_timeout_s=30.0)
    assert out.read_bytes() == expected
    merged = result.selection_outcomes["bd"]
    assert merged.candidates_examined >= len(first.evaluations)


def test_coordinator_validates_config(tmp_path):
    with pytest.raises(ValueError, match="sub_shard_size"):
        Coordinator(dist_config(tmp_path, sub_shard_size=None),
                    tmp_path / "q", tmp_path / "out.jsonl")
    with pytest.raises(ValueError, match="crawl_cache"):
        Coordinator(dist_config(tmp_path, crawl_cache=None),
                    tmp_path / "q", tmp_path / "out.jsonl")


def test_all_workers_dead_fails_the_build_cleanly(tmp_path):
    config = dist_config(tmp_path)
    out = tmp_path / "dist.jsonl"
    coordinator = Coordinator(
        config, tmp_path / "queue", out, workers=1,
        lease_timeout_s=1.0, poll_interval_s=0.02, max_worker_restarts=1,
        worker_command=[sys.executable, "-c", "import sys; sys.exit(3)"])
    with pytest.raises(DistBuildError, match="workers"):
        coordinator.run()
    assert coordinator._restarts == 1
    assert not out.exists()  # the aborted stream left no partial output
    # Workers (external, multi-host ones included) are told to stop.
    assert WorkQueue(tmp_path / "queue").is_done()
