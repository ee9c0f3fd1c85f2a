"""Unit tests of the distributed work-queue protocol (`repro.dist.workqueue`)
and the window-result codec (`repro.dist.results`)."""

import json
import os

import pytest

from repro.core.pipeline import (
    PipelineConfig,
    SelectionSubShard,
    build_web_for_config,
    execute_selection_subshard,
    plan_selection_windows,
)
from repro.dist.results import decode_window_result, encode_window_result
from repro.dist.workqueue import (
    QUEUE_FORMAT,
    QueuedWindow,
    WorkQueue,
    config_from_dict,
    config_to_dict,
    read_json,
    write_json_atomic,
)


def small_config(**overrides) -> PipelineConfig:
    defaults = dict(countries=("bd",), sites_per_country=3, seed=13,
                    sub_shard_size=2)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def plan(config: PipelineConfig) -> list[SelectionSubShard]:
    _web, crux = build_web_for_config(config)
    return plan_selection_windows(config, crux)


# -- config serialization --------------------------------------------------------


def test_config_round_trips_through_json():
    config = small_config(max_in_flight=4, crawl_cache="/tmp/cache",
                          profile=True)
    payload = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(payload) == config


def test_config_from_dict_ignores_unknown_keys():
    payload = config_to_dict(small_config())
    payload["knob_from_the_future"] = 42
    assert config_from_dict(payload) == small_config()


# -- atomic JSON -----------------------------------------------------------------


def test_write_json_atomic_leaves_no_partials(tmp_path):
    path = tmp_path / "payload.json"
    write_json_atomic(path, {"a": 1})
    write_json_atomic(path, {"a": 2})  # overwrite is atomic too
    assert read_json(path) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["payload.json"]


def test_read_json_handles_missing_and_torn_files(tmp_path):
    assert read_json(tmp_path / "absent.json") is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"window": {"country_code": "bd", "chu', encoding="utf-8")
    assert read_json(torn) is None
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    assert read_json(not_object) is None


# -- queue lifecycle -------------------------------------------------------------


def test_initialize_publishes_plan_in_merge_order(tmp_path):
    config = small_config(countries=("bd", "th"))
    specs = plan(config)
    queue = WorkQueue(tmp_path / "q")
    windows = queue.initialize(config, specs)
    assert [window.spec for window in windows] == specs
    assert windows[0].window_id == "window-00000"
    # Any other participant recovers the identical plan from disk alone.
    other = WorkQueue(tmp_path / "q")
    assert other.wait_for_build(timeout_s=1.0) == config
    assert other.load_windows() == windows


def test_initialize_rejects_a_different_build(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    config = small_config()
    queue.initialize(config, plan(config))
    queue.mark_done()
    other = small_config(seed=99)
    with pytest.raises(ValueError, match="different build"):
        WorkQueue(tmp_path / "q").initialize(other, plan(other))
    # Same config re-initializes fine and clears the stale done marker.
    WorkQueue(tmp_path / "q").initialize(config, plan(config))
    assert not queue.is_done()


def test_wait_for_build_times_out_without_a_plan(tmp_path):
    queue = WorkQueue(tmp_path / "empty")
    with pytest.raises(TimeoutError):
        queue.wait_for_build(timeout_s=0.1, poll_interval_s=0.02)


def test_wait_for_build_rejects_foreign_format(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    queue.root.mkdir(parents=True)
    write_json_atomic(queue.build_path,
                      {"format": QUEUE_FORMAT + 1, "config": {}})
    with pytest.raises(ValueError, match="format"):
        queue.wait_for_build(timeout_s=1.0)


# -- leases ----------------------------------------------------------------------


def initialized_queue(tmp_path) -> tuple[WorkQueue, list[QueuedWindow]]:
    config = small_config()
    queue = WorkQueue(tmp_path / "q")
    return queue, queue.initialize(config, plan(config))


def test_claim_is_exclusive_until_released(tmp_path):
    queue, windows = initialized_queue(tmp_path)
    window_id = windows[0].window_id
    lease = queue.try_claim(window_id, "worker-a")
    assert lease is not None and lease.worker == "worker-a"
    assert queue.try_claim(window_id, "worker-b") is None
    lease.release()
    assert queue.try_claim(window_id, "worker-b") is not None


def test_heartbeat_refreshes_and_detects_a_reaped_lease(tmp_path):
    queue, windows = initialized_queue(tmp_path)
    lease = queue.try_claim(windows[0].window_id, "worker-a")
    stale = lease.path.stat().st_mtime - 100
    os.utime(lease.path, (stale, stale))
    assert lease.heartbeat() is True
    assert lease.path.stat().st_mtime > stale
    lease.path.unlink()  # reaped underneath the worker
    assert lease.heartbeat() is False


def test_reap_removes_only_stale_leases(tmp_path):
    queue, windows = initialized_queue(tmp_path)
    dead = queue.try_claim(windows[0].window_id, "dead-worker")
    alive = queue.try_claim(windows[1].window_id, "live-worker")
    past = dead.path.stat().st_mtime - 100
    os.utime(dead.path, (past, past))
    assert queue.reap_stale_leases(timeout_s=5.0) == [windows[0].window_id]
    assert not dead.path.exists()
    assert alive.path.exists()
    # The reaped window is claimable again — the SIGKILL recovery path.
    assert queue.try_claim(windows[0].window_id, "replacement") is not None


# -- results and markers ---------------------------------------------------------


def test_commit_result_is_atomic_and_idempotent(tmp_path):
    queue, windows = initialized_queue(tmp_path)
    window_id = windows[0].window_id
    queue.commit_result(window_id, {"window": {}, "evaluations": []})
    queue.commit_result(window_id, {"window": {}, "evaluations": []})
    assert queue.read_result(window_id) == {"window": {}, "evaluations": []}
    assert [p.name for p in queue.results_dir.iterdir()] == [f"{window_id}.json"]


def test_torn_result_reads_as_absent(tmp_path):
    queue, windows = initialized_queue(tmp_path)
    queue.result_path(windows[0].window_id).write_text(
        '{"window": {"country', encoding="utf-8")
    assert queue.read_result(windows[0].window_id) is None


def test_markers(tmp_path):
    queue, _windows = initialized_queue(tmp_path)
    assert queue.filled_countries() == set()
    queue.mark_filled("bd")
    queue.mark_filled("bd")  # idempotent
    queue.mark_filled("th")
    assert queue.filled_countries() == {"bd", "th"}
    assert not queue.is_done()
    queue.mark_done()
    assert queue.is_done()


# -- the result codec ------------------------------------------------------------


def test_window_result_round_trips_through_json(tmp_path):
    config = small_config(crawl_cache=str(tmp_path / "cache"), profile=True)
    web_and_crux = build_web_for_config(config)
    spec = plan(config)[0]
    result = execute_selection_subshard(config, spec, web_and_crux=web_and_crux)
    payload = encode_window_result(result, worker="w1", duration_s=0.25)
    decoded = decode_window_result(json.loads(json.dumps(payload)))
    assert decoded.spec == spec
    assert decoded.worker == "w1"
    assert decoded.duration_s == 0.25
    assert len(decoded.evaluations) == len(result.evaluations)
    for original, rebuilt in zip(result.evaluations, decoded.evaluations):
        assert rebuilt.entry == original.entry
        assert rebuilt.native_share == original.native_share
        assert rebuilt.fetch_succeeded == original.fetch_succeeded
        # Page HTML is stripped for the trip; everything else survives.
        assert all(page.html == "" for page in rebuilt.record.pages)
    for record, line in zip(result.records, decoded.records):
        if record is None:
            assert line is None
        else:
            # The shipped line is exactly the writer's serialization.
            assert line == json.dumps(record.to_dict(), ensure_ascii=False)
    assert decoded.transport_metrics is not None
    assert decoded.transport_metrics.as_dict() == result.transport_metrics.as_dict()
    assert decoded.perf_metrics is not None
    assert decoded.perf_metrics.as_dict() == result.perf_metrics.as_dict()


def test_duplicate_executions_encode_identical_payloads(tmp_path):
    """Window purity: a re-issued window's result is byte-identical, which is
    what makes duplicate completions (and result overwrites) harmless."""
    config = small_config(crawl_cache=str(tmp_path / "cache"))
    web_and_crux = build_web_for_config(config)
    spec = plan(config)[0]
    first = execute_selection_subshard(config, spec, web_and_crux=web_and_crux)
    second = execute_selection_subshard(config, spec, web_and_crux=web_and_crux)
    one = encode_window_result(first, worker="w", duration_s=0.0)
    two = encode_window_result(second, worker="w", duration_s=0.0)
    one["transport_metrics"] = two["transport_metrics"] = None  # cache hits differ
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
