"""Tracing integrated with the pipeline, the process pool and the queue.

The load-bearing invariant stays what it always was: the dataset bytes
are a pure function of the config — tracing on or off, traced workers or
not.  On top of that, these tests pin the propagation story: one trace
id allocated by the build crosses process boundaries (pool workers via
pickled config, dist workers via ``build.json``) and reassembles into a
single tree.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro import perf
from repro.core.pipeline import (
    LangCrUXPipeline,
    PipelineConfig,
    SelectionSubShard,
    build_web_for_config,
    execute_selection_subshard,
)
from repro.crawler.metrics import TransportMetrics
from repro.dist.results import decode_window_result, encode_window_result
from repro.dist.workqueue import (
    TRACE_CONFIG_KEYS,
    WorkQueue,
    config_from_dict,
    config_to_dict,
)
from repro.obs import trace as obs_trace
from repro.obs.status import read_statuses
from repro.obs.tree import assemble_trace, load_trace_records


@pytest.fixture(autouse=True)
def no_global_tracer():
    obs_trace.disable()
    yield
    obs_trace.disable()


def small_config(**overrides) -> PipelineConfig:
    defaults = dict(countries=("bd",), sites_per_country=4, seed=13)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestTracedBuildParity:
    def test_traced_build_bytes_identical_to_untraced(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        LangCrUXPipeline(small_config()).run(stream_to=plain,
                                             keep_in_memory=False)
        trace_dir = tmp_path / "trace"
        LangCrUXPipeline(small_config(trace_dir=str(trace_dir))).run(
            stream_to=traced, keep_in_memory=False)
        assert traced.read_bytes() == plain.read_bytes()
        tree = assemble_trace(load_trace_records(trace_dir))
        assert tree is not None
        assert [root.name for root in tree.roots] == ["build"]
        names = {node.name for _depth, node in tree.walk()}
        assert {"build", "shard", "select", "dataset.commit"} <= names

    def test_traced_run_leaves_a_final_status_snapshot(self, tmp_path):
        trace_dir = tmp_path / "trace"
        LangCrUXPipeline(small_config(trace_dir=str(trace_dir))).run(
            stream_to=tmp_path / "out.jsonl", keep_in_memory=False)
        snapshots = read_statuses(trace_dir)
        assert len(snapshots) == 1
        assert snapshots[0]["role"] == "build"
        assert snapshots[0]["trace"] == assemble_trace(
            load_trace_records(trace_dir)).trace_id
        assert snapshots[0]["records_streamed"] == 4

    def test_process_pool_workers_join_the_build_trace(self, tmp_path):
        config = small_config(workers=2, executor="process", sub_shard_size=2,
                              trace_dir=str(tmp_path / "trace"))
        plain = tmp_path / "plain.jsonl"
        traced = tmp_path / "traced.jsonl"
        LangCrUXPipeline(replace(config, trace_dir=None)).run(
            stream_to=plain, keep_in_memory=False)
        LangCrUXPipeline(config).run(stream_to=traced, keep_in_memory=False)
        assert traced.read_bytes() == plain.read_bytes()
        tree = assemble_trace(load_trace_records(tmp_path / "trace"))
        assert tree is not None
        assert len(tree.processes) >= 2  # parent + at least one pool worker
        assert [root.name for root in tree.roots] == ["build"]
        windows = [node for _depth, node in tree.walk()
                   if node.name == "window"]
        assert windows, "pool workers wrote no window spans"

    def test_sequential_traced_runs_in_one_process_do_not_mix(self, tmp_path):
        for index in (1, 2):
            LangCrUXPipeline(
                small_config(trace_dir=str(tmp_path / f"trace{index}"))).run(
                stream_to=tmp_path / f"out{index}.jsonl", keep_in_memory=False)
        first = assemble_trace(load_trace_records(tmp_path / "trace1"))
        second = assemble_trace(load_trace_records(tmp_path / "trace2"))
        assert first.trace_id != second.trace_id
        assert [root.name for root in first.roots] == ["build"]
        assert [root.name for root in second.roots] == ["build"]


class TestTracePropagation:
    def test_trace_fields_round_trip_through_build_json(self):
        config = small_config(sub_shard_size=2, crawl_cache="/tmp/c",
                              trace_dir="/tmp/t", trace_id="a" * 32,
                              trace_parent="b" * 16)
        loaded = config_from_dict(config_to_dict(config))
        assert loaded.trace_dir == "/tmp/t"
        assert loaded.trace_id == "a" * 32
        assert loaded.trace_parent == "b" * 16

    def test_queue_accepts_same_build_with_different_trace_identity(
            self, tmp_path):
        base = small_config(sub_shard_size=2,
                            crawl_cache=str(tmp_path / "cache"))
        web, crux = build_web_for_config(base)
        spec = SelectionSubShard(country_code="bd", chunk_index=0,
                                 start=0, stop=2)
        queue = WorkQueue(tmp_path / "queue")
        queue.initialize(replace(base, trace_id="a" * 32), [spec])
        # A restarted coordinator with a fresh trace id is the same build.
        queue.initialize(replace(base, trace_id="c" * 32,
                                 trace_dir="/elsewhere"), [spec])
        # A genuinely different build still raises.
        with pytest.raises(ValueError, match="different build"):
            queue.initialize(replace(base, seed=base.seed + 1), [spec])
        assert set(TRACE_CONFIG_KEYS) == {"trace_dir", "trace_id",
                                          "trace_parent"}

    def test_window_result_ships_its_trace_span(self, tmp_path):
        config = small_config(sub_shard_size=2,
                              crawl_cache=str(tmp_path / "cache"),
                              trace_dir=str(tmp_path / "trace"),
                              trace_id="d" * 32, trace_parent="e" * 16)
        web_and_crux = build_web_for_config(config)
        result = execute_selection_subshard(
            config, SelectionSubShard(country_code="bd", chunk_index=0,
                                      start=0, stop=2),
            web_and_crux=web_and_crux)
        assert result.trace_span is not None
        assert result.trace_span["trace"] == "d" * 32
        assert result.trace_span["parent"] == "e" * 16
        decoded = decode_window_result(
            encode_window_result(result, worker="w:1", duration_s=0.25))
        assert decoded.trace_span == result.trace_span

    def test_untraced_window_result_has_no_trace_span(self, tmp_path):
        config = small_config(sub_shard_size=2)
        web_and_crux = build_web_for_config(config)
        result = execute_selection_subshard(
            config, SelectionSubShard(country_code="bd", chunk_index=0,
                                      start=0, stop=2),
            web_and_crux=web_and_crux)
        assert result.trace_span is None
        decoded = decode_window_result(
            encode_window_result(result, worker="w:1", duration_s=0.25))
        assert decoded.trace_span is None


class TestMetricsMergeRoundTrips:
    def test_perf_counters_survive_pickling_with_gauges_and_merge(self):
        counters = perf.PerfCounters()
        counters.add_stage("parse", 0.5)
        counters.count("pages", 3)
        counters.gauge("mem.peak_rss_kb", 1000.0)
        shipped = pickle.loads(pickle.dumps(counters))
        assert shipped.as_dict() == counters.as_dict()
        other = perf.PerfCounters()
        other.add_stage("parse", 0.25)
        other.count("pages", 2)
        other.gauge("mem.peak_rss_kb", 2500.0)
        shipped.merge(other)
        assert shipped.stages["parse"].calls == 2
        assert shipped.counters["pages"] == 5
        # Gauges are levels, not totals: merge keeps the max.
        assert shipped.gauges["mem.peak_rss_kb"] == 2500.0
        # And the merged object still pickles (the lock is recreated).
        again = pickle.loads(pickle.dumps(shipped))
        assert again.gauges["mem.peak_rss_kb"] == 2500.0

    def test_transport_metrics_survive_pickling_and_merge(self):
        metrics = TransportMetrics()
        metrics.add("network_requests", 4)
        metrics.add("cache_hits", 2)
        metrics.add("rate_limit_wait_s", 0.75)
        shipped = pickle.loads(pickle.dumps(metrics))
        assert shipped.as_dict() == metrics.as_dict()
        other = TransportMetrics()
        other.add("network_requests", 6)
        other.add("rate_limit_wait_s", 0.25)
        shipped.merge(other)
        assert shipped.network_requests == 10
        assert shipped.cache_hits == 2
        assert shipped.rate_limit_wait_s == 1.0
        assert pickle.loads(pickle.dumps(shipped)).network_requests == 10
