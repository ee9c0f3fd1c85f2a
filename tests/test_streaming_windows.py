"""Windowed-streaming edge shapes, memory gauges and metrics attribution.

Companion suite to ``test_streaming_dataset.py`` for the *windowed* path:
records reach the :class:`~repro.core.dataset.StreamingDatasetWriter` per
committed sub-shard window rather than per country, inside per-country
writer sections.  Covered here:

* edge shapes of the sub-sharded walk — a zero-window (empty-ranking)
  country, a quota that fills inside its first window, and a
  ``sub_shard_size`` larger than the whole country — each byte-identical to
  the sequential in-memory build under the serial and process backends;
* the observability surface — ``time_to_first_record_s``,
  ``record_buffer_peak`` and the ``mem.*`` / ``stream.*`` perf gauges;
* metrics attribution — run-level transport/perf totals equal the merged
  cost of every window that actually executed, including speculative
  windows still in flight when the last country finalized (the
  drain-and-fold regression).
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    LangCrUXPipeline,
    PipelineConfig,
    build_web_for_config,
)
from shuffled_executor import ShuffledExecutor

EXECUTORS = [
    dict(executor="serial", workers=1),
    dict(executor="process", workers=2),
]
EXECUTOR_IDS = ["serial", "process"]


def _streamed_bytes(config: PipelineConfig, tmp_path, *, web=None, crux=None,
                    name: str = "streamed.jsonl") -> bytes:
    path = tmp_path / name
    LangCrUXPipeline(config, web=web, crux_table=crux).run(
        stream_to=path, keep_in_memory=False)
    return path.read_bytes()


def _sequential_bytes(config: PipelineConfig, tmp_path, *, web=None,
                      crux=None) -> bytes:
    path = tmp_path / "sequential.jsonl"
    result = LangCrUXPipeline(config, web=web, crux_table=crux).run()
    result.dataset.save_jsonl(path)
    return path.read_bytes()


class TestWindowedEdgeShapes:
    @pytest.mark.parametrize("overrides", EXECUTORS, ids=EXECUTOR_IDS)
    def test_zero_window_country(self, overrides, tmp_path) -> None:
        # "th" is configured but absent from the supplied web, so its
        # ranking is empty and it plans zero sub-shard windows; it must
        # still report (empty) and never open a writer section.
        web_config = PipelineConfig(countries=("bd",), sites_per_country=3,
                                    seed=29)
        web, crux = build_web_for_config(web_config)
        assert crux.size("th") == 0
        base = dict(countries=("bd", "th"), sites_per_country=3, seed=29)
        expected = _sequential_bytes(PipelineConfig(**base), tmp_path,
                                     web=web, crux=crux)
        config = PipelineConfig(**base, sub_shard_size=2, **overrides)
        streamed = _streamed_bytes(config, tmp_path, web=web, crux=crux)
        assert streamed == expected
        result = LangCrUXPipeline(PipelineConfig(**base, sub_shard_size=2),
                                  web=web, crux_table=crux).run()
        assert result.selection_outcomes["th"].selected == []
        assert result.shard_metrics["th"].records == 0

    @pytest.mark.parametrize("overrides", EXECUTORS, ids=EXECUTOR_IDS)
    def test_quota_fills_inside_first_window(self, overrides, tmp_path) -> None:
        # One window of 4 candidates against a quota of 1: the country
        # finalizes on its very first committed window and every later
        # window is speculation.
        base = dict(countries=("gr", "bd"), sites_per_country=1, seed=31,
                    candidate_multiplier=6.0, transport_failure_rate=0.0)
        expected = _sequential_bytes(PipelineConfig(**base), tmp_path)
        config = PipelineConfig(**base, sub_shard_size=4, **overrides)
        assert _streamed_bytes(config, tmp_path) == expected
        result = LangCrUXPipeline(PipelineConfig(**base, sub_shard_size=4)).run()
        for country in base["countries"]:
            assert result.shard_metrics[country].sub_shards == 1

    @pytest.mark.parametrize("overrides", EXECUTORS, ids=EXECUTOR_IDS)
    def test_window_larger_than_country(self, overrides, tmp_path) -> None:
        # A sub_shard_size beyond any ranking collapses each country to a
        # single window covering it entirely.
        base = dict(countries=("bd", "th"), sites_per_country=2, seed=37,
                    transport_failure_rate=0.05)
        expected = _sequential_bytes(PipelineConfig(**base), tmp_path)
        config = PipelineConfig(**base, sub_shard_size=10**6, **overrides)
        assert _streamed_bytes(config, tmp_path) == expected


class TestStreamingObservability:
    def test_first_record_and_buffer_peak_surface(self, tmp_path) -> None:
        config = PipelineConfig(countries=("bd",), sites_per_country=3,
                                seed=41, sub_shard_size=2, profile=True)
        result = LangCrUXPipeline(config).run(
            stream_to=tmp_path / "out.jsonl", keep_in_memory=False)
        assert result.time_to_first_record_s is not None
        assert result.time_to_first_record_s >= 0.0
        # Windowed commits hand the sink at most one window of records at a
        # time, so the high-water mark is bounded by the window size.
        assert 1 <= result.record_buffer_peak <= 2
        gauges = result.perf_metrics.gauges
        assert gauges["stream.buffer_peak_records"] == result.record_buffer_peak
        assert gauges["stream.first_record_s"] == pytest.approx(
            result.time_to_first_record_s)
        assert gauges.get("mem.peak_rss_kb", 0) > 0

    def test_buffered_run_buffers_whole_country(self, tmp_path) -> None:
        # Without sub-sharding the sink sees one whole country at a time —
        # the contrast the memory benchmark measures.
        config = PipelineConfig(countries=("bd",), sites_per_country=3,
                                seed=41, profile=True)
        result = LangCrUXPipeline(config).run()
        assert result.record_buffer_peak == len(result.dataset)
        assert result.time_to_first_record_s is not None

    def test_profile_off_keeps_perf_metrics_none(self, tmp_path) -> None:
        config = PipelineConfig(countries=("bd",), sites_per_country=2, seed=41,
                                sub_shard_size=2)
        result = LangCrUXPipeline(config).run(
            stream_to=tmp_path / "out.jsonl", keep_in_memory=False)
        assert result.perf_metrics is None
        assert result.record_buffer_peak >= 1


class TestLateWindowMetricsAttribution:
    def test_run_totals_fold_in_every_executed_window(self, tmp_path) -> None:
        """Drain-and-fold regression: no executed window's cost vanishes.

        With the *last* configured country filling its quota early (high
        candidate multiplier, one candidate per window) on an executor that
        evaluates every window before the merge sees any, speculative
        windows are still undelivered when the run finalizes; their
        transport/perf cost used to be dropped because late metrics were
        only folded into a subsequent finalize.  The assertion is
        schedule-independent: the run-level totals must equal the merge of
        what every window that actually executed reported.
        """
        from repro.core import pipeline as pipeline_module
        from repro.crawler.metrics import TransportMetrics
        from repro import perf

        config = PipelineConfig(countries=("gr", "bd"), sites_per_country=2,
                                seed=43, candidate_multiplier=8.0,
                                transport_failure_rate=0.05,
                                sub_shard_size=1, profile=True,
                                # A crawl cache forces a transport stack, so
                                # every window reports transport metrics.
                                crawl_cache=str(tmp_path / "cache"))
        real_subshard = pipeline_module.execute_selection_subshard
        observed: list[tuple] = []

        def recording_subshard(config, spec, **kwargs):
            result = real_subshard(config, spec, **kwargs)
            observed.append((result.transport_metrics, result.perf_metrics))
            return result

        pipeline_module.execute_selection_subshard = recording_subshard
        try:
            run = LangCrUXPipeline(config).run(executor=ShuffledExecutor(seed=43))
        finally:
            pipeline_module.execute_selection_subshard = real_subshard

        expected_transport = TransportMetrics()
        expected_perf = perf.PerfCounters()
        for transport_metrics, perf_metrics in observed:
            if transport_metrics is not None:
                expected_transport.merge(transport_metrics)
            if perf_metrics is not None:
                expected_perf.merge(perf_metrics)

        got = run.transport_metrics.as_dict()
        want = expected_transport.as_dict()
        assert set(got) == set(want)
        for name, value in want.items():
            assert got[name] == pytest.approx(value), name
        # Stage call counts and op counters sum exactly; seconds are float
        # sums in arbitrary order, gauges are appended by the parent.
        assert run.perf_metrics.stage_calls() == expected_perf.stage_calls()
        assert run.perf_metrics.counters == expected_perf.counters
