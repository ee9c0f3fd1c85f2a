"""Tests of the hot-path profiling subsystem (:mod:`repro.perf`).

Covers the accumulator itself (thread-safety-adjacent pickling, merging,
reporting), the instrumentation threaded through the post-fetch stages, the
pipeline plumbing (``PipelineConfig.profile`` →
``PipelineResult.perf_metrics``) and the two invariants profiling must not
break: dataset bytes are identical with and without it, and counter totals
are identical across executor backends (serial == process), which proves the
counters round-trip through the process executor's pickling.
"""

from __future__ import annotations

import pickle

import pytest

from repro import perf
from repro.audit.engine import AuditEngine
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from repro.core.extraction import extract_page
from repro.html.parser import parse_html

PAGE = """
<html lang="bn"><head><title>পরীক্ষা</title></head><body>
<h1>স্বাগতম</h1>
<img src="a.png" alt="ছবি">
<form><label for="q">অনুসন্ধান</label><input id="q" type="text"></form>
<a href="/news">সংবাদ</a>
</body></html>
"""


class TestPerfCounters:
    def test_add_stage_and_count(self) -> None:
        counters = perf.PerfCounters()
        counters.add_stage("parse", 0.25)
        counters.add_stage("parse", 0.75)
        counters.count("parse.chars", 100)
        counters.count("parse.chars", 50)
        assert counters.stages["parse"].calls == 2
        assert counters.stages["parse"].seconds == pytest.approx(1.0)
        assert counters.stages["parse"].avg_ms == pytest.approx(500.0)
        assert counters.counters["parse.chars"] == 150

    def test_merge_accumulates_both_sides(self) -> None:
        left = perf.PerfCounters()
        left.add_stage("parse", 1.0)
        left.count("ops", 1)
        right = perf.PerfCounters()
        right.add_stage("parse", 2.0)
        right.add_stage("audit", 0.5)
        right.count("ops", 2)
        left.merge(right)
        assert left.stages["parse"].calls == 2
        assert left.stages["parse"].seconds == pytest.approx(3.0)
        assert left.stages["audit"].calls == 1
        assert left.counters["ops"] == 3

    def test_gauges_keep_the_maximum(self) -> None:
        counters = perf.PerfCounters()
        counters.gauge("mem.peak_rss_kb", 100.0)
        counters.gauge("mem.peak_rss_kb", 50.0)   # lower: no-op
        counters.gauge("mem.peak_rss_kb", 250.0)
        assert counters.gauges == {"mem.peak_rss_kb": 250.0}
        assert not counters.is_empty

    def test_merge_takes_gauge_maximum(self) -> None:
        left = perf.PerfCounters()
        left.gauge("mem.peak_rss_kb", 100.0)
        left.gauge("stream.buffer_peak_records", 8.0)
        right = perf.PerfCounters()
        right.gauge("mem.peak_rss_kb", 300.0)
        right.gauge("stream.first_record_s", 0.5)
        left.merge(right)
        assert left.gauges == {"mem.peak_rss_kb": 300.0,
                               "stream.buffer_peak_records": 8.0,
                               "stream.first_record_s": 0.5}

    def test_gauge_reporting_surfaces(self) -> None:
        counters = perf.PerfCounters()
        counters.add_stage("parse", 0.2)
        counters.gauge("mem.peak_rss_kb", 1024.0)
        assert counters.as_dict()["gauges"] == {"mem.peak_rss_kb": 1024.0}
        assert counters.table_lines()[-1] == "gauges: mem.peak_rss_kb=1024"
        restored = pickle.loads(pickle.dumps(counters))
        assert restored.gauges == {"mem.peak_rss_kb": 1024.0}

    def test_unpickling_pre_gauge_payload(self) -> None:
        # Older pickled snapshots carry no "gauges" key; restore must not
        # choke on them (mixed-version process pools).
        counters = perf.PerfCounters()
        counters.count("ops", 1)
        state = counters.__getstate__()
        del state["gauges"]
        restored = perf.PerfCounters()
        restored.__setstate__(state)
        assert restored.gauges == {}
        restored.gauge("mem.peak_rss_kb", 1.0)
        assert restored.gauges == {"mem.peak_rss_kb": 1.0}

    def test_module_gauge_dispatches_to_active_collector(self) -> None:
        counters = perf.PerfCounters()
        perf.gauge("mem.peak_rss_kb", 7.0)  # no collector: dropped
        with perf.collecting(counters):
            perf.gauge("mem.peak_rss_kb", 9.0)
        assert counters.gauges == {"mem.peak_rss_kb": 9.0}

    def test_memory_gauges_sample_positive_rss(self) -> None:
        gauges = perf.memory_gauges()
        assert gauges["mem.peak_rss_kb"] > 0
        assert "mem.peak_rss_children_kb" in gauges

    def test_pickle_round_trip(self) -> None:
        counters = perf.PerfCounters()
        counters.add_stage("langid", 0.125)
        counters.count("langid.chars", 42)
        restored = pickle.loads(pickle.dumps(counters))
        assert restored.stages["langid"].calls == 1
        assert restored.stages["langid"].seconds == pytest.approx(0.125)
        assert restored.counters == {"langid.chars": 42}
        # The restored instance must be fully functional (lock recreated).
        restored.add_stage("langid", 0.1)
        restored.merge(counters)
        assert restored.stages["langid"].calls == 3

    def test_reporting_surfaces(self) -> None:
        counters = perf.PerfCounters()
        assert counters.is_empty
        assert counters.summary_line() == "no stages recorded"
        counters.add_stage("parse", 0.2)
        counters.add_stage("audit", 0.7)
        counters.count("audit.documents", 3)
        assert not counters.is_empty
        assert counters.total_seconds() == pytest.approx(0.9)
        assert counters.stage_calls() == {"audit": 1, "parse": 1}
        # Hottest stage leads the one-liner and the table.
        assert counters.summary_line().startswith("audit ")
        lines = counters.table_lines()
        assert lines[0].startswith("stage")
        assert "calls" in lines[0]
        assert lines[1].split()[0] == "audit"
        assert lines[2].split()[0] == "parse"
        assert lines[-1] == "counters: audit.documents=3"
        payload = counters.as_dict()
        assert payload["stages"]["parse"]["calls"] == 1
        assert payload["counters"] == {"audit.documents": 3}


class TestCollection:
    def test_stage_is_noop_without_collector(self) -> None:
        assert perf.active() is None
        with perf.stage("parse"):
            pass
        perf.count("ops")
        assert perf.active() is None

    def test_collecting_none_is_noop(self) -> None:
        with perf.collecting(None):
            assert perf.active() is None
            with perf.stage("parse"):
                pass

    def test_collecting_installs_and_restores(self) -> None:
        counters = perf.PerfCounters()
        with perf.collecting(counters):
            assert perf.active() is counters
            with perf.stage("work"):
                pass
            perf.count("ops", 2)
        assert perf.active() is None
        assert counters.stages["work"].calls == 1
        assert counters.stages["work"].seconds >= 0.0
        assert counters.counters["ops"] == 2

    def test_nested_collectors_restore_previous(self) -> None:
        outer, inner = perf.PerfCounters(), perf.PerfCounters()
        with perf.collecting(outer):
            with perf.collecting(inner):
                with perf.stage("inner-work"):
                    pass
            assert perf.active() is outer
        assert "inner-work" in inner.stages
        assert "inner-work" not in outer.stages

    def test_instrumented_stages_record(self) -> None:
        counters = perf.PerfCounters()
        with perf.collecting(counters):
            document = parse_html(PAGE)
            extract_page(document)
            AuditEngine().audit_document(document)
        stages = counters.stages
        for name in ("parse", "index", "extract", "audit", "audit.image-alt",
                     "audit.label"):
            assert name in stages, f"missing stage {name}"
            assert stages[name].calls >= 1
        assert counters.counters["parse.documents"] == 1
        assert counters.counters["parse.chars"] == len(PAGE)
        assert counters.counters["audit.documents"] == 1

    def test_langid_stage_records_detector_work(self) -> None:
        from repro.langid.detector import ScriptDetector

        counters = perf.PerfCounters()
        with perf.collecting(counters):
            ScriptDetector("bn").share("স্বাগতম hello")
        assert counters.stages["langid"].calls == 1
        assert counters.counters["langid.texts"] == 1
        assert counters.counters["langid.chars"] == len("স্বাগতম hello")


def _run(config: PipelineConfig):
    return LangCrUXPipeline(config).run()


class TestPipelineProfile:
    CONFIG = dict(countries=("bd", "th"), sites_per_country=3, seed=11,
                  transport_failure_rate=0.0)

    def test_disabled_by_default(self) -> None:
        result = _run(PipelineConfig(countries=("bd",), sites_per_country=2, seed=11))
        assert result.perf_metrics is None

    def test_profile_collects_all_stages(self) -> None:
        result = _run(PipelineConfig(profile=True, **self.CONFIG))
        metrics = result.perf_metrics
        assert metrics is not None
        for name in ("parse", "index", "extract", "audit", "langid", "record"):
            assert metrics.stages[name].calls > 0, f"stage {name} not recorded"
        assert metrics.counters["record.sites"] == len(result.dataset)
        assert metrics.counters["parse.documents"] >= metrics.counters["record.sites"]

    def test_profiled_build_is_byte_identical(self, tmp_path) -> None:
        plain = _run(PipelineConfig(**self.CONFIG))
        profiled = _run(PipelineConfig(profile=True, **self.CONFIG))
        plain_path = tmp_path / "plain.jsonl"
        profiled_path = tmp_path / "profiled.jsonl"
        plain.dataset.save_jsonl(plain_path)
        profiled.dataset.save_jsonl(profiled_path)
        assert plain_path.read_bytes() == profiled_path.read_bytes()

    def test_serial_and_process_counter_totals_match(self) -> None:
        """Deterministic totals round-trip unchanged through process pickling."""
        base = dict(profile=True, **self.CONFIG)
        serial = _run(PipelineConfig(executor="serial", **base)).perf_metrics
        processed = _run(PipelineConfig(executor="process", workers=2,
                                        **base)).perf_metrics
        assert serial is not None and processed is not None
        # Timings differ between backends; call counts and op counters are
        # deterministic and must agree exactly.
        assert serial.stage_calls() == processed.stage_calls()
        assert serial.counters == processed.counters

    def test_subsharded_run_collects_perf(self) -> None:
        result = _run(PipelineConfig(profile=True, workers=2, executor="process",
                                     sub_shard_size=2, **self.CONFIG))
        metrics = result.perf_metrics
        assert metrics is not None
        assert metrics.stages["record"].calls >= len(result.dataset)
        assert metrics.counters["langid.texts"] > 0
