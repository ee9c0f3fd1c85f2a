"""Memory — bounded-memory windowed streaming vs whole-country buffering.

ROADMAP item 4: a streaming run should hold O(in-flight windows) of record
state, not O(``sites_per_country``), and should put first bytes on disk
while the first country is still crawling.  This harness builds one large
country twice — at a base quota and at 4x — in two modes:

* **buffered** — the historical shape: records and full selection outcomes
  retained in memory (``keep_in_memory=True``), the stream written per
  country.  Peak heap grows with the quota.
* **windowed** — sub-sharded streaming (``sub_shard_size`` set,
  ``keep_in_memory=False``): records are committed to the
  :class:`~repro.core.dataset.StreamingDatasetWriter` per committed window,
  dropped from memory once on disk, and outcomes are slimmed window by
  window.  Peak heap stays flat as the quota scales.

Peaks are measured with ``tracemalloc`` (resettable per run, unlike
``ru_maxrss``, and it sees the parent's record buffers on every backend —
the process backend ships its records home before they count).  Both
output files are asserted byte-identical to each other run over run, so
the memory win never costs determinism.  The harness asserts
the windowed peak ratio stays <= 1.5x across the 4x quota scale while the
buffered ratio at least doubles; set ``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to
demote both to report-only lines (CI does).
"""

from __future__ import annotations

import gc
import os
import tracemalloc

from repro import perf
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig

BENCHMARK_SEED = 2025

#: Base per-country quota and the scale factor of the second build.
BASE_QUOTA = 6
SCALE = 4

#: Window size of the sub-sharded streaming runs: peak record state is
#: proportional to in-flight windows of this size, independent of quota.
SUB_SHARD_SIZE = 3

WORKERS = 3

#: Bounds asserted in strict mode (see module docstring).
MAX_WINDOWED_RATIO = 1.5
MIN_BUFFERED_RATIO = 2.0

EXECUTORS = ("serial", "process")

#: Executors whose ratios are hard-asserted in strict mode.  Their crawl
#: state lives in this process where tracemalloc can see it; the process
#: backend's lives in its workers (the parent sees only merge-side state),
#: so its rows are report-only.
ASSERTED_EXECUTORS = ("serial",)


def _config(quota: int, **overrides) -> PipelineConfig:
    return PipelineConfig(countries=("bd",), sites_per_country=quota,
                          seed=BENCHMARK_SEED, transport_failure_rate=0.02,
                          **overrides)


def _measured_run(config: PipelineConfig, stream_path, *, keep_in_memory: bool):
    """Run the pipeline; returns (peak_heap_kb, first_record_s, buffer_peak).

    The :class:`PipelineResult` is deliberately not returned: a buffered
    result retains every record and unslimmed outcome, and keeping it alive
    into the next measured run would distort that run's peak.
    """
    gc.collect()
    tracemalloc.reset_peak()
    floor_kb = tracemalloc.get_traced_memory()[0] / 1024.0
    result = LangCrUXPipeline(config).run(stream_to=stream_path,
                                          keep_in_memory=keep_in_memory)
    peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0 - floor_kb
    return peak_kb, result.time_to_first_record_s or 0.0, result.record_buffer_peak


def test_streaming_memory_stays_flat(reporter) -> None:
    tracemalloc.start()
    try:
        _run_harness(reporter)
    finally:
        tracemalloc.stop()


def _run_harness(reporter) -> None:
    import tempfile

    lines: list[str] = []
    data: dict = {"config": {"base_quota": BASE_QUOTA, "scale": SCALE,
                             "sub_shard_size": SUB_SHARD_SIZE,
                             "workers": WORKERS, "country": "bd"},
                  "executors": {}}
    ratios: dict[str, dict[str, float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for executor in EXECUTORS:
            workers = 1 if executor == "serial" else WORKERS
            peaks: dict[str, dict[int, float]] = {"buffered": {}, "windowed": {}}
            first_record: dict[str, float] = {}
            for quota in (BASE_QUOTA, BASE_QUOTA * SCALE):
                buffered_path = os.path.join(tmp, f"{executor}-{quota}-buf.jsonl")
                windowed_path = os.path.join(tmp, f"{executor}-{quota}-win.jsonl")
                peak_kb, first_s, _ = _measured_run(
                    _config(quota, executor=executor, workers=workers),
                    buffered_path, keep_in_memory=True)
                peaks["buffered"][quota] = peak_kb
                first_record["buffered"] = first_s
                peak_kb, first_s, buffer_peak = _measured_run(
                    _config(quota, executor=executor, workers=workers,
                            sub_shard_size=SUB_SHARD_SIZE),
                    windowed_path, keep_in_memory=False)
                peaks["windowed"][quota] = peak_kb
                first_record["windowed"] = first_s
                assert buffer_peak <= SUB_SHARD_SIZE
                with open(buffered_path, "rb") as handle:
                    reference = handle.read()
                with open(windowed_path, "rb") as handle:
                    assert handle.read() == reference, (
                        f"windowed bytes diverged ({executor}, quota {quota})")
            ratio = {mode: peaks[mode][BASE_QUOTA * SCALE] / peaks[mode][BASE_QUOTA]
                     for mode in peaks}
            ratios[executor] = ratio
            lines.append(f"{executor}:")
            for mode in ("buffered", "windowed"):
                small, large = (peaks[mode][BASE_QUOTA],
                                peaks[mode][BASE_QUOTA * SCALE])
                lines.append(
                    f"  {mode:<9} peak heap {small:8.0f} KiB -> {large:8.0f} KiB "
                    f"({ratio[mode]:.2f}x across {SCALE}x quota), "
                    f"first record after {first_record[mode]:.3f}s")
            data["executors"][executor] = {
                "buffered_peak_kb": peaks["buffered"],
                "windowed_peak_kb": peaks["windowed"],
                "buffered_ratio": ratio["buffered"],
                "windowed_ratio": ratio["windowed"],
                "first_record_s": first_record,
            }
    rss = perf.memory_gauges()
    lines.append(f"process peak RSS (lifetime, all runs): "
                 f"{rss.get('mem.peak_rss_kb', 0) / 1024.0:.0f} MiB")
    lines.append(f"target: windowed ratio <= {MAX_WINDOWED_RATIO}x, "
                 f"buffered ratio >= {MIN_BUFFERED_RATIO}x "
                 f"(asserted on {', '.join(ASSERTED_EXECUTORS)}; the process "
                 f"backend's crawl state lives in its workers, so the "
                 f"parent-heap peaks above are report-only)")
    data["max_windowed_ratio"] = MAX_WINDOWED_RATIO
    data["min_buffered_ratio"] = MIN_BUFFERED_RATIO
    reporter("Memory — windowed streaming vs whole-country buffering", lines,
             data=data)

    strict = os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0"
    if strict:
        for executor in ASSERTED_EXECUTORS:
            ratio = ratios[executor]
            assert ratio["windowed"] <= MAX_WINDOWED_RATIO, (
                f"{executor}: windowed peak grew {ratio['windowed']:.2f}x "
                f"across a {SCALE}x quota scale, expected <= {MAX_WINDOWED_RATIO}x")
            assert ratio["buffered"] >= MIN_BUFFERED_RATIO, (
                f"{executor}: buffered peak grew only {ratio['buffered']:.2f}x — "
                f"the baseline no longer buffers, rescale the harness")


def test_speculation_stays_window_bounded(reporter) -> None:
    """An absurd ``max_in_flight`` must not regrow an O(ranking) term.

    Distributed workers hand every window a large ``max_in_flight`` (each
    worker owns a whole window's speculation), so the windowed walk must
    materialize only the window itself — pinned by the
    ``sel.window_entries_peak`` gauge, which records the largest entry list
    any window evaluation ever held.  This bound is deterministic, so it is
    asserted regardless of ``LANGCRUX_BENCH_ASSERT_SPEEDUP``.
    """
    import tempfile

    config = _config(BASE_QUOTA, sub_shard_size=SUB_SHARD_SIZE,
                     max_in_flight=100_000, profile=True)
    with tempfile.TemporaryDirectory() as tmp:
        result = LangCrUXPipeline(config).run(
            stream_to=os.path.join(tmp, "speculative.jsonl"),
            keep_in_memory=False)
    peak = result.perf_metrics.gauges.get("sel.window_entries_peak")
    assert peak is not None, "profiled run recorded no window-entries gauge"
    assert peak <= SUB_SHARD_SIZE, (
        f"a window materialized {peak:.0f} entries under deep speculation, "
        f"expected <= sub_shard_size ({SUB_SHARD_SIZE})")
    reporter("Memory — speculation bound under huge max_in_flight",
             [f"max_in_flight 100000, sub_shard_size {SUB_SHARD_SIZE}: "
              f"window entries peak {peak:.0f} (bound {SUB_SHARD_SIZE})"],
             data={"max_in_flight": 100_000, "sub_shard_size": SUB_SHARD_SIZE,
                   "window_entries_peak": peak})
