"""Scaling — parallel pipeline execution vs the sequential baseline.

The paper crawls and audits its twelve countries independently, which makes
the pipeline embarrassingly parallel.  This harness builds the same
12-country synthetic web sequentially and with the 4-worker process
backend, then reports wall-clock, records-per-second and the speedup —
while asserting that both produce *byte-identical* JSONL, the determinism
contract of :mod:`repro.core.executor`.

The >= 2x records-per-second target at 4 workers needs real CPU parallelism
(the hot loops — page generation, HTML parsing, audits — are pure Python);
the assertion therefore applies only when the machine exposes at least
four usable cores.  On smaller machines the harness still runs, reports the
measured numbers and verifies parity.  Set
``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to demote the throughput target to a
report-only line (CI does this: shared runners are too noisy for a
wall-clock gate).
"""

from __future__ import annotations

import json
import os
import time

from repro.core.pipeline import LangCrUXPipeline, PipelineConfig

#: Per-country quota: big enough that per-shard work dominates dispatch
#: overhead, small enough to keep the harness in benchmark territory.
SITES_PER_COUNTRY = 12

BENCHMARK_SEED = 2025

WORKERS = 4

#: Minimum parallel speedup demanded of the process backend at 4 workers
#: when the hardware can actually run 4 shards at once.
TARGET_SPEEDUP = 2.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(sites_per_country=SITES_PER_COUNTRY, seed=BENCHMARK_SEED,
                          transport_failure_rate=0.02, **overrides)


def _timed_run(config: PipelineConfig):
    started = time.perf_counter()
    result = LangCrUXPipeline(config).run()
    return result, time.perf_counter() - started


def _dataset_jsonl(result) -> str:
    return "\n".join(json.dumps(record.to_dict(), ensure_ascii=False)
                     for record in result.dataset)


def test_parallel_pipeline_scaling(benchmark, reporter) -> None:
    sequential, sequential_s = _timed_run(_config())
    baseline_rps = len(sequential.dataset) / sequential_s

    process_result, process_s = benchmark.pedantic(
        lambda: _timed_run(_config(workers=WORKERS, executor="process")),
        rounds=1, iterations=1,
    )

    runs = {"process": (process_result, process_s)}
    cpus = _usable_cpus()
    lines = [
        f"usable CPU cores: {cpus}",
        f"sequential: {sequential_s:.2f}s, {baseline_rps:.1f} records/s "
        f"({len(sequential.dataset)} records, 12 countries)",
    ]
    for name, (result, elapsed) in runs.items():
        rps = len(result.dataset) / elapsed
        lines.append(
            f"{name} x{WORKERS}: {elapsed:.2f}s, {rps:.1f} records/s "
            f"(speedup {sequential_s / elapsed:.2f}x, shard wall-clock "
            f"{result.total_shard_seconds():.2f}s)")
    lines.append(
        f"target: >= {TARGET_SPEEDUP:.0f}x records/s on the process backend at "
        f"{WORKERS} workers" + ("" if cpus >= WORKERS else
                                f" — not asserted with only {cpus} core(s)"))
    reporter("Scaling — sequential vs parallel pipeline execution", lines, data={
        "config": {"workers": WORKERS, "countries": 12,
                   "records": len(sequential.dataset), "cpus": cpus},
        "sequential_rps": baseline_rps,
        "process_rps": len(process_result.dataset) / process_s,
        "process_speedup": sequential_s / process_s,
        "target_speedup": TARGET_SPEEDUP,
    })

    # Determinism: every backend serializes byte-identically.
    sequential_jsonl = _dataset_jsonl(sequential)
    for name, (result, _) in runs.items():
        assert _dataset_jsonl(result) == sequential_jsonl, name
        assert result.qualifying_site_counts() == sequential.qualifying_site_counts()

    # Per-shard metrics cover every country on every backend.
    for result in (sequential, process_result):
        assert set(result.shard_metrics) == set(sequential.selection_outcomes)

    # Throughput: only meaningful where 4 shards can genuinely run at once,
    # and only as a hard gate on quiet machines (see module docstring).
    strict = os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0"
    if strict and cpus >= WORKERS:
        process_rps = len(process_result.dataset) / process_s
        assert process_rps >= TARGET_SPEEDUP * baseline_rps, (
            f"process backend reached {process_rps / baseline_rps:.2f}x, "
            f"expected >= {TARGET_SPEEDUP}x")
