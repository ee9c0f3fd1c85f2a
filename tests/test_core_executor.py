"""Tests for the parallel execution subsystem (repro.core.executor).

The load-bearing guarantee is *determinism*: a parallel ``run()`` must
serialize to JSONL byte-for-byte identically to a sequential run for the
same :class:`~repro.core.pipeline.PipelineConfig`.  The remaining tests pin
the failure contract (first shard exception aborts the run), worker-count
edge cases, and the shard-isolation fix (per-shard audit engines, stateless
``AuditEngine``).
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from pathlib import Path

import pytest

from repro.audit.engine import AuditEngine
from repro.core import pipeline as pipeline_module
from repro.core.executor import (
    EXECUTOR_KINDS,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ShardMetrics,
    ShardResult,
    create_executor,
)
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from shuffled_executor import ShuffledExecutor


PARITY_CONFIG = dict(countries=("bd", "th", "jp", "il"), sites_per_country=5,
                     seed=23, transport_failure_rate=0.05)


def _dataset_bytes(result, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    result.dataset.save_jsonl(path)
    return path.read_bytes()


class TestParallelParity:
    def test_process_backend_is_byte_identical(self, tmp_path) -> None:
        config = dict(countries=("bd", "jp"), sites_per_country=4, seed=5,
                      transport_failure_rate=0.0)
        sequential = LangCrUXPipeline(PipelineConfig(**config)).run()
        parallel = LangCrUXPipeline(PipelineConfig(**config, workers=2,
                                                   executor="process")).run()
        assert _dataset_bytes(sequential, tmp_path, "seq.jsonl") == \
            _dataset_bytes(parallel, tmp_path, "proc.jsonl")

    def test_parallel_run_populates_shard_metrics(self) -> None:
        result = LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG, workers=2,
                                                 executor="process")).run()
        assert set(result.shard_metrics) == set(PARITY_CONFIG["countries"])
        for country, metric in result.shard_metrics.items():
            assert isinstance(metric, ShardMetrics)
            assert metric.shard == country
            assert metric.duration_s > 0.0
            assert metric.records == 5
            assert metric.records_per_second > 0.0
        assert result.total_shard_seconds() == pytest.approx(
            sum(m.duration_s for m in result.shard_metrics.values()))


class TestWorkerCountEdges:
    def test_zero_workers_rejected(self) -> None:
        with pytest.raises(ValueError):
            create_executor("process", 0)
        with pytest.raises(ValueError):
            create_executor("auto", 0)
        with pytest.raises(ValueError):
            ProcessExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(-1)

    def test_more_workers_than_countries_is_clamped_and_identical(self, tmp_path) -> None:
        config = dict(countries=("bd", "th"), sites_per_country=3, seed=9,
                      transport_failure_rate=0.02)
        sequential = LangCrUXPipeline(PipelineConfig(**config)).run()
        oversubscribed = LangCrUXPipeline(PipelineConfig(**config, workers=3,
                                                         executor="process")).run()
        assert _dataset_bytes(sequential, tmp_path, "a.jsonl") == \
            _dataset_bytes(oversubscribed, tmp_path, "b.jsonl")

    def test_empty_shard_list_yields_nothing(self) -> None:
        for executor in (SerialExecutor(), ProcessExecutor(4)):
            assert list(executor.run(lambda shard: shard, [])) == []

    @pytest.mark.parametrize("windows", [1, 3])
    def test_pool_starts_no_more_workers_than_windows(self, windows) -> None:
        before = set(multiprocessing.active_children())
        stream = ProcessExecutor(6).run(_slow_echo, list(range(windows)))
        try:
            next(stream)
            # The pool stays up until the stream ends, so every worker it
            # started is still alive here.
            started = set(multiprocessing.active_children()) - before
        finally:
            stream.close()
        assert len(started) <= windows


def _explode_in_worker(shard: str) -> str:
    """Module-level so the process backend can pickle it into a worker."""
    raise ValueError(f"worker cannot handle {shard}")


def _slow_echo(shard: int) -> int:
    """Module-level so the process backend can pickle it into a worker."""
    time.sleep(0.02)
    return shard


def _echo_when_released(shard: tuple[int, str]) -> int:
    """Return the shard's number; shard 1 first waits for a release file."""
    number, release = shard
    if number == 1:
        deadline = time.monotonic() + 30.0
        while not Path(release).exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    return number


class TestProcessLazySubmission:
    """The process backend consumes its shard source lazily.

    Submission is bounded to ``workers + 1`` outstanding tasks, refilled
    after each yielded result — which is what lets a speculative workload
    hand the backend a live-filtered generator and have a filled quota stop
    new windows from ever being scheduled.
    """

    def test_early_close_leaves_most_of_the_source_unconsumed(self) -> None:
        pulled = {"count": 0}

        def source():
            for index in range(50):
                pulled["count"] += 1
                yield index

        executor = ProcessExecutor(2)
        stream = executor.run_ordered(_slow_echo, source())
        taken = [next(stream).value for _ in range(3)]
        stream.close()
        assert taken == [0, 1, 2]
        # Initial window (workers + 1) plus one refill per drained result,
        # with slack for out-of-order completions — far below the 50 the
        # eager implementation would have submitted.
        assert pulled["count"] <= 12, (
            f"{pulled['count']} shards pulled from the source; submission "
            f"is not lazy")

    def test_lazy_source_still_yields_everything_when_drained(self) -> None:
        results = list(ProcessExecutor(2).run_ordered(_slow_echo, iter(range(7))))
        assert [result.value for result in results] == list(range(7))

    def test_empty_iterator_source(self) -> None:
        assert list(ProcessExecutor(2).run(_slow_echo, iter(()))) == []


class TestFailurePropagation:
    def test_process_backend_error_names_the_shard(self) -> None:
        # Both shards fail; whichever completes first must be named.
        with pytest.raises(ExecutorError, match="worker cannot handle (bd|th)") as excinfo:
            list(ProcessExecutor(2).run(_explode_in_worker, ["bd", "th"]))
        assert excinfo.value.shard in ("bd", "th")
        assert f"shard {excinfo.value.shard!r} failed" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("executor", [SerialExecutor(), ShuffledExecutor()],
                             ids=["serial", "shuffled"])
    def test_shard_exception_becomes_executor_error(self, executor) -> None:
        def explode(shard: int) -> int:
            if shard == 2:
                raise RuntimeError("boom in shard 2")
            return shard

        with pytest.raises(ExecutorError, match="boom in shard 2"):
            list(executor.run(explode, [0, 1, 2, 3]))

    def test_executor_error_chains_original_and_names_shard(self) -> None:
        def explode(shard: str) -> str:
            raise KeyError(shard)

        with pytest.raises(ExecutorError) as excinfo:
            list(SerialExecutor().run(explode, ["zz"]))
        assert isinstance(excinfo.value.__cause__, KeyError)
        assert excinfo.value.shard == "zz"

    def test_pipeline_run_propagates_shard_failure(self, monkeypatch) -> None:
        def broken_window(config, spec, **kwargs):
            raise RuntimeError(f"cannot crawl {spec.country_code}")

        monkeypatch.setattr(pipeline_module, "execute_selection_subshard", broken_window)
        pipeline = LangCrUXPipeline(PipelineConfig(countries=("bd", "th"),
                                                   sites_per_country=2))
        with pytest.raises(ExecutorError, match="cannot crawl"):
            pipeline.run(executor=ShuffledExecutor())


class TestStreamingAndOrdering:
    def test_run_ordered_restores_submission_order(self) -> None:
        executor = ShuffledExecutor(seed=3)
        completion = [r.index for r in executor.run(lambda shard: shard, range(6))]
        assert completion != sorted(completion)  # the seed does reorder
        results = list(executor.run_ordered(lambda shard: shard * 10, range(6)))
        assert [r.index for r in results] == list(range(6))
        assert [r.value for r in results] == [0, 10, 20, 30, 40, 50]

    def test_results_stream_before_all_shards_finish(self, tmp_path) -> None:
        release = tmp_path / "release"
        stream = ProcessExecutor(2).run(_echo_when_released,
                                        [(0, str(release)), (1, str(release))])
        try:
            first = next(stream)  # must arrive while shard 1 is still blocked
            assert first.value == 0
            release.touch()
            assert next(stream).value == 1
        finally:
            release.touch()
            stream.close()

    def test_bounded_queue_backpressures_workers(self) -> None:
        # The process backend pulls from its source only to keep
        # ``workers + 1`` shards outstanding, refilling after the consumer
        # takes a result: a consumer that never reads ahead holds it back.
        pulled = {"count": 0}

        def source():
            for index in range(10):
                pulled["count"] += 1
                yield index

        executor = ProcessExecutor(2)
        stream = executor.run(_slow_echo, source())
        first = next(stream)
        assert pulled["count"] == executor.workers + 1
        rest = [result.value for result in stream]
        assert sorted([first.value, *rest]) == list(range(10))

    def test_serial_executor_reports_durations(self) -> None:
        results = list(SerialExecutor().run(lambda shard: shard, ["a", "b"]))
        assert [type(r) for r in results] == [ShardResult, ShardResult]
        assert all(r.duration_s >= 0.0 for r in results)

    @pytest.mark.parametrize("ordered", [False, True])
    def test_serial_executor_holds_no_result_the_consumer_dropped(self, ordered) -> None:
        # A consumer that lets go of a result must not find it kept alive
        # by the executor while the next shard runs (refcounting alone, so
        # the check cannot depend on when the cyclic collector runs).
        class Payload:
            pass

        dropped: list[weakref.ref] = []
        alive_at_start: list[bool] = []

        def job(shard: int) -> Payload:
            alive_at_start.append(any(ref() is not None for ref in dropped))
            return Payload()

        executor = SerialExecutor()
        stream = (executor.run_ordered if ordered else executor.run)(job, range(4))
        for result in stream:
            dropped.append(weakref.ref(result.value))
            del result
        assert alive_at_start == [False, False, False, False]
        assert all(ref() is None for ref in dropped)

    def test_abandoned_process_stream_drains_without_hanging(self) -> None:
        executor = ProcessExecutor(2)
        started = time.perf_counter()
        stream = executor.run(str, list(range(8)))
        next(stream)
        stream.close()
        assert time.perf_counter() - started < 30.0


class TestCreateExecutor:
    def test_auto_is_serial_for_one_worker(self) -> None:
        assert isinstance(create_executor("auto", 1), SerialExecutor)

    def test_auto_is_process_for_many_workers(self) -> None:
        executor = create_executor("auto", 2)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 2

    def test_explicit_kinds(self) -> None:
        assert isinstance(create_executor("serial", 1), SerialExecutor)
        assert isinstance(create_executor("serial", 4), SerialExecutor)
        assert isinstance(create_executor("process", 2), ProcessExecutor)

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown executor kind"):
            create_executor("fibers", 2)

    def test_kinds_constant_covers_factory(self) -> None:
        assert EXECUTOR_KINDS == ("auto", "serial", "process")
        for kind in EXECUTOR_KINDS:
            assert create_executor(kind, 2).workers >= 1


class TestShardIsolation:
    """Regression tests for the shared audit-engine hazard."""

    def test_audit_engine_is_stateless_across_documents(self, sample_document) -> None:
        # Auditing A, then B, then A again must give identical results for A:
        # rules carry no state between evaluations, so interleaved audits
        # from concurrent shards cannot contaminate each other.
        engine = AuditEngine()
        first = engine.audit_document(sample_document)
        other = engine.audit_html("<html><body><img src='x.png'></body></html>",
                                  url="https://other.example/")
        second = engine.audit_document(sample_document)
        assert set(first.results) == set(second.results)
        for rule_id, result in first.results.items():
            again = second.results[rule_id]
            assert (result.applicable, result.passed, result.score) == \
                (again.applicable, again.passed, again.score)
        assert other.url == "https://other.example/"

    def test_each_shard_constructs_its_own_audit_engine(self, monkeypatch) -> None:
        constructed: list[int] = []
        original_init = AuditEngine.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(AuditEngine, "__init__", counting_init)
        config = PipelineConfig(countries=("bd", "th"), sites_per_country=2,
                                seed=4, transport_failure_rate=0.0)
        LangCrUXPipeline(config).run()
        # One engine per country shard, never a single shared instance.
        assert len(constructed) >= len(config.countries)

    def test_pipeline_holds_no_shared_mutable_stage_state(self) -> None:
        pipeline = LangCrUXPipeline(PipelineConfig(countries=("bd",)))
        assert not hasattr(pipeline, "_audit_engine")
        assert not hasattr(pipeline, "_vpn")
