"""Property-based tests for the intra-country sub-sharded selection walk.

The determinism invariant of the sub-sharded walk: for a fixed seed/config,
the pipeline's output is **byte-identical** — same per-country
:class:`~repro.core.site_selection.SelectionOutcome` field for field, same
JSONL bytes on disk — for every ``(executor, workers, sub_shard_size,
max_in_flight)`` combination, because sub-shards are evaluated speculatively
but committed in strict rank order.

Hypothesis draws random combinations (including the degenerate sub-shard
sizes 1 — one candidate per work unit — and effectively-infinite — one
window per country) and compares each against a cached sequential reference
run of the same quota.  The process backend, too slow to spawn per example,
is pinned by a fixed-combination test.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import create_executor
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from shuffled_executor import ShuffledExecutor

#: Shared base configuration: two countries so cross-country merge order is
#: exercised, a multiplier that leaves room for replacements, and a nonzero
#: failure rate so the fetch-failure path is part of every comparison.
BASE_CONFIG = dict(
    countries=("gr", "bd"),
    seed=23,
    transport_failure_rate=0.05,
    candidate_multiplier=2.5,
)

#: An "infinite" sub-shard size: far larger than any candidate list, so each
#: country collapses to a single window.
UNBOUNDED = 10**6

_baselines: dict[int, tuple[dict, bytes]] = {}


def _jsonl_bytes(result, tmp_dir: Path) -> bytes:
    path = tmp_dir / "out.jsonl"
    result.dataset.save_jsonl(path)
    return path.read_bytes()


def _executor(shuffle: int | None, workers: int):
    """The configured serial backend, or an out-of-order one seeded ``shuffle``."""
    return None if shuffle is None else ShuffledExecutor(seed=shuffle, workers=workers)


def _baseline(quota: int, tmp_dir: Path) -> tuple[dict, bytes]:
    """The sequential reference run for ``quota`` (cached per module)."""
    if quota not in _baselines:
        config = PipelineConfig(sites_per_country=quota, **BASE_CONFIG)
        result = LangCrUXPipeline(config).run()
        _baselines[quota] = (result.selection_outcomes,
                             _jsonl_bytes(result, tmp_dir))
    return _baselines[quota]


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("subshard_parity")


class TestSubShardedSelectionProperties:
    @given(
        quota=st.integers(min_value=1, max_value=5),
        workers=st.sampled_from([1, 4]),
        sub_shard_size=st.sampled_from([1, 2, 3, "quota", UNBOUNDED]),
        max_in_flight=st.sampled_from([1, 2, 4]),
        shuffle=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
    )
    @settings(max_examples=10, deadline=None)
    def test_byte_identical_to_sequential_walk(self, quota, workers, sub_shard_size,
                                               max_in_flight, shuffle, tmp_dir) -> None:
        if sub_shard_size == "quota":
            sub_shard_size = quota
        expected_outcomes, expected_bytes = _baseline(quota, tmp_dir)
        config = PipelineConfig(sites_per_country=quota,
                                executor="serial",
                                max_in_flight=max_in_flight,
                                sub_shard_size=sub_shard_size,
                                **BASE_CONFIG)
        result = LangCrUXPipeline(config).run(executor=_executor(shuffle, workers))
        # Field-for-field SelectionOutcome equality: selected sites (entry,
        # crawl record, native share), every rejection counter, and
        # candidates_examined — the sub-sharded walk must not even *examine*
        # candidates the sequential walk never reached.
        assert result.selection_outcomes == expected_outcomes
        assert _jsonl_bytes(result, tmp_dir) == expected_bytes

    @given(
        quota=st.integers(min_value=1, max_value=4),
        sub_shard_size=st.integers(min_value=1, max_value=6),
        max_in_flight=st.sampled_from([1, 2, 4]),
        shuffle=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
        workers=st.sampled_from([1, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_streamed_output_matches_in_memory(self, quota, sub_shard_size,
                                               max_in_flight, shuffle, workers,
                                               tmp_dir) -> None:
        # Windowed streaming commits records per sub-shard window; the
        # streamed bytes must still equal the sequential in-memory build for
        # every executor/worker/window/in-flight combination.
        _, expected_bytes = _baseline(quota, tmp_dir)
        config = PipelineConfig(sites_per_country=quota, executor="serial",
                                sub_shard_size=sub_shard_size,
                                max_in_flight=max_in_flight,
                                **BASE_CONFIG)
        stream_path = tmp_dir / "streamed.jsonl"
        LangCrUXPipeline(config).run(executor=_executor(shuffle, workers),
                                     stream_to=stream_path, keep_in_memory=False)
        assert stream_path.read_bytes() == expected_bytes


class TestSubShardedProcessBackend:
    """The process backend, pinned on fixed combinations (pool spawn is slow)."""

    @pytest.mark.parametrize("sub_shard_size", [2, UNBOUNDED])
    def test_byte_identical_to_sequential_walk(self, sub_shard_size, tmp_dir) -> None:
        quota = 4
        expected_outcomes, expected_bytes = _baseline(quota, tmp_dir)
        config = PipelineConfig(sites_per_country=quota, workers=4,
                                executor="process", sub_shard_size=sub_shard_size,
                                max_in_flight=2, **BASE_CONFIG)
        result = LangCrUXPipeline(config).run()
        assert result.selection_outcomes == expected_outcomes
        assert _jsonl_bytes(result, tmp_dir) == expected_bytes

    def test_streamed_output_matches_in_memory(self, tmp_dir) -> None:
        # Windowed streaming over the process backend with records dropped
        # from memory as they land on disk — the CI streaming-parity shape.
        quota = 4
        _, expected_bytes = _baseline(quota, tmp_dir)
        config = PipelineConfig(sites_per_country=quota, workers=4,
                                executor="process", sub_shard_size=3,
                                max_in_flight=2, **BASE_CONFIG)
        stream_path = tmp_dir / "streamed_process.jsonl"
        result = LangCrUXPipeline(config).run(stream_to=stream_path,
                                              keep_in_memory=False)
        assert stream_path.read_bytes() == expected_bytes
        assert len(result.dataset) == 0
        assert result.streamed_records == expected_bytes.count(b"\n")

    def test_explicit_executor_instance_is_honoured(self, tmp_dir) -> None:
        quota = 3
        _, expected_bytes = _baseline(quota, tmp_dir)
        config = PipelineConfig(sites_per_country=quota, sub_shard_size=1,
                                **BASE_CONFIG)
        result = LangCrUXPipeline(config).run(
            executor=create_executor("process", 2))
        assert _jsonl_bytes(result, tmp_dir) == expected_bytes


class TestSubShardMetrics:
    def test_metrics_aggregate_sub_shards_per_country(self, tmp_dir) -> None:
        config = PipelineConfig(sites_per_country=3, sub_shard_size=2, **BASE_CONFIG)
        result = LangCrUXPipeline(config).run(executor=ShuffledExecutor(seed=1))
        assert set(result.shard_metrics) == set(BASE_CONFIG["countries"])
        for country, metric in result.shard_metrics.items():
            assert metric.shard == country
            # At least one window was merged, and no more than the plan has.
            assert metric.sub_shards >= 1
            assert metric.records == len(result.selection_outcomes[country].selected)
        # Countries keep their configured submission positions.
        assert [result.shard_metrics[c].index
                for c in BASE_CONFIG["countries"]] == [0, 1]
