"""Tests for streaming dataset persistence and its parity guarantees.

Two layers:

* :class:`~repro.core.dataset.StreamingDatasetWriter` unit behaviour —
  atomic commit, abort, crash simulation (writer never closed), salvage of
  a torn partial file, and the atomicity of ``save_jsonl`` built on top;
* end-to-end parity — a pipeline run streaming to disk produces JSONL
  byte-identical to the sequential in-memory ``save_jsonl`` path for every
  executor backend, worker count and ``max_in_flight``, pinned both by
  explicit backend cases (process pool included) and by a hypothesis sweep
  over worker/batch/streaming combinations.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import LangCrUXDataset, SiteRecord, StreamingDatasetWriter
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, RecordSink
from shuffled_executor import ShuffledExecutor


def _record(index: int) -> SiteRecord:
    return SiteRecord(domain=f"site{index}.example.bd", country_code="bd",
                      language_code="bn", rank=index + 1,
                      visible_text_chars=100 + index)


class TestStreamingDatasetWriter:
    def test_commit_publishes_only_on_close(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        writer = StreamingDatasetWriter(path)
        writer.write_many([_record(0), _record(1)])
        assert not path.exists()
        assert writer.partial_path.exists()
        assert writer.close() == 2
        assert writer.closed
        assert not writer.partial_path.exists()
        assert len(LangCrUXDataset.load_jsonl(path)) == 2

    def test_streamed_bytes_match_save_jsonl(self, tmp_path) -> None:
        records = [_record(i) for i in range(5)]
        streamed, saved = tmp_path / "streamed.jsonl", tmp_path / "saved.jsonl"
        with StreamingDatasetWriter(streamed) as writer:
            for record in records:
                writer.write(record)
        LangCrUXDataset(records).save_jsonl(saved)
        assert streamed.read_bytes() == saved.read_bytes()

    def test_abort_leaves_previous_file_untouched(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        LangCrUXDataset([_record(0)]).save_jsonl(path)
        before = path.read_bytes()
        writer = StreamingDatasetWriter(path)
        writer.write(_record(1))
        writer.abort()
        assert path.read_bytes() == before
        assert not writer.partial_path.exists()

    def test_context_manager_aborts_on_exception(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        with pytest.raises(RuntimeError):
            with StreamingDatasetWriter(path) as writer:
                writer.write(_record(0))
                raise RuntimeError("crash mid-stream")
        assert not path.exists()
        assert not writer.partial_path.exists()

    def test_crash_without_close_never_truncates_destination(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        LangCrUXDataset([_record(0), _record(1)]).save_jsonl(path)
        before = path.read_bytes()
        # A hard crash = the writer object simply stops being driven; close()
        # is never called and only the partial file is left behind.
        writer = StreamingDatasetWriter(path)
        writer.write(_record(2))
        assert path.read_bytes() == before
        assert writer.partial_path.exists()
        writer.abort()  # cleanup for the tmp dir

    def test_torn_partial_file_salvaged_with_skip_corrupt(self, tmp_path) -> None:
        partial = tmp_path / ".data.jsonl.partial"
        lines = [json.dumps(_record(i).to_dict(), ensure_ascii=False) for i in range(3)]
        torn = "\n".join(lines) + "\n" + lines[0][: len(lines[0]) // 2]
        partial.write_text(torn, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            LangCrUXDataset.load_jsonl(partial)
        salvaged = LangCrUXDataset.load_jsonl(partial, skip_corrupt=True)
        assert [record.domain for record in salvaged] == \
            [f"site{i}.example.bd" for i in range(3)]

    def test_concurrent_writers_to_one_path_stay_isolated(self, tmp_path) -> None:
        # Unique partial names mean two writers racing for the same
        # destination each commit a complete file; last close wins.
        path = tmp_path / "data.jsonl"
        first, second = StreamingDatasetWriter(path), StreamingDatasetWriter(path)
        assert first.partial_path != second.partial_path
        first.write(_record(0))
        second.write(_record(1))
        first.write(_record(2))
        first.close()
        assert [r.domain for r in LangCrUXDataset.load_jsonl(path)] == \
            ["site0.example.bd", "site2.example.bd"]
        second.close()
        assert [r.domain for r in LangCrUXDataset.load_jsonl(path)] == ["site1.example.bd"]

    def test_write_after_close_rejected(self, tmp_path) -> None:
        writer = StreamingDatasetWriter(tmp_path / "data.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.write(_record(0))

    def test_close_is_idempotent(self, tmp_path) -> None:
        writer = StreamingDatasetWriter(tmp_path / "data.jsonl")
        writer.write(_record(0))
        assert writer.close() == 1
        assert writer.close() == 1

    def test_unknown_fsync_policy_rejected(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="fsync policy"):
            StreamingDatasetWriter(tmp_path / "data.jsonl", fsync="always")

    def test_save_jsonl_is_atomic_under_serialization_failure(self, tmp_path,
                                                              monkeypatch) -> None:
        path = tmp_path / "data.jsonl"
        LangCrUXDataset([_record(0)]).save_jsonl(path)
        before = path.read_bytes()

        exploding = _record(1)
        monkeypatch.setattr(type(exploding), "to_dict",
                            lambda self: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            LangCrUXDataset([exploding]).save_jsonl(path)
        assert path.read_bytes() == before


class TestWriterSections:
    """The per-country section protocol: a write-order contract, no bytes."""

    def test_sections_add_no_bytes(self, tmp_path) -> None:
        records = [_record(i) for i in range(4)]
        plain, sectioned = tmp_path / "plain.jsonl", tmp_path / "sectioned.jsonl"
        with StreamingDatasetWriter(plain) as writer:
            writer.write_many(records)
        writer = StreamingDatasetWriter(sectioned)
        writer.begin_section("bd")
        assert writer.current_section == "bd"
        writer.write_many(records[:3])
        assert writer.end_section() == 3
        writer.begin_section("th")
        writer.write(records[3])
        assert writer.end_section() == 1
        assert writer.sections_committed == 2
        writer.close()
        assert sectioned.read_bytes() == plain.read_bytes()

    def test_sections_cannot_nest(self, tmp_path) -> None:
        writer = StreamingDatasetWriter(tmp_path / "data.jsonl")
        writer.begin_section("bd")
        with pytest.raises(ValueError, match="still open"):
            writer.begin_section("th")
        writer.abort()

    def test_end_without_begin_rejected(self, tmp_path) -> None:
        writer = StreamingDatasetWriter(tmp_path / "data.jsonl")
        with pytest.raises(ValueError, match="no section"):
            writer.end_section()
        writer.abort()

    def test_close_refuses_open_section(self, tmp_path) -> None:
        # Crash-mid-country safety: a half-written group must never be
        # published.  Abort (the crash path) still discards cleanly.
        path = tmp_path / "data.jsonl"
        writer = StreamingDatasetWriter(path)
        writer.begin_section("bd")
        writer.write(_record(0))
        with pytest.raises(ValueError, match="partial section"):
            writer.close()
        writer.abort()
        assert not path.exists()
        assert not writer.partial_path.exists()

    def test_exception_in_section_discards_partial(self, tmp_path) -> None:
        path = tmp_path / "data.jsonl"
        with pytest.raises(RuntimeError):
            with StreamingDatasetWriter(path) as writer:
                writer.begin_section("bd")
                writer.write(_record(0))
                raise RuntimeError("crash mid-section")
        assert not path.exists()
        assert not writer.partial_path.exists()

    def test_section_fsync_policy_syncs_each_section(self, tmp_path,
                                                     monkeypatch) -> None:
        import os as os_module

        synced: list[int] = []
        real_fsync = os_module.fsync
        monkeypatch.setattr("repro.core.dataset.os.fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd))[1])
        with StreamingDatasetWriter(tmp_path / "data.jsonl",
                                    fsync="section") as writer:
            for name in ("bd", "th"):
                writer.begin_section(name)
                writer.write(_record(0))
                writer.end_section()
        # Two section syncs plus the commit-time sync in close().
        assert len(synced) == 3


PARITY_CONFIG = dict(countries=("bd", "th"), sites_per_country=4, seed=13,
                     transport_failure_rate=0.05)


@pytest.fixture(scope="module")
def sequential_bytes(tmp_path_factory) -> bytes:
    """The reference: a sequential in-memory run saved after the fact."""
    path = tmp_path_factory.mktemp("parity") / "sequential.jsonl"
    LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG)).run().dataset.save_jsonl(path)
    return path.read_bytes()


class TestRecordSink:
    def test_records_and_serialized_lines_stream_identically(self, tmp_path) -> None:
        records = [_record(0), _record(1)]
        reference = tmp_path / "records.jsonl"
        LangCrUXDataset(records).save_jsonl(reference)
        lines = reference.read_text(encoding="utf-8").splitlines()
        mixed = tmp_path / "mixed.jsonl"
        writer = StreamingDatasetWriter(mixed)
        sink = RecordSink(writer, None)
        sink.commit("bd", [records[0]])
        sink.commit("bd", [lines[1]])  # a distributed worker's line, verbatim
        sink.finish_country("bd")
        assert writer.close() == 2 == sink.committed
        assert mixed.read_bytes() == reference.read_bytes()

    def test_serialized_lines_cannot_be_kept_in_memory(self) -> None:
        dataset = LangCrUXDataset()
        with pytest.raises(ValueError, match="streamed"):
            RecordSink(None, dataset).commit("bd", ['{"domain": "a.example"}'])
        assert len(dataset) == 0


class TestStreamingPipelineParity:
    @pytest.mark.parametrize("overrides", [
        dict(max_in_flight=4),
        dict(workers=2, executor="process", max_in_flight=3),
        dict(sub_shard_size=3),
    ], ids=["serial-batched", "process-batched", "serial-windowed"])
    def test_streamed_output_is_byte_identical(self, overrides, sequential_bytes,
                                               tmp_path) -> None:
        stream_path = tmp_path / "streamed.jsonl"
        result = LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG, **overrides)).run(
            stream_to=stream_path)
        assert stream_path.read_bytes() == sequential_bytes
        assert result.stream_path == stream_path
        assert result.streamed_records == len(result.dataset)
        memory_path = tmp_path / "memory.jsonl"
        result.dataset.save_jsonl(memory_path)
        assert memory_path.read_bytes() == sequential_bytes

    def test_stream_without_memory_retention(self, sequential_bytes, tmp_path) -> None:
        stream_path = tmp_path / "streamed.jsonl"
        result = LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG, workers=2,
                                                 executor="process", max_in_flight=3)).run(
            stream_to=stream_path, keep_in_memory=False)
        assert stream_path.read_bytes() == sequential_bytes
        assert len(result.dataset) == 0
        assert result.streamed_records == 8
        assert result.qualifying_site_counts() == {"bd": 4, "th": 4}

    def test_dropping_memory_requires_streaming(self) -> None:
        with pytest.raises(ValueError, match="keep_in_memory"):
            LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG)).run(keep_in_memory=False)

    def test_failed_run_leaves_no_streamed_file(self, tmp_path, monkeypatch) -> None:
        from repro.core import pipeline as pipeline_module

        def broken_window(config, spec, **kwargs):
            raise RuntimeError(f"cannot crawl {spec.country_code}")

        monkeypatch.setattr(pipeline_module, "execute_selection_subshard", broken_window)
        stream_path = tmp_path / "streamed.jsonl"
        with pytest.raises(Exception):
            LangCrUXPipeline(PipelineConfig(**PARITY_CONFIG)).run(stream_to=stream_path)
        assert not stream_path.exists()
        assert not list(tmp_path.glob(".*.partial"))

    def test_crash_between_window_commits_recovers_byte_identical(
            self, sequential_bytes, tmp_path, monkeypatch) -> None:
        """Kill a windowed streaming run mid-country, re-run, assert parity.

        The crash lands *between* window commits (after the first window's
        records reached the writer, inside an open country section), so the
        abort path must discard the half-written country rather than
        publish it.  The second run replays from the on-disk crawl cache
        warmed by the first attempt and must produce exactly the sequential
        bytes.
        """
        from repro.core import pipeline as pipeline_module

        cache_dir = tmp_path / "cache"
        config = PipelineConfig(**PARITY_CONFIG, sub_shard_size=2,
                                crawl_cache=str(cache_dir))
        stream_path = tmp_path / "streamed.jsonl"

        real_subshard = pipeline_module.execute_selection_subshard
        completed = []

        def crashing_subshard(config, spec, **kwargs):
            result = real_subshard(config, spec, **kwargs)
            completed.append(spec)
            if len(completed) == 2:
                raise KeyboardInterrupt("simulated kill between window commits")
            return result

        monkeypatch.setattr(pipeline_module, "execute_selection_subshard",
                            crashing_subshard)
        with pytest.raises(BaseException):
            LangCrUXPipeline(config).run(stream_to=stream_path,
                                         keep_in_memory=False)
        assert not stream_path.exists()
        assert not list(tmp_path.glob(".*.partial"))
        assert cache_dir.exists()  # first attempt warmed the crawl cache

        monkeypatch.setattr(pipeline_module, "execute_selection_subshard",
                            real_subshard)
        result = LangCrUXPipeline(config).run(stream_to=stream_path,
                                              keep_in_memory=False)
        assert stream_path.read_bytes() == sequential_bytes
        assert result.transport_metrics.cache_hits > 0  # the replay was cached

    @given(
        max_in_flight=st.integers(min_value=1, max_value=6),
        shuffle=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
        stream=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_parity_property_across_schedules(self, max_in_flight, shuffle,
                                              stream, sequential_bytes,
                                              tmp_path_factory) -> None:
        tmp_path = tmp_path_factory.mktemp("sweep")
        config = PipelineConfig(**PARITY_CONFIG, max_in_flight=max_in_flight)
        stream_path = tmp_path / "streamed.jsonl"
        executor = ShuffledExecutor(shuffle) if shuffle is not None else None
        result = LangCrUXPipeline(config).run(executor=executor,
                                              stream_to=stream_path if stream else None)
        saved = tmp_path / "saved.jsonl"
        result.dataset.save_jsonl(saved)
        assert saved.read_bytes() == sequential_bytes
        if stream:
            assert stream_path.read_bytes() == sequential_bytes
