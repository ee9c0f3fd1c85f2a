"""Tests for the end-to-end pipeline (repro.core.pipeline).

These use the session-scoped ``small_pipeline_result`` fixture (two
countries, five sites each) so the expensive build happens once and stays
as cheap as possible; only determinism/ablation tests run their own
pipelines.
"""

from __future__ import annotations

import json

import pytest

from repro.core.dataset import LangCrUXDataset
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import (
    LangCrUXPipeline,
    PipelineConfig,
    SelectionSubShard,
    build_web_for_config,
    execute_selection_subshard,
    record_from_crawl,
    selector_for_country,
    slim_selection_outcome,
    web_for_config,
)
from repro.core.elements import ELEMENT_IDS
from repro.core.extraction import extract_page, merge_extractions
from repro.core.site_selection import RankOrderCommitter
from repro.crawler.vpn import VantagePoint
from repro.langid.detector import ScriptDetector
from repro.langid.languages import langcrux_country_codes


class TestPipelineConfig:
    def test_defaults_cover_all_countries(self) -> None:
        assert PipelineConfig().countries == langcrux_country_codes()

    def test_vantage_selection_with_vpn(self) -> None:
        pipeline = LangCrUXPipeline(PipelineConfig(countries=("bd",)))
        vantage = pipeline.vantage_for("bd")
        assert vantage.country_code == "bd"
        assert vantage.via_vpn

    def test_vantage_selection_without_vpn(self) -> None:
        pipeline = LangCrUXPipeline(PipelineConfig(countries=("bd",), use_vpn=False))
        assert pipeline.vantage_for("bd") == VantagePoint.cloud()


class TestPipelineRun:
    def test_selection_quota_filled(self, small_pipeline_result) -> None:
        for country, outcome in small_pipeline_result.selection_outcomes.items():
            assert outcome.filled, f"{country} quota not filled"
            assert len(outcome.selected) == 5

    def test_dataset_covers_configured_countries(self, small_pipeline_result) -> None:
        dataset = small_pipeline_result.dataset
        assert set(dataset.countries()) == {"bd", "th"}
        assert len(dataset) == 2 * 5

    def test_every_record_meets_language_threshold(self, small_pipeline_result) -> None:
        for record in small_pipeline_result.dataset:
            assert record.visible_native_share >= 0.5

    def test_records_carry_audit_results(self, small_pipeline_result) -> None:
        for record in small_pipeline_result.dataset:
            assert record.audit
            assert set(record.audit) <= set(ELEMENT_IDS)

    def test_records_have_element_observations(self, small_pipeline_result) -> None:
        for record in small_pipeline_result.dataset:
            assert record.element("image-alt").total > 0
            assert record.element("link-name").total > 0

    def test_served_variant_is_localized_with_vpn(self, small_pipeline_result) -> None:
        variants = {record.served_variant for record in small_pipeline_result.dataset}
        assert variants == {"localized"}

    def test_crux_table_and_web_exposed(self, small_pipeline_result) -> None:
        assert small_pipeline_result.crux_table.size() > 0
        assert len(small_pipeline_result.web) >= small_pipeline_result.crux_table.size()

    def test_qualifying_site_counts(self, small_pipeline_result) -> None:
        counts = small_pipeline_result.qualifying_site_counts()
        assert all(count == 5 for count in counts.values())

    def test_shard_metrics_cover_every_country(self, small_pipeline_result) -> None:
        metrics = small_pipeline_result.shard_metrics
        assert set(metrics) == {"bd", "th"}
        assert all(metric.records == 5 for metric in metrics.values())
        assert small_pipeline_result.total_shard_seconds() > 0.0

    def test_dataset_round_trips_through_jsonl(self, small_pipeline_result, tmp_path) -> None:
        path = tmp_path / "langcrux.jsonl"
        small_pipeline_result.dataset.save_jsonl(path)
        reloaded = LangCrUXDataset.load_jsonl(path)
        assert len(reloaded) == len(small_pipeline_result.dataset)


class TestPipelineDeterminism:
    def test_same_seed_same_dataset(self) -> None:
        config = PipelineConfig(countries=("il",), sites_per_country=4, seed=99,
                                transport_failure_rate=0.0)
        first = LangCrUXPipeline(config).run().dataset
        second = LangCrUXPipeline(config).run().dataset
        assert [r.domain for r in first] == [r.domain for r in second]
        assert [r.visible_native_share for r in first] == \
            [r.visible_native_share for r in second]

    def test_different_seed_different_web(self) -> None:
        base = PipelineConfig(countries=("il",), sites_per_country=4, seed=1)
        other = PipelineConfig(countries=("il",), sites_per_country=4, seed=2)
        first = LangCrUXPipeline(base).run().dataset
        second = LangCrUXPipeline(other).run().dataset
        assert {r.domain for r in first} != {r.domain for r in second}


class TestDocumentCarryParity:
    """Selection-time parses are reused for record building, byte-identically.

    The 50% visible-language check parses every candidate page; selected
    sites carry those parsed documents (with their built DocumentIndex) into
    ``record_from_crawl``, dropping one parse+extract per selected origin.
    Since parsing is deterministic, the records must be byte-identical to a
    fresh-parse build — pinned here.  The language share measured during
    validation is carried the same way and must equal a fresh measurement
    of the record's visible text.
    """

    @pytest.fixture(scope="class")
    def selection(self):
        config = PipelineConfig(countries=("bd",), sites_per_country=4, seed=17,
                                transport_failure_rate=0.05)
        web, crux = build_web_for_config(config)
        selector = selector_for_country(config, "bd", web)
        committer = RankOrderCommitter(4, selector.threshold)
        accepted = committer.commit_chunk(selector.evaluate_window(
            crux.iter_ranked("bd"), 0, None, quota=4))
        return config, committer.outcome, [evaluation for evaluation, _ in accepted]

    def test_selected_sites_carry_their_parsed_documents(self, selection) -> None:
        _, outcome, _ = selection
        assert outcome.selected
        for selected in outcome.selected:
            assert selected.documents, selected.entry.origin
            ok_pages = [page for page in selected.record.pages
                        if page.ok and page.html]
            assert len(selected.documents) == len(ok_pages)

    def test_records_byte_identical_with_and_without_carry(self, selection) -> None:
        _, outcome, accepted = selection
        assert len(accepted) == len(outcome.selected)
        for selected, evaluation in zip(outcome.selected, accepted):
            carried = record_from_crawl(selected.record,
                                        documents=selected.documents,
                                        share=evaluation.share)
            fresh = record_from_crawl(selected.record)
            assert json.dumps(carried.to_dict(), ensure_ascii=False) == \
                json.dumps(fresh.to_dict(), ensure_ascii=False)

    def test_carried_share_equals_a_fresh_measurement(self, selection) -> None:
        _, outcome, accepted = selection
        for selected, evaluation in zip(outcome.selected, accepted):
            extraction = merge_extractions(
                [extract_page(document) for document in selected.documents])
            fresh = ScriptDetector(selected.record.language_code).share(
                extraction.visible_text)
            assert evaluation.share == fresh  # every field of the dataclass
            assert evaluation.native_share == fresh.native

    def test_country_shard_strips_documents_after_record_build(self, selection) -> None:
        config, _, _ = selection
        web, crux = build_web_for_config(config)
        whole_country = SelectionSubShard(country_code="bd", chunk_index=0,
                                          start=0, stop=crux.size("bd"))
        window = execute_selection_subshard(config, whole_country,
                                            web_and_crux=(web, crux))
        assert any(record is not None for record in window.records)
        committer = RankOrderCommitter(config.sites_per_country,
                                       config.language_threshold)
        committer.commit_chunk(window.evaluations)
        for selected in committer.outcome.selected:
            assert selected.documents == ()


class TestSubShardWorkerPayload:
    """The sub-shard worker slims what it ships back to the parent."""

    def test_rejected_candidates_ship_no_page_snapshots(self) -> None:
        from repro.core.pipeline import SelectionSubShard, execute_selection_subshard

        config = PipelineConfig(countries=("bd",), sites_per_country=50, seed=17,
                                transport_failure_rate=0.2)
        web_and_crux = build_web_for_config(config)
        spec = SelectionSubShard(country_code="bd", chunk_index=0, start=0, stop=40)
        result = execute_selection_subshard(config, spec, web_and_crux=web_and_crux)
        assert result.evaluations
        rejected = [evaluation for evaluation, record
                    in zip(result.evaluations, result.records) if record is None]
        assert rejected, "expected some rejections at a 0.2 failure rate"
        for evaluation in rejected:
            # Documents and page HTML are stripped; the commit verdict
            # survives on the evaluation itself.
            assert evaluation.documents == ()
            assert evaluation.record.pages == []
            assert evaluation.fetch_succeeded is not None
        for evaluation, record in zip(result.evaluations, result.records):
            if record is not None:
                assert evaluation.record.pages  # selected sites keep their crawl


class TestSlimOutcomes:
    """Streaming runs drop crawl payloads from selection outcomes."""

    CONFIG = dict(countries=("il",), sites_per_country=3, seed=33,
                  transport_failure_rate=0.0)

    def test_slim_selection_outcome_keeps_counters_and_metadata(self) -> None:
        config = PipelineConfig(**self.CONFIG)
        outcome = LangCrUXPipeline(config).run().selection_outcomes["il"]
        before = [(s.entry, s.visible_native_share,
                   [(p.url, p.status, p.served_variant) for p in s.record.pages])
                  for s in outcome.selected]
        examined = outcome.candidates_examined
        slim_selection_outcome(outcome)
        after = [(s.entry, s.visible_native_share,
                  [(p.url, p.status, p.served_variant) for p in s.record.pages])
                 for s in outcome.selected]
        assert after == before  # metadata and counters survive
        assert outcome.candidates_examined == examined
        assert all(page.html == "" for selected in outcome.selected
                   for page in selected.record.pages)
        assert all(selected.documents == () for selected in outcome.selected)

    def test_streaming_run_slims_outcomes_by_default(self, tmp_path) -> None:
        config = PipelineConfig(**self.CONFIG)
        result = LangCrUXPipeline(config).run(stream_to=tmp_path / "out.jsonl",
                                              keep_in_memory=False)
        outcome = result.selection_outcomes["il"]
        assert outcome.selected, "selection itself must be unaffected"
        assert all(page.html == "" for selected in outcome.selected
                   for page in selected.record.pages)

    def test_in_memory_run_keeps_crawl_snapshots(self) -> None:
        config = PipelineConfig(**self.CONFIG)
        result = LangCrUXPipeline(config).run()
        outcome = result.selection_outcomes["il"]
        assert any(page.html for selected in outcome.selected
                   for page in selected.record.pages)

    def test_explicit_slim_overrides_the_default(self) -> None:
        config = PipelineConfig(**self.CONFIG)
        result = LangCrUXPipeline(config).run(slim_outcomes=True)
        assert all(page.html == "" for selected
                   in result.selection_outcomes["il"].selected
                   for page in selected.record.pages)
        # The dataset is untouched either way.
        assert len(result.dataset) == 3


class TestProcessSpeculationBound:
    """A filled quota stops window scheduling on the process backend too.

    The process backend consumes its work lazily through a bounded
    submission window and the pipeline hands it a generator that drops
    windows of finalized countries, so the number of origins actually
    crawled past the quota is bounded by the in-flight windows — not by
    ``candidate_multiplier``.  The crawl cache gives an exact, cross-process
    count of real fetches.
    """

    def test_filled_quota_bounds_scheduled_windows(self, tmp_path) -> None:
        config = PipelineConfig(countries=("bd",), sites_per_country=3,
                                candidate_multiplier=8.0, seed=13,
                                transport_failure_rate=0.0,
                                executor="process", workers=2, sub_shard_size=2,
                                crawl_cache=str(tmp_path / "cache"))
        result = LangCrUXPipeline(config).run()
        assert len(result.dataset) == 3
        import json as _json
        hosts = set()
        for manifest in (tmp_path / "cache").glob("manifest-*.jsonl"):
            for line in manifest.read_text(encoding="utf-8").splitlines():
                entry = _json.loads(line)
                hosts.add(entry["url"].split("/")[2])
        total_candidates = 24  # sites_per_country * candidate_multiplier
        assert len(hosts) >= 3
        assert len(hosts) <= 18, (
            f"{len(hosts)} origins crawled of {total_candidates}: speculation "
            f"is not bounded by the submission window")


class TestWebMemo:
    def test_a_process_holds_one_memoized_web(self) -> None:
        first = PipelineConfig(countries=("bd",), sites_per_country=2, seed=61)
        second = PipelineConfig(countries=("bd",), sites_per_country=2, seed=62)
        web, crux = web_for_config(first)
        assert web_for_config(first)[0] is web
        # The pipeline and its in-process windows share the memoized web.
        assert LangCrUXPipeline(first).build_web()[0] is web
        other, _ = web_for_config(second)
        assert other is not web
        assert pipeline_module._WEB_MEMO[1][0] is other  # one slot, replaced
        # A caller-supplied web is used as given and leaves the memo alone.
        assert LangCrUXPipeline(first, web=web, crux_table=crux).build_web() == (web, crux)
        assert pipeline_module._WEB_MEMO[1][0] is other

    def test_a_finished_build_leaves_the_memo_empty(self) -> None:
        config = PipelineConfig(countries=("bd",), sites_per_country=2, seed=63)
        result = LangCrUXPipeline(config).run()
        # The web lives on the result only: dropping it frees the web.
        assert pipeline_module._WEB_MEMO is None
        assert result.web is not None


class TestSerialDispatch:
    def test_windows_of_a_filled_country_are_never_dispatched(self, monkeypatch) -> None:
        real = pipeline_module.execute_selection_subshard
        calls: list[SelectionSubShard] = []

        def counting(config, spec, **kwargs):
            calls.append(spec)
            return real(config, spec, **kwargs)

        monkeypatch.setattr(pipeline_module, "execute_selection_subshard", counting)
        config = PipelineConfig(countries=("gr", "bd"), sites_per_country=2, seed=43,
                                candidate_multiplier=8.0, sub_shard_size=1,
                                executor="serial")
        result = LangCrUXPipeline(config).run()
        assert all(outcome.filled for outcome in result.selection_outcomes.values())
        # Every window that ran was merged: none ran past its country's fill.
        assert len(calls) == sum(metric.sub_shards
                                 for metric in result.shard_metrics.values())
        assert len(calls) < 2 * 16


class TestVantageAblation:
    def test_cloud_vantage_selects_fewer_sites(self) -> None:
        vpn_config = PipelineConfig(countries=("th",), sites_per_country=10, seed=21,
                                    candidate_multiplier=1.5)
        cloud_config = PipelineConfig(countries=("th",), sites_per_country=10, seed=21,
                                      candidate_multiplier=1.5, use_vpn=False)
        vpn_result = LangCrUXPipeline(vpn_config).run()
        cloud_result = LangCrUXPipeline(cloud_config).run()
        vpn_selected = len(vpn_result.selection_outcomes["th"].selected)
        cloud_selected = len(cloud_result.selection_outcomes["th"].selected)
        assert cloud_selected < vpn_selected
