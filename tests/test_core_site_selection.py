"""Tests for website selection with replacement (repro.core.site_selection)."""

from __future__ import annotations

import random

import pytest

from repro.core.executor import SerialExecutor, plan_chunks
from repro.core.site_selection import (
    CandidateEvaluation,
    RankOrderCommitter,
    SelectionOutcome,
    SiteSelector,
)
from repro.crawler.crawler import LangCruxCrawler
from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.records import CrawlRecord, PageSnapshot
from repro.crawler.session import CrawlSession
from repro.crawler.vpn import VPNManager, VantagePoint
from repro.webgen.crux import CruxEntry, build_crux_table
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator, stable_seed
from shuffled_executor import ShuffledExecutor


@pytest.fixture(scope="module")
def setup():
    sites = SiteGenerator(get_profile("gr"), seed=13).generate_sites(40)
    web = SyntheticWeb(sites)
    table = build_crux_table(sites)
    return sites, web, table


def _crawler(web, vantage=None) -> LangCruxCrawler:
    transport = SimulatedTransport(web, rng=random.Random(0))
    session = CrawlSession(fetcher=Fetcher(transport),
                           vantage=vantage or VPNManager().vantage_for("gr"))
    return LangCruxCrawler(session)


def _split_crawler(web) -> LangCruxCrawler:
    """A crawler with the production per-host RNG split.

    The sub-sharded equality tests need it: with one shared transport stream
    a candidate's draws depend on how many requests preceded it, so only the
    per-host split makes chunked and sequential walks comparable (exactly the
    determinism precondition the pipeline establishes).
    """
    transport = SimulatedTransport(
        web, rng_factory=lambda host: random.Random(stable_seed(7, "transport", "gr", host)))
    session = CrawlSession(fetcher=Fetcher(transport),
                           vantage=VPNManager().vantage_for("gr"))
    return LangCruxCrawler(session)


class TestSelection:
    def test_quota_filled_when_enough_candidates(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el")
        outcome = selector.select(table.iter_ranked("gr"), quota=10)
        assert outcome.filled
        assert len(outcome.selected) == 10
        assert outcome.country_code == "gr"

    def test_selected_sites_meet_language_threshold(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el")
        outcome = selector.select(table.iter_ranked("gr"), quota=10)
        assert all(item.visible_native_share >= 0.5 for item in outcome.selected)

    def test_rank_order_preserved(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el")
        outcome = selector.select(table.iter_ranked("gr"), quota=8)
        ranks = [item.entry.rank for item in outcome.selected]
        assert ranks == sorted(ranks)

    def test_replacement_counts_recorded(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el")
        outcome = selector.select(table.iter_ranked("gr"), quota=20)
        # With a 12% below-threshold rate and some VPN-blocking sites the
        # selector must have examined more candidates than it selected.
        assert outcome.candidates_examined >= len(outcome.selected)
        assert outcome.candidates_examined == len(outcome.selected) + outcome.replacement_count

    def test_quota_larger_than_candidate_pool(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el")
        outcome = selector.select(table.iter_ranked("gr"), quota=1000)
        assert not outcome.filled
        assert outcome.candidates_examined == len(sites)

    def test_threshold_one_rejects_everything(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_crawler(web), "el", threshold=1.01)
        outcome = selector.select(table.iter_ranked("gr"), quota=5)
        assert outcome.selected == []
        assert outcome.rejected_below_threshold > 0

    def test_wrong_language_detector_rejects_sites(self, setup) -> None:
        sites, web, table = setup
        # Measuring Greek sites against Thai yields ~zero native share.
        selector = SiteSelector(_crawler(web), "th")
        outcome = selector.select(table.iter_ranked("gr"), quota=5)
        assert outcome.selected == []

    def test_cloud_vantage_selects_fewer_native_sites(self, setup) -> None:
        sites, web, table = setup
        vpn_outcome = SiteSelector(_crawler(web), "el").select(table.iter_ranked("gr"), quota=30)
        cloud_outcome = SiteSelector(_crawler(web, VantagePoint.cloud()), "el") \
            .select(table.iter_ranked("gr"), quota=30)
        # From a cloud vantage, geo-localizing sites serve their English
        # variant and fail the 50% check, so fewer sites qualify (the paper's
        # argument for VPN-based crawling).
        assert len(cloud_outcome.selected) < len(vpn_outcome.selected)


# -- windowed walks ----------------------------------------------------------------


class ScriptedSelector(SiteSelector):
    """A selector whose evaluations follow a per-origin script.

    The script maps each origin to ``"accept"`` (qualifying native share),
    ``"reject"`` (below threshold) or ``"fail"`` (fetch failure), which makes
    the commit arithmetic of window-seam edge cases exact and lets the tests
    observe exactly which candidates were evaluated.
    """

    def __init__(self, script: dict[str, str]) -> None:
        super().__init__(crawler=None, language_code="el")  # type: ignore[arg-type]
        self.script = script
        self.evaluated: list[str] = []

    async def evaluate(self, entry: CruxEntry) -> CandidateEvaluation:
        self.evaluated.append(entry.origin)
        verdict = self.script[entry.origin]
        if verdict == "fail":
            page = PageSnapshot(url=f"https://{entry.origin}/",
                                final_url=f"https://{entry.origin}/",
                                status=503, error="HTTP 503")
            share = 0.0
        else:
            page = PageSnapshot(url=f"https://{entry.origin}/",
                                final_url=f"https://{entry.origin}/",
                                status=200, html="<html><body>x</body></html>")
            share = 1.0 if verdict == "accept" else 0.0
        record = CrawlRecord(domain=entry.origin, country_code=entry.country_code,
                             language_code="el", rank=entry.rank, pages=[page])
        return CandidateEvaluation(entry=entry, record=record, native_share=share)


def _entries(verdicts: list[str]) -> tuple[list[CruxEntry], ScriptedSelector]:
    entries = [CruxEntry(origin=f"site{rank}.gr", rank=rank, country_code="gr")
               for rank in range(1, len(verdicts) + 1)]
    script = {entry.origin: verdict for entry, verdict in zip(entries, verdicts)}
    return entries, ScriptedSelector(script)


def _executors():
    return [SerialExecutor(), ShuffledExecutor(seed=5)]


def _windowed_select(selector: SiteSelector, entries, quota: int, *,
                     sub_shard_size: int, executor=None) -> SelectionOutcome:
    """The pipeline's merge in miniature: windows on ``executor``, rank-order commit.

    Each window of ``sub_shard_size`` candidates is walked by
    ``evaluate_window`` with the quota as its stop; windows are merged in
    rank order and the stream is closed as soon as the quota fills.
    """
    entries = list(entries)
    committer = RankOrderCommitter(quota, selector.threshold)

    def evaluate(window: tuple[int, int]):
        # The filled flag only ever flips to True, so a stale read just
        # means one window is evaluated and later discarded.
        if committer.filled:
            return []
        return selector.evaluate_window(entries, *window, quota=quota)

    stream = (executor or SerialExecutor()).run_ordered(
        evaluate, plan_chunks(len(entries), sub_shard_size))
    try:
        for result in stream:
            committer.commit_chunk(result.value)
            if committer.filled:
                break
    finally:
        stream.close()
    return committer.outcome


class TestRankOrderCommitter:
    def test_commit_past_quota_is_a_counted_noop(self) -> None:
        entries, selector = _entries(["accept", "accept", "fail"])
        evaluations = selector.evaluate_window(entries, 0, len(entries))
        committer = RankOrderCommitter(quota=1, threshold=0.5)
        accepted = committer.commit_chunk(evaluations)
        assert [site.entry.rank for _, site in accepted] == [1]
        assert committer.filled
        # Discarded speculation: no counter moves past the boundary.
        assert committer.commit(evaluations[1]) is None
        assert committer.outcome.candidates_examined == 1
        assert committer.outcome.rejected_fetch_failure == 0

    def test_counters_mirror_the_accept_replace_rule(self) -> None:
        entries, selector = _entries(["reject", "fail", "accept"])
        committer = RankOrderCommitter(quota=1, threshold=0.5)
        committer.commit_chunk(selector.evaluate_window(entries, 0, len(entries)))
        outcome = committer.outcome
        assert outcome.candidates_examined == 3
        assert outcome.rejected_below_threshold == 1
        assert outcome.rejected_fetch_failure == 1
        assert outcome.replacement_count == 2
        assert outcome.country_code == "gr"


class TestWindowWalk:
    """``evaluate_window`` stops once its own would-qualify count fills the quota."""

    def test_stops_after_the_batch_that_fills_the_quota(self) -> None:
        entries, selector = _entries(["accept", "reject", "accept", "accept", "accept"])
        evaluations = selector.evaluate_window(entries, 0, 5, quota=2)
        assert [e.entry.rank for e in evaluations] == [1, 2, 3]
        assert selector.evaluated == ["site1.gr", "site2.gr", "site3.gr"]

    def test_finishes_the_batch_in_flight(self) -> None:
        entries, selector = _entries(["accept"] * 6)
        evaluations = selector.evaluate_window(entries, 0, 6, quota=1,
                                               max_in_flight=4)
        assert [e.entry.rank for e in evaluations] == [1, 2, 3, 4]

    def test_walks_the_whole_window_without_a_quota(self) -> None:
        entries, selector = _entries(["accept"] * 4)
        evaluations = selector.evaluate_window(entries, 1, 3)
        assert [e.entry.rank for e in evaluations] == [2, 3]

    def test_rejected_candidates_drop_their_payloads(self, setup) -> None:
        sites, web, table = setup
        selector = SiteSelector(_split_crawler(web), "el")
        evaluations = selector.evaluate_window(table.iter_ranked("gr"), 0, None)
        assert any(not e.qualifies(selector.threshold) for e in evaluations)
        for evaluation in evaluations:
            qualifies = evaluation.qualifies(selector.threshold)
            assert bool(evaluation.documents) == qualifies
            assert bool(evaluation.record.pages) == qualifies

    def test_rejects_non_positive_in_flight(self) -> None:
        entries, selector = _entries(["accept"])
        with pytest.raises(ValueError):
            selector.evaluate_window(entries, 0, 1, max_in_flight=0)


class TestSubShardSeams:
    """Window-seam edge cases of the windowed walk."""

    def test_quota_fills_exactly_at_subshard_boundary(self) -> None:
        entries, selector = _entries(["accept"] * 6)
        for executor in _executors():
            outcome = _windowed_select(selector, entries, quota=3, executor=executor,
                                       sub_shard_size=3)
            assert outcome.filled
            assert [s.entry.rank for s in outcome.selected] == [1, 2, 3]
            # The walk commits nothing past the boundary window.
            assert outcome.candidates_examined == 3
            assert outcome.replacement_count == 0

    def test_quota_fills_mid_chunk_discards_chunk_tail(self) -> None:
        entries, selector = _entries(["accept", "accept", "accept", "accept"])
        outcome = _windowed_select(selector, entries, quota=2, executor=SerialExecutor(),
                                   sub_shard_size=3)
        # The first window stops once two of its candidates would qualify,
        # and only those two are committed — identical to the sequential
        # walk's counters.
        assert outcome.candidates_examined == 2
        assert [s.entry.rank for s in outcome.selected] == [1, 2]

    def test_fully_rejected_subshard_walks_into_the_next(self) -> None:
        entries, selector = _entries(["reject", "fail", "reject",
                                      "accept", "accept", "accept"])
        for executor in _executors():
            outcome = _windowed_select(selector, entries, quota=2, executor=executor,
                                       sub_shard_size=3)
            assert outcome.filled
            assert [s.entry.rank for s in outcome.selected] == [4, 5]
            assert outcome.rejected_below_threshold == 2
            assert outcome.rejected_fetch_failure == 1
            assert outcome.candidates_examined == 5

    def test_ranking_exhausted_mid_chunk(self) -> None:
        entries, selector = _entries(["accept", "reject", "accept", "fail", "accept"])
        for executor in _executors():
            outcome = _windowed_select(selector, entries, quota=10, executor=executor,
                                       sub_shard_size=2)
            assert not outcome.filled
            assert len(outcome.selected) == 3
            assert outcome.candidates_examined == 5
            assert outcome.rejected_below_threshold == 1
            assert outcome.rejected_fetch_failure == 1

    def test_subshard_larger_than_candidate_list(self) -> None:
        entries, selector = _entries(["accept", "reject", "accept"])
        outcome = _windowed_select(selector, entries, quota=2, executor=SerialExecutor(),
                                   sub_shard_size=100)
        assert outcome.filled
        assert [s.entry.rank for s in outcome.selected] == [1, 3]
        assert outcome.candidates_examined == 3

    def test_serial_skips_subshards_past_the_quota(self) -> None:
        # With the lazy serial backend, windows queued after the quota fills
        # are never evaluated at all (the filled flag short-circuits).
        entries, selector = _entries(["accept"] * 10)
        outcome = _windowed_select(selector, entries, quota=2, executor=SerialExecutor(),
                                   sub_shard_size=2)
        assert outcome.filled
        assert selector.evaluated == ["site1.gr", "site2.gr"]

    def test_empty_candidate_list(self) -> None:
        entries, selector = _entries([])
        outcome = _windowed_select(selector, entries, quota=3, executor=SerialExecutor(),
                                   sub_shard_size=2)
        assert not outcome.filled
        assert outcome.candidates_examined == 0
        assert outcome.selected == []

    def test_invalid_subshard_size_rejected(self) -> None:
        entries, selector = _entries(["accept"])
        with pytest.raises(ValueError):
            _windowed_select(selector, entries, quota=1, sub_shard_size=0)


class TestSubShardedMatchesSequential:
    """Over the real synthetic web, the windowed walk equals the sequential one."""

    @pytest.mark.parametrize("sub_shard_size", [1, 3, 7, 100])
    def test_outcome_identical_for_any_chunking(self, setup, sub_shard_size) -> None:
        sites, web, table = setup
        sequential = SiteSelector(_split_crawler(web), "el").select(
            table.iter_ranked("gr"), quota=12)
        for executor in _executors():
            chunked = _windowed_select(
                SiteSelector(_split_crawler(web), "el"), table.iter_ranked("gr"),
                quota=12, executor=executor, sub_shard_size=sub_shard_size)
            assert chunked == sequential
