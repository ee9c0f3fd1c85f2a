"""Tests for the async batched fetch layer (repro.crawler.fetcher).

Covers the :class:`Fetcher` retry/redirect policy driven through
``fetch_many``, transports that yield (overlapping sleeps) or never await
(running on the loop thread), bounded concurrency and input-order results
of ``fetch_many``, the per-host RNG splitting of :class:`SimulatedTransport`,
and batched crawls (session fetches and ``LangCruxCrawler.crawl_origin``
under ``gather_bounded``, ``SiteSelector.select(max_in_flight=...)``)
matching their ``max_in_flight=1`` walks record-for-record.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

from repro.core.site_selection import SiteSelector
from repro.crawler.crawler import LangCruxCrawler
from repro.crawler.fetcher import (
    Fetcher,
    FetcherConfig,
    FetchError,
    SimulatedTransport,
    gather_bounded,
)
from repro.crawler.http import Headers, Request, Response, URL
from repro.crawler.session import CrawlSession
from repro.crawler.vpn import VPNManager
from repro.webgen.crux import build_crux_table
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator, stable_seed


@pytest.fixture(scope="module")
def sites():
    return SiteGenerator(get_profile("kr"), seed=31).generate_sites(20)


@pytest.fixture(scope="module")
def web(sites) -> SyntheticWeb:
    return SyntheticWeb(sites)


def _split_transport(web, failure_rate: float = 0.0) -> SimulatedTransport:
    return SimulatedTransport(
        web, failure_rate=failure_rate,
        rng_factory=lambda host: random.Random(stable_seed(9, "transport", "kr", host)))


def _session(web, failure_rate: float = 0.0) -> CrawlSession:
    return CrawlSession(fetcher=Fetcher(_split_transport(web, failure_rate)),
                        vantage=VPNManager().vantage_for("kr"))


class _ScriptedTransport:
    """A never-awaiting transport returning a scripted sequence of responses."""

    def __init__(self, responses: list[Response]) -> None:
        self.responses = list(responses)
        self.sent: list[Request] = []

    async def send(self, request: Request) -> Response:
        self.sent.append(request)
        if len(self.responses) > 1:
            return self.responses.pop(0)
        return self.responses[0]


def _resp(url: str, status: int, location: str | None = None) -> Response:
    headers = Headers({"content-type": "text/html"})
    if location:
        headers["location"] = location
    return Response(url=URL.parse(url), status=status, headers=headers, body="<p>x</p>")


def _crawl(crawler: LangCruxCrawler, entries, *, max_in_flight: int = 8,
           window: tuple[int, int] | None = None) -> list:
    """Crawl ``entries`` with up to ``max_in_flight`` origins in flight."""
    return asyncio.run(gather_bounded(lambda entry: crawler.crawl_origin(entry, "ko"),
                                      entries, max_in_flight=max_in_flight,
                                      window=window))


def _fetch(fetcher: Fetcher, url: str, **kwargs) -> Response:
    return asyncio.run(fetcher.fetch(url, **kwargs))


class TestAsyncFetcher:
    def test_transient_errors_retried(self) -> None:
        transport = _ScriptedTransport([
            _resp("https://a.example/", 503),
            _resp("https://a.example/", 503),
            _resp("https://a.example/", 200),
        ])
        fetcher = Fetcher(transport, FetcherConfig(max_retries=3))
        response = _fetch(fetcher, "https://a.example/")
        assert response.ok
        assert fetcher.stats["retries"] == 2

    def test_redirect_followed_and_vantage_forwarded(self) -> None:
        transport = _ScriptedTransport([
            _resp("https://a.example/", 302, location="/home"),
            _resp("https://a.example/home", 200),
        ])
        fetcher = Fetcher(transport)
        response = _fetch(fetcher, "https://a.example/", client_country="th", via_vpn=True)
        assert response.ok
        assert str(response.url).endswith("/home")
        assert fetcher.stats["redirects"] == 1
        assert all(request.client_country == "th" for request in transport.sent)
        assert all(request.via_vpn for request in transport.sent)

    def test_redirect_loop_raises(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 302, location="/")])
        fetcher = Fetcher(transport, FetcherConfig(max_redirects=3))
        with pytest.raises(FetchError):
            _fetch(fetcher, "https://a.example/")

    def test_stats_shared_with_sync_fetcher(self) -> None:
        # A single fetch and a max_in_flight=1 batch count into one stats dict.
        transport = _ScriptedTransport([_resp("https://a.example/", 200)])
        fetcher = Fetcher(transport)
        _fetch(fetcher, "https://a.example/")
        asyncio.run(fetcher.fetch_many(["https://a.example/"], max_in_flight=1))
        assert fetcher.stats["requests"] == 2

    def test_matches_sync_fetcher_over_synthetic_web(self, web) -> None:
        urls = [f"https://{domain}/" for domain in list(web.domains())[:6]]

        def fetch_all(max_in_flight: int) -> list[Response]:
            fetcher = Fetcher(_split_transport(web))
            return asyncio.run(fetcher.fetch_many(urls, client_country="kr", via_vpn=True,
                                                  max_in_flight=max_in_flight))

        for sequential, batched in zip(fetch_all(1), fetch_all(4), strict=True):
            assert batched.status == sequential.status
            assert batched.body == sequential.body


class _ConcurrencyProbe:
    """Async transport that records how many sends overlap."""

    def __init__(self) -> None:
        self.in_flight = 0
        self.max_in_flight = 0

    async def send(self, request: Request) -> Response:
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        await asyncio.sleep(0.002)
        self.in_flight -= 1
        return _resp(str(request.url), 200)


class TestFetchMany:
    def test_results_in_input_order(self) -> None:
        fetcher = Fetcher(_ConcurrencyProbe())
        urls = [f"https://site{i}.example/" for i in range(10)]
        responses = asyncio.run(fetcher.fetch_many(urls, max_in_flight=4))
        assert [str(r.url) for r in responses] == urls

    def test_concurrency_bounded_by_max_in_flight(self) -> None:
        probe = _ConcurrencyProbe()
        fetcher = Fetcher(probe)
        urls = [f"https://site{i}.example/" for i in range(12)]
        asyncio.run(fetcher.fetch_many(urls, max_in_flight=3))
        assert 1 < probe.max_in_flight <= 3

    def test_max_in_flight_must_be_positive(self) -> None:
        fetcher = Fetcher(_ConcurrencyProbe())
        with pytest.raises(ValueError):
            asyncio.run(fetcher.fetch_many(["https://a.example/"], max_in_flight=0))

    def test_return_exceptions_keeps_batch_alive(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 302, location="/")])
        fetcher = Fetcher(transport, FetcherConfig(max_redirects=1))
        results = asyncio.run(fetcher.fetch_many(
            ["https://a.example/", "https://a.example/x"], return_exceptions=True))
        assert all(isinstance(result, FetchError) for result in results)


class TestSyncTransportAdapter:
    """Transports that yield overlap; transports that never await stay inline."""

    def test_blocking_mode_overlaps_sleeping_sends(self) -> None:
        class SleepyTransport:
            async def send(self, request: Request) -> Response:
                await asyncio.sleep(0.05)
                return _resp(str(request.url), 200)

        fetcher = Fetcher(SleepyTransport())
        urls = [f"https://site{i}.example/" for i in range(6)]
        started = time.perf_counter()
        responses = asyncio.run(fetcher.fetch_many(urls, max_in_flight=6))
        elapsed = time.perf_counter() - started
        assert [str(r.url) for r in responses] == urls
        # Six overlapped 50ms sleeps must finish well under the 300ms a
        # sequential walk would need.
        assert elapsed < 0.25

    def test_inline_mode_runs_on_event_loop_thread(self) -> None:
        seen: list[str] = []

        class RecordingTransport:
            async def send(self, request: Request) -> Response:
                seen.append(threading.current_thread().name)
                return _resp(str(request.url), 200)

        fetcher = Fetcher(RecordingTransport())
        asyncio.run(fetcher.fetch_many(["https://a.example/", "https://b.example/"]))
        assert set(seen) == {threading.main_thread().name}


class TestPerHostRngSplitting:
    def test_host_outcome_independent_of_interleaving(self, web) -> None:
        domains = list(web.domains())[:4]

        def outcomes(order: list[str]) -> dict[str, tuple[int, float]]:
            transport = _split_transport(web, failure_rate=0.4)
            results = {}
            for domain in order:
                response = asyncio.run(transport.send(Request(
                    url=URL.parse(f"https://{domain}/"), client_country="kr", via_vpn=True)))
                results[domain] = (response.status, response.elapsed_ms)
            return results

        forward = outcomes(domains)
        backward = outcomes(list(reversed(domains)))
        assert forward == backward

    def test_shared_rng_depends_on_interleaving(self, web) -> None:
        domains = list(web.domains())[:4]

        def elapsed(order: list[str]) -> dict[str, float]:
            transport = SimulatedTransport(web, rng=random.Random(3))
            return {domain: asyncio.run(transport.send(
                Request(url=URL.parse(f"https://{domain}/"), client_country="kr",
                        via_vpn=True))).elapsed_ms for domain in order}

        assert elapsed(domains) != elapsed(list(reversed(domains)))


class TestBatchedCrawl:
    def test_fetch_batch_orders_and_advances_clock(self, web) -> None:
        session = _session(web)
        domains = list(web.domains())[:5]
        responses = asyncio.run(gather_bounded(
            session.fetch, [f"https://{domain}/" for domain in domains],
            max_in_flight=3))
        # Responses come back in input order (redirects may rewrite the path).
        assert [r.url.host for r in responses] == domains
        assert session.clock.now == pytest.approx(
            sum(r.elapsed_ms for r in responses) / 1000.0)

    def test_crawl_batch_matches_sequential_crawl(self, web, sites) -> None:
        table = build_crux_table(sites)
        entries = list(table.top("kr", 8))
        sequential = _crawl(LangCruxCrawler(_session(web, 0.3)), entries, max_in_flight=1)
        batched = _crawl(LangCruxCrawler(_session(web, 0.3)), entries, max_in_flight=4)
        assert [record.to_dict() for record in batched] == \
            [record.to_dict() for record in sequential]

    def test_crawl_batch_rejects_non_positive_in_flight(self, web) -> None:
        with pytest.raises(ValueError):
            _crawl(LangCruxCrawler(_session(web)), [], max_in_flight=0)

    def test_crawl_batch_window_crawls_only_the_slice(self, web, sites) -> None:
        table = build_crux_table(sites)
        entries = list(table.top("kr", 8))
        windowed = _crawl(LangCruxCrawler(_session(web)), entries,
                          max_in_flight=3, window=(2, 5))
        sliced = _crawl(LangCruxCrawler(_session(web)), entries[2:5], max_in_flight=3)
        assert [record.to_dict() for record in windowed] == \
            [record.to_dict() for record in sliced]
        assert [record.domain for record in windowed] == \
            [entry.origin for entry in entries[2:5]]

    def test_crawl_batch_window_beyond_the_end_is_empty(self, web, sites) -> None:
        table = build_crux_table(sites)
        entries = list(table.top("kr", 4))
        assert _crawl(LangCruxCrawler(_session(web)), entries, window=(10, 20)) == []

    def test_crawl_batch_rejects_invalid_window(self, web) -> None:
        crawler = LangCruxCrawler(_session(web))
        with pytest.raises(ValueError):
            _crawl(crawler, [], window=(3, 1))
        with pytest.raises(ValueError):
            _crawl(crawler, [], window=(-1, 2))

    def test_fetch_many_window_fetches_only_the_slice(self, web) -> None:
        domains = list(web.domains())[:6]
        urls = [f"https://{domain}/" for domain in domains]
        fetcher = Fetcher(_split_transport(web))
        windowed = asyncio.run(fetcher.fetch_many(
            urls, client_country="kr", via_vpn=True, window=(1, 4)))
        assert [response.url.host for response in windowed] == domains[1:4]

    def test_batched_selection_matches_sequential(self, web, sites) -> None:
        table = build_crux_table(sites)

        def outcome(max_in_flight: int):
            selector = SiteSelector(LangCruxCrawler(_session(web, 0.2)), "ko")
            return selector.select(table.iter_ranked("kr"), quota=6,
                                   max_in_flight=max_in_flight)

        sequential = outcome(1)
        for max_in_flight in (2, 5):
            batched = outcome(max_in_flight)
            assert [s.entry for s in batched.selected] == [s.entry for s in sequential.selected]
            assert [s.visible_native_share for s in batched.selected] == \
                [s.visible_native_share for s in sequential.selected]
            assert batched.candidates_examined == sequential.candidates_examined
            assert batched.rejected_below_threshold == sequential.rejected_below_threshold
            assert batched.rejected_fetch_failure == sequential.rejected_fetch_failure
