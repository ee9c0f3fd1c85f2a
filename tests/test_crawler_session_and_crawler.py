"""Tests for crawl sessions and the LangCrUX crawler (both async)."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.crawler.crawler import CrawlerConfig, LangCruxCrawler
from repro.crawler.fetcher import Fetcher, SimulatedTransport, gather_bounded
from repro.crawler.http import Headers, Request, Response
from repro.crawler.session import CrawlSession
from repro.crawler.vpn import VantagePoint, VPNManager
from repro.webgen.crux import CruxEntry, build_crux_table
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator


@pytest.fixture(scope="module")
def sites():
    return SiteGenerator(get_profile("kr"), seed=31).generate_sites(20)


@pytest.fixture(scope="module")
def web(sites):
    return SyntheticWeb(sites)


def _session(web, country: str | None = "kr", failure_rate: float = 0.0) -> CrawlSession:
    transport = SimulatedTransport(web, failure_rate=failure_rate, rng=random.Random(1))
    vantage = VPNManager().vantage_for(country) if country else VantagePoint.cloud()
    return CrawlSession(fetcher=Fetcher(transport), vantage=vantage)


class _LinkedPages:
    """A transport serving fixed HTML per path of one host (404 elsewhere)."""

    def __init__(self, pages: dict[str, str]) -> None:
        self.pages = pages
        self.sent: list[str] = []

    async def send(self, request: Request) -> Response:
        self.sent.append(request.url.path)
        html = self.pages.get(request.url.path)
        if html is None:
            return Response(url=request.url, status=404)
        return Response(url=request.url, status=200,
                        headers=Headers({"content-type": "text/html"}),
                        body=f"<html><body>{html}</body></html>")


def _links(*hrefs: str) -> str:
    return "".join(f'<a href="{href}">{href}</a>' for href in hrefs)


class TestCrawlSession:
    def test_robots_allowed_by_default(self, web, sites) -> None:
        session = _session(web)
        # The synthetic origins serve no robots.txt (404), which allows all.
        assert asyncio.run(session.allowed(f"https://{sites[0].domain}/"))

    def test_robots_cache_reused(self, web, sites) -> None:
        session = _session(web)
        url = f"https://{sites[0].domain}/"
        asyncio.run(session.allowed(url))
        requests_after_first = session.fetcher.stats["requests"]
        asyncio.run(session.allowed(url))
        assert session.fetcher.stats["requests"] == requests_after_first

    def test_respect_robots_false_skips_fetch(self, web, sites) -> None:
        session = _session(web)
        session.respect_robots = False
        assert asyncio.run(session.allowed(f"https://{sites[0].domain}/"))
        assert session.fetcher.stats["requests"] == 0


class TestLangCruxCrawler:
    def test_crawl_origin_records_homepage(self, web, sites) -> None:
        site = next(s for s in sites if not s.blocks_vpn)
        crawler = LangCruxCrawler(_session(web))
        record = asyncio.run(crawler.crawl_origin(CruxEntry(site.domain, 123, "kr"), "ko"))
        assert record.domain == site.domain
        assert record.rank == 123
        assert record.vantage_country == "kr"
        assert record.succeeded
        assert record.pages[0].html

    def test_blocked_site_yields_failed_record(self, web, sites) -> None:
        blocked = [s for s in sites if s.blocks_vpn]
        if not blocked:
            pytest.skip("no VPN-blocking site in this sample")
        crawler = LangCruxCrawler(_session(web))
        record = asyncio.run(crawler.crawl_origin(CruxEntry(blocked[0].domain, 5, "kr"), "ko"))
        assert not record.succeeded
        assert record.pages[0].status == 403

    def test_follow_links_fetches_subpages(self, web, sites) -> None:
        site = next(s for s in sites if len(s.page_paths) > 1 and not s.blocks_vpn)
        crawler = LangCruxCrawler(
            _session(web),
            CrawlerConfig(max_pages_per_site=3, follow_links=True),
        )
        record = asyncio.run(crawler.crawl_origin(CruxEntry(site.domain, 7, "kr"), "ko"))
        assert len(record.pages) > 1
        hosts = {page.url.split("/")[2] for page in record.pages}
        assert hosts == {site.domain}

    def test_multi_page_crawl_follows_document_order_once(self) -> None:
        # The homepage links back to itself, repeats a link and links off
        # the origin; /a links to pages already queued and to a new one.
        pages = {
            "/": _links("/", "/a", "https://other.example/x", "/b", "/a", "/c"),
            "/a": _links("/", "/b", "/d"),
            "/b": _links("/c", "/e"),
            "/c": _links("/a"),
            "/d": "",
        }
        transport = _LinkedPages(pages)
        session = CrawlSession(fetcher=Fetcher(transport), vantage=VantagePoint.cloud())
        crawler = LangCruxCrawler(session, CrawlerConfig(max_pages_per_site=4,
                                                         follow_links=True))
        record = asyncio.run(crawler.crawl_origin(CruxEntry("site.example", 1, "kr"), "ko"))
        assert [page.url for page in record.pages] == [
            "https://site.example/", "https://site.example/a",
            "https://site.example/b", "https://site.example/c"]
        assert transport.sent == ["/robots.txt", "/", "/a", "/b", "/c"]

    def test_multi_page_crawls_of_synthetic_sites_never_repeat_a_page(self, web, sites) -> None:
        crawler = LangCruxCrawler(_session(web), CrawlerConfig(max_pages_per_site=4,
                                                               follow_links=True))
        crawled = 0
        for site in sites:
            record = asyncio.run(crawler.crawl_origin(CruxEntry(site.domain, 1, "kr"), "ko"))
            urls = [page.url for page in record.pages]
            if not urls:
                continue  # robots.txt disallows the whole site
            assert urls[0] == f"https://{site.domain}/"
            assert len(urls) == len(set(urls))
            crawled += len(urls) > 1
        assert crawled, "expected some synthetic site to have subpages"

    def test_crawl_many_yields_one_record_per_entry(self, web, sites) -> None:
        table = build_crux_table(sites)
        crawler = LangCruxCrawler(_session(web))
        seen: list[str] = []
        records = asyncio.run(gather_bounded(lambda entry: crawler.crawl_origin(entry, "ko"),
                                             table.top("kr", 5), max_in_flight=1))
        assert len(records) == 5
        for record in records:
            assert record.domain not in seen
            seen.append(record.domain)

    def test_cloud_vantage_recorded(self, web, sites) -> None:
        site = next(s for s in sites if not s.blocks_vpn)
        crawler = LangCruxCrawler(_session(web, country=None))
        record = asyncio.run(crawler.crawl_origin(CruxEntry(site.domain, 9, "kr"), "ko"))
        assert record.vantage_country == ""
        assert not record.via_vpn
