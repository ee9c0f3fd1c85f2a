"""Tests for robots.txt serving by synthetic origins and its effect on crawling."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.crawler.crawler import LangCruxCrawler
from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.session import CrawlSession
from repro.crawler.vpn import VPNManager
from repro.webgen.crux import CruxEntry
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator


@pytest.fixture(scope="module")
def sites():
    return SiteGenerator(get_profile("ru"), seed=51).generate_sites(60)


@pytest.fixture(scope="module")
def web(sites):
    return SyntheticWeb(sites)


class TestRobotsServing:
    def test_most_sites_serve_no_robots(self, sites, web) -> None:
        without = [site for site in sites if site.robots_txt is None]
        assert len(without) > len(sites) / 2
        response = web.request(without[0].domain, "/robots.txt", client_country="ru")
        assert response.status == 404

    def test_some_sites_serve_robots(self, sites, web) -> None:
        with_robots = [site for site in sites if site.robots_txt is not None]
        assert with_robots, "expected some sites with robots.txt in a 60-site sample"
        response = web.request(with_robots[0].domain, "/robots.txt", client_country="ru")
        assert response.status == 200
        assert "User-agent" in response.body

    def test_robots_served_before_localization(self, sites, web) -> None:
        site = next(site for site in sites if site.robots_txt is not None and not site.blocks_vpn)
        foreign = web.request(site.domain, "/robots.txt", client_country=None)
        local = web.request(site.domain, "/robots.txt", client_country="ru")
        assert foreign.body == local.body


class TestCrawlerHonoursRobots:
    def _crawler(self, web) -> LangCruxCrawler:
        transport = SimulatedTransport(web, rng=random.Random(3))
        session = CrawlSession(fetcher=Fetcher(transport), vantage=VPNManager().vantage_for("ru"))
        return LangCruxCrawler(session)

    def test_disallow_all_site_yields_no_pages(self, sites, web) -> None:
        blocked = [site for site in sites
                   if site.robots_txt is not None and "Disallow: /\n" in site.robots_txt]
        if not blocked:
            pytest.skip("no disallow-all site in this sample")
        crawler = self._crawler(web)
        record = asyncio.run(crawler.crawl_origin(CruxEntry(blocked[0].domain, 1, "ru"), "ru"))
        assert record.pages == []
        assert not record.succeeded

    def test_partial_disallow_still_allows_homepage(self, sites, web) -> None:
        partial = [site for site in sites
                   if site.robots_txt is not None and "Disallow: /admin/" in site.robots_txt
                   and not site.blocks_vpn]
        if not partial:
            pytest.skip("no partial-disallow site in this sample")
        crawler = self._crawler(web)
        record = asyncio.run(crawler.crawl_origin(CruxEntry(partial[0].domain, 1, "ru"), "ru"))
        assert record.succeeded
