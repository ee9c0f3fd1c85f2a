"""Crawling substrate.

The paper crawls 120,000 sites with Puppeteer, routing traffic through
country-specific VPN exits.  This subpackage implements the crawling side of
that methodology against the synthetic web:

* :mod:`repro.crawler.http` — URL handling, requests, responses and headers.
* :mod:`repro.crawler.vpn` — VPN providers, vantage points and per-country
  exit selection (the ProtonVPN / Hotspot Shield combination of the paper).
* :mod:`repro.crawler.robots` — robots.txt parsing.
* :mod:`repro.crawler.fetcher` — the async transport protocol, the
  simulated transport over :class:`repro.webgen.server.SyntheticWeb`, and
  the fetcher: the crawl's one retry loop, redirect handling and batched
  concurrent fetching.
* :mod:`repro.crawler.transport` — the production transport stack: real
  HTTP, per-host politeness and the on-disk crawl cache.
* :mod:`repro.crawler.session` — a crawl session bound to a country
  vantage; the crawl's one robots.txt check.
* :mod:`repro.crawler.records` — crawl records (page snapshots).
* :mod:`repro.crawler.crawler` — the LangCrUX crawler tying it all together.

The fetch path is ``async`` from the transport up to the crawler; callers
enter the event loop once per unit of work (see
:mod:`repro.core.site_selection`), and ``max_in_flight=1`` is the
sequential crawl.
"""

from repro.crawler.http import URL, Request, Response, Headers
from repro.crawler.vpn import VantagePoint, VPNProvider, VPNManager, DEFAULT_PROVIDERS
from repro.crawler.fetcher import AsyncTransport, Fetcher, FetchError, SimulatedTransport
from repro.crawler.records import PageSnapshot, CrawlRecord
from repro.crawler.crawler import LangCruxCrawler, CrawlerConfig

__all__ = [
    "URL",
    "Request",
    "Response",
    "Headers",
    "VantagePoint",
    "VPNProvider",
    "VPNManager",
    "DEFAULT_PROVIDERS",
    "AsyncTransport",
    "Fetcher",
    "FetchError",
    "SimulatedTransport",
    "PageSnapshot",
    "CrawlRecord",
    "LangCruxCrawler",
    "CrawlerConfig",
]
