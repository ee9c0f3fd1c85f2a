"""The LangCrUX crawler.

Ties the crawling substrate together: given CrUX entries for a country and a
crawl session bound to that country's VPN exit, the crawler visits each
origin, fetches its homepage (and optionally a bounded number of same-origin
subpages discovered from links), and emits one
:class:`~repro.crawler.records.CrawlRecord` per origin.

The crawler deliberately does *not* interpret page content beyond link
discovery: language validation, accessibility extraction and all analyses
happen downstream on the records, so a crawl can be stored once and
re-analysed many times (the same separation the paper's pipeline uses).

:meth:`LangCruxCrawler.crawl_origin` is ``async`` and runs on the caller's
event loop; it walks one origin's pages in sequence.  Concurrency across
origins lives in the selection walk
(:meth:`~repro.core.site_selection.SiteSelector.evaluate_window`), which
keeps up to ``max_in_flight`` origins in flight.  With a per-host
RNG-split transport (see :class:`~repro.crawler.fetcher.SimulatedTransport`)
every record is identical whatever ``max_in_flight`` is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.crawler.fetcher import FetchError
from repro.crawler.http import URL
from repro.crawler.records import CrawlRecord, PageSnapshot
from repro.crawler.session import CrawlSession
from repro.html.parser import parse_html
from repro.webgen.crux import CruxEntry


@dataclass
class CrawlerConfig:
    """Crawl policy.

    Attributes:
        max_pages_per_site: Upper bound on pages fetched per origin
            (homepage included).
        follow_links: Whether to discover and fetch same-origin subpages.

    Whether robots.txt is honoured is the session's choice
    (:attr:`~repro.crawler.session.CrawlSession.respect_robots`).
    """

    max_pages_per_site: int = 1
    follow_links: bool = False


class LangCruxCrawler:
    """Crawls the origins of one country through one session."""

    def __init__(self, session: CrawlSession, config: CrawlerConfig | None = None) -> None:
        self.session = session
        self.config = config or CrawlerConfig()

    # -- single origin ---------------------------------------------------------

    async def _snapshot(self, url: URL) -> PageSnapshot:
        try:
            response = await self.session.fetch(url)
        except FetchError as error:
            return PageSnapshot(url=str(url), final_url=str(url), status=error.status or 0,
                                error=str(error))
        return PageSnapshot(
            url=str(url),
            final_url=str(response.url),
            status=response.status,
            html=response.body if response.ok and response.is_html else "",
            served_variant=response.served_variant,
            elapsed_ms=response.elapsed_ms,
            error=None if response.ok else f"HTTP {response.status}",
        )

    def _discover_links(self, snapshot: PageSnapshot, origin: URL,
                        seen: set[str]) -> list[URL]:
        """Same-origin links on a fetched page not yet in ``seen``, in
        document order; each one returned is added to ``seen``."""
        if not snapshot.html:
            return []
        document = parse_html(snapshot.html, url=snapshot.final_url)
        links: list[URL] = []
        for anchor in document.find_all("a"):
            href = anchor.get("href")
            if not href:
                continue
            try:
                target = URL.join(origin, href)
            except ValueError:
                continue
            if target.host != origin.host:
                continue
            key = str(target)
            if key in seen:
                continue
            seen.add(key)
            links.append(target)
        return links

    async def crawl_origin(self, entry: CruxEntry, language_code: str) -> CrawlRecord:
        """Crawl one origin and return its record.

        Pages of one origin are fetched strictly in sequence, homepage
        first, then discovered links in the order they were found (each
        URL at most once); concurrency lives one level up, in the
        selection walk, where independent origins overlap.
        """
        record = CrawlRecord(
            domain=entry.origin,
            country_code=entry.country_code,
            language_code=language_code,
            rank=entry.rank,
            vantage_country=self.session.vantage.country_code or "",
            via_vpn=self.session.vantage.via_vpn,
        )
        origin = URL.parse(f"https://{entry.origin}/")
        queue = deque([origin])
        seen = {str(origin)}
        while queue and len(record.pages) < self.config.max_pages_per_site:
            url = queue.popleft()
            if not await self.session.allowed(url):
                continue
            snapshot = await self._snapshot(url)
            record.pages.append(snapshot)
            if not self.config.follow_links or not snapshot.ok:
                continue
            queue.extend(self._discover_links(snapshot, origin, seen))
        return record
