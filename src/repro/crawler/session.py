"""Crawl sessions bound to a vantage point.

A :class:`CrawlSession` packages a fetcher together with the vantage point
(VPN exit) it crawls from, plus robots handling and a virtual clock.  The
LangCrUX crawler creates one session per country, mirroring the paper's
per-country VPN configuration.  :meth:`CrawlSession.allowed` is the crawl's
only robots.txt check: each host's robots.txt is fetched once per session
through the same fetcher, and :attr:`CrawlSession.respect_robots` is the
only switch for it.

Both fetch methods, :meth:`CrawlSession.fetch` and
:meth:`CrawlSession.allowed`, are ``async`` and run on the caller's event
loop.

The session's :class:`~repro.crawler.fetcher.Fetcher` sends through either
the simulated web directly or an assembled
:class:`~repro.crawler.transport.TransportStack` (HTTP, crawl cache,
politeness); :meth:`CrawlSession.close` releases the stack's pooled
connections and cache handles when one is attached.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.crawler.fetcher import Fetcher, FetchError
from repro.crawler.http import Response, URL
from repro.crawler.robots import RobotsPolicy, parse_robots_txt
from repro.crawler.vpn import VantagePoint


class VirtualClock:
    """A simulated clock advanced by recorded latencies instead of sleeping.

    Advancing is thread-safe so callers on several threads sharing one
    session can account latencies without racing the counter.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += seconds

    @property
    def now(self) -> float:
        return self._now


@dataclass
class CrawlSession:
    """A fetcher bound to a vantage point, with robots caching.

    Attributes:
        fetcher: The underlying fetcher.
        vantage: The VPN exit (or cloud vantage) this session crawls from.
        clock: The session's virtual clock, advanced by response latencies.
        respect_robots: Whether to consult robots.txt before page fetches.
        transport_stack: The stack the fetcher sends through, if any, kept
            so :meth:`close` can release its resources (pooled connections,
            cache manifests).
    """

    fetcher: Fetcher
    vantage: VantagePoint
    clock: VirtualClock = field(default_factory=VirtualClock)
    respect_robots: bool = True
    transport_stack: object | None = None
    _robots_cache: dict[str, RobotsPolicy] = field(default_factory=dict)

    def close(self) -> None:
        """Release the attached transport stack's resources (idempotent)."""
        stack = self.transport_stack
        if stack is not None and hasattr(stack, "close"):
            stack.close()

    # -- robots ----------------------------------------------------------------

    async def _robots_for(self, url: URL) -> RobotsPolicy:
        # One candidate per origin means concurrent tasks touch distinct
        # hosts, so a per-host cache entry is filled by exactly one task.
        if url.host in self._robots_cache:
            return self._robots_cache[url.host]
        robots_url = url.with_path("/robots.txt")
        try:
            response = await self.fetcher.fetch(robots_url,
                                                client_country=self.vantage.country_code,
                                                via_vpn=self.vantage.via_vpn)
            policy = parse_robots_txt(response.body) \
                if response.ok and response.body else RobotsPolicy.allow_all()
        except FetchError:
            policy = RobotsPolicy.allow_all()
        self._robots_cache[url.host] = policy
        return policy

    async def allowed(self, url: URL | str) -> bool:
        """Whether robots rules allow fetching ``url`` from this session."""
        if not self.respect_robots:
            return True
        parsed = url if isinstance(url, URL) else URL.parse(url)
        policy = await self._robots_for(parsed)
        return policy.can_fetch(self.fetcher.config.user_agent, parsed.path)

    # -- fetch -------------------------------------------------------------------

    async def fetch(self, url: URL | str) -> Response:
        """Fetch ``url`` from this session's vantage, advancing the clock."""
        response = await self.fetcher.fetch(url,
                                            client_country=self.vantage.country_code,
                                            via_vpn=self.vantage.via_vpn)
        self.clock.advance(response.elapsed_ms / 1000.0)
        return response
