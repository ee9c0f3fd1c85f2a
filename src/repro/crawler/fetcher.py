"""Fetching pages through an async transport.

The :class:`Fetcher` owns the behaviours a polite, robust crawler needs on
top of a raw transport: redirect following (with a hop limit), retrying
transient failures, and consistent error reporting via :class:`FetchError`.
It is the crawl's only retry loop, whatever the transport: a retryable
status or a :class:`FetchError` raised by the transport is retried at once,
up to ``max_retries`` times.  The transport itself is a tiny protocol —
``async send(Request) -> Response`` (:class:`AsyncTransport`) — with these
implementations:

* :class:`SimulatedTransport` over :class:`repro.webgen.server.SyntheticWeb`,
  used throughout the reproduction (it also injects configurable transient
  failures so the retry path is genuinely exercised).  Its latency is
  virtual — recorded on the response, never slept — so its ``send`` never
  awaits anything;
* the production stack in :mod:`repro.crawler.transport` —
  ``HttpAsyncTransport`` (real sockets, connection pooling) composed with
  politeness and on-disk crawl-cache layers;
* anything else a downstream user plugs in.

There is one fetch path.  Callers enter the event loop once per unit of
work (a country shard or a selection window, see
:mod:`repro.core.site_selection`) and everything below is ``async``;
:meth:`Fetcher.fetch_many` keeps up to ``max_in_flight`` requests in flight
and returns responses in input order, and ``max_in_flight=1`` is the
sequential walk.

Determinism across interleavings comes from *per-host* RNG splitting: when
:class:`SimulatedTransport` is given an ``rng_factory``, every host draws its
latency and failure-injection randomness from its own stream, so the outcome
of fetching one origin no longer depends on which other origins were fetched
before (or concurrently with) it.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterable, Protocol, Sequence, TypeVar

from repro.crawler.http import Headers, Request, Response, RETRYABLE_STATUS_CODES, URL
from repro.webgen.server import SyntheticWeb

T = TypeVar("T")
R = TypeVar("R")


class FetchError(Exception):
    """Raised when a URL cannot be fetched after retries/redirects."""

    def __init__(self, message: str, *, url: URL | None = None, status: int | None = None) -> None:
        super().__init__(message)
        self.url = url
        self.status = status


class AsyncTransport(Protocol):
    """Minimal transport interface the fetcher depends on."""

    async def send(self, request: Request) -> Response:  # pragma: no cover - protocol
        ...


class SimulatedTransport:
    """Transport over the synthetic web.

    Args:
        web: The synthetic web to dispatch requests to.
        failure_rate: Probability that a request fails transiently with a 503
            before reaching the origin, exercising the fetcher's retry logic.
        latency_ms: Base simulated latency recorded on responses.
        rng: Shared random source for failure injection (seed for
            determinism).  With a shared RNG the outcome of a request depends
            on how many requests preceded it, so only strictly sequential
            fetch orders are reproducible.
        rng_factory: Per-host RNG splitter — called once per host, the
            returned generator feeds every draw for that host's requests.
            This makes each origin's fetch outcome independent of the
            interleaving with other origins, which is what lets batched
            and sequential crawls produce identical records.  Takes
            precedence over ``rng``.
    """

    def __init__(self, web: SyntheticWeb, *, failure_rate: float = 0.0,
                 latency_ms: float = 120.0, rng: random.Random | None = None,
                 rng_factory: Callable[[str], random.Random] | None = None) -> None:
        self.web = web
        self.failure_rate = failure_rate
        self.latency_ms = latency_ms
        self._rng = rng or random.Random(0)
        self._rng_factory = rng_factory
        self._host_rngs: dict[str, random.Random] = {}
        self._lock = threading.Lock()
        self.requests_sent = 0

    def _rng_for(self, host: str) -> random.Random:
        if self._rng_factory is None:
            return self._rng
        rng = self._host_rngs.get(host)
        if rng is None:
            rng = self._host_rngs[host] = self._rng_factory(host)
        return rng

    async def send(self, request: Request) -> Response:
        # Never awaits: the whole send runs in one step of the event loop.
        # The lock keeps the counter and each host's draw sequence coherent
        # when callers on several threads share one transport, each on its
        # own loop; per-host streams make the ordering across hosts irrelevant.
        with self._lock:
            self.requests_sent += 1
            rng = self._rng_for(request.url.host)
            elapsed = self.latency_ms * rng.uniform(0.5, 2.0)
            failed = bool(self.failure_rate) and rng.random() < self.failure_rate
        if failed:
            return Response(url=request.url, status=503, headers=Headers({"retry-after": "1"}),
                            body="transient upstream error", elapsed_ms=elapsed)
        origin_response = self.web.request(
            request.url.host,
            request.url.path,
            client_country=request.client_country,
            via_vpn=request.via_vpn,
        )
        return Response(
            url=request.url,
            status=origin_response.status,
            headers=Headers(dict(origin_response.headers)),
            body=origin_response.body,
            elapsed_ms=elapsed,
            served_variant=origin_response.served_variant,
        )


@dataclass
class FetcherConfig:
    """Retry/redirect policy of the fetcher.

    A retryable status or a transport :class:`FetchError` is retried at
    once, with no delay, up to ``max_retries`` times; ``max_redirects``
    bounds a redirect chain.
    """

    max_redirects: int = 5
    max_retries: int = 3
    user_agent: str = "LangCruxBot/1.0 (+https://example.org/langcrux)"


class Fetcher:
    """Fetches URLs through an async transport with retries and redirects.

    ``stats["retries"]`` counts every retried send, whether a retryable
    status or a transport :class:`FetchError` caused it.
    :meth:`fetch_many` issues a bounded number of concurrent requests.

    Args:
        transport: The async transport to send through.
        config: Retry/redirect policy.
    """

    def __init__(self, transport: AsyncTransport, config: FetcherConfig | None = None) -> None:
        self.transport = transport
        self.config = config or FetcherConfig()
        self.stats = {"requests": 0, "retries": 0, "redirects": 0, "failures": 0}

    async def _send_once(self, request: Request) -> Response:
        self.stats["requests"] += 1
        headers = Headers(request.headers.as_dict())
        headers["user-agent"] = self.config.user_agent
        return await self.transport.send(Request(url=request.url, method=request.method,
                                                 headers=headers,
                                                 client_country=request.client_country,
                                                 via_vpn=request.via_vpn))

    async def _send_with_retries(self, request: Request) -> Response:
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self.stats["retries"] += 1
            try:
                response = await self._send_once(request)
            except FetchError:
                if attempt == self.config.max_retries:
                    raise
                continue
            if response.status not in RETRYABLE_STATUS_CODES:
                break
        return response

    async def fetch(self, url: URL | str, *, client_country: str | None = None,
                    via_vpn: bool = False) -> Response:
        """Fetch ``url``, following redirects and retrying transient errors.

        Returns the final response, which may still be an error response
        (e.g. 403 from a VPN-blocking origin or 404); the caller decides how
        to treat non-retryable failures.

        Raises:
            FetchError: When a redirect loop/chain exceeds the hop limit, a
                redirect has no usable target, or the transport raised on
                every attempt.
        """
        parsed = url if isinstance(url, URL) else URL.parse(url)
        request = Request(url=parsed, client_country=client_country, via_vpn=via_vpn)
        response = await self._send_with_retries(request)
        hops = 0
        while response.is_redirect:
            hops += 1
            if hops > self.config.max_redirects:
                self.stats["failures"] += 1
                raise FetchError(f"too many redirects fetching {parsed}", url=parsed,
                                 status=response.status)
            target = response.redirect_target()
            if target is None:
                self.stats["failures"] += 1
                raise FetchError(f"redirect without usable location from {response.url}",
                                 url=response.url, status=response.status)
            self.stats["redirects"] += 1
            request = request.with_url(target)
            response = await self._send_with_retries(request)
        if not response.ok:
            self.stats["failures"] += 1
        return response

    async def fetch_many(self, urls: Sequence[URL | str] | Iterable[URL | str], *,
                         client_country: str | None = None, via_vpn: bool = False,
                         max_in_flight: int = 8, return_exceptions: bool = False,
                         window: tuple[int, int] | None = None) -> list[Response]:
        """Fetch ``urls`` with at most ``max_in_flight`` requests in flight.

        Responses come back in input order regardless of completion order.
        With ``return_exceptions`` a failed fetch yields its
        :class:`FetchError` in place of a response instead of aborting the
        whole batch.  ``window`` restricts the batch to the ``[start, stop)``
        slice of ``urls`` (a sub-shard window), returning only that slice's
        responses.
        """
        return await gather_bounded(
            lambda url: self.fetch(url, client_country=client_country, via_vpn=via_vpn),
            urls, max_in_flight=max_in_flight, window=window,
            return_exceptions=return_exceptions)


async def gather_bounded(function: Callable[[T], Awaitable[R]], items: Iterable[T], *,
                         max_in_flight: int, window: tuple[int, int] | None = None,
                         return_exceptions: bool = False) -> list[R]:
    """Await ``function(item)`` for every item, at most ``max_in_flight`` at once.

    Results come back in item order regardless of completion order.
    ``window`` restricts the batch to the ``[start, stop)`` slice of
    ``items``; ``return_exceptions`` is :func:`asyncio.gather`'s.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
    if window is not None:
        start, stop = window
        if start < 0 or stop < start:
            raise ValueError(f"window must satisfy 0 <= start <= stop, got {window}")
        items = itertools.islice(items, start, stop)
    semaphore = asyncio.Semaphore(max_in_flight)

    async def bounded(item: T) -> R:
        async with semaphore:
            return await function(item)

    return list(await asyncio.gather(*(bounded(item) for item in items),
                                     return_exceptions=return_exceptions))
