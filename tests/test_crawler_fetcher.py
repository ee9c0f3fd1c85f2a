"""Tests for the fetcher and simulated transport (repro.crawler.fetcher).

Both are async; each test drives them from one ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.crawler.fetcher import Fetcher, FetcherConfig, FetchError, SimulatedTransport
from repro.crawler.http import Headers, Request, Response, URL
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator


def _run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def web() -> SyntheticWeb:
    sites = SiteGenerator(get_profile("il"), seed=21).generate_sites(15)
    return SyntheticWeb(sites)


@pytest.fixture(scope="module")
def domains(web) -> list[str]:
    return list(web.domains())


class TestSimulatedTransport:
    def test_successful_fetch(self, web, domains) -> None:
        transport = SimulatedTransport(web)
        response = _run(transport.send(Request(url=URL.parse(f"https://{domains[0]}/"),
                                               client_country="il")))
        assert response.status in (200, 302, 403)
        assert transport.requests_sent == 1

    def test_failure_injection(self, web, domains) -> None:
        transport = SimulatedTransport(web, failure_rate=1.0, rng=random.Random(0))
        response = _run(transport.send(Request(url=URL.parse(f"https://{domains[0]}/"))))
        assert response.status == 503

    def test_unknown_host_is_502(self, web) -> None:
        transport = SimulatedTransport(web)
        response = _run(transport.send(Request(url=URL.parse("https://missing.example/"))))
        assert response.status == 502

    def test_latency_recorded(self, web, domains) -> None:
        transport = SimulatedTransport(web, latency_ms=200.0, rng=random.Random(1))
        response = _run(transport.send(Request(url=URL.parse(f"https://{domains[0]}/"))))
        assert response.elapsed_ms > 0


class _ScriptedTransport:
    """A transport answering from a scripted sequence, repeating the last.

    A :class:`FetchError` in the script is raised instead of returned.
    """

    def __init__(self, responses: list[Response | FetchError]) -> None:
        self.responses = list(responses)
        self.sent: list[Request] = []

    async def send(self, request: Request) -> Response:
        self.sent.append(request)
        answer = self.responses.pop(0) if len(self.responses) > 1 else self.responses[0]
        if isinstance(answer, FetchError):
            raise answer
        return answer


def _resp(url: str, status: int, location: str | None = None) -> Response:
    headers = Headers({"content-type": "text/html"})
    if location:
        headers["location"] = location
    return Response(url=URL.parse(url), status=status, headers=headers, body="<p>x</p>")


class TestFetcherRetries:
    def test_transient_errors_retried(self) -> None:
        transport = _ScriptedTransport([
            _resp("https://a.example/", 503),
            _resp("https://a.example/", 503),
            _resp("https://a.example/", 200),
        ])
        fetcher = Fetcher(transport, FetcherConfig(max_retries=3))
        response = _run(fetcher.fetch("https://a.example/"))
        assert response.ok
        assert fetcher.stats["retries"] == 2

    def test_retries_exhausted_returns_error_response(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 503)])
        fetcher = Fetcher(transport, FetcherConfig(max_retries=2))
        response = _run(fetcher.fetch("https://a.example/"))
        assert response.status == 503
        assert fetcher.stats["failures"] == 1

    def test_fetch_error_retried_then_succeeds(self) -> None:
        transport = _ScriptedTransport([
            FetchError("connection refused"),
            _resp("https://a.example/", 503),
            _resp("https://a.example/", 200),
        ])
        fetcher = Fetcher(transport, FetcherConfig(max_retries=3))
        response = _run(fetcher.fetch("https://a.example/"))
        assert response.ok
        assert fetcher.stats["retries"] == 2
        assert len(transport.sent) == 3

    def test_exhausted_fetch_error_is_reraised(self) -> None:
        transport = _ScriptedTransport([FetchError("connection refused")])
        fetcher = Fetcher(transport, FetcherConfig(max_retries=2))
        with pytest.raises(FetchError, match="connection refused"):
            _run(fetcher.fetch("https://a.example/"))
        assert len(transport.sent) == 3  # max_retries + 1 sends
        assert fetcher.stats["retries"] == 2

    def test_non_retryable_error_not_retried(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 404)])
        fetcher = Fetcher(transport)
        response = _run(fetcher.fetch("https://a.example/"))
        assert response.status == 404
        assert fetcher.stats["retries"] == 0

    def test_user_agent_header_attached(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 200)])
        fetcher = Fetcher(transport)
        _run(fetcher.fetch("https://a.example/"))
        assert "langcruxbot" in transport.sent[0].headers.get("user-agent", "").lower()


class TestFetcherRedirects:
    def test_redirect_followed(self) -> None:
        transport = _ScriptedTransport([
            _resp("https://a.example/", 302, location="/home"),
            _resp("https://a.example/home", 200),
        ])
        fetcher = Fetcher(transport)
        response = _run(fetcher.fetch("https://a.example/"))
        assert response.ok
        assert str(response.url).endswith("/home")
        assert fetcher.stats["redirects"] == 1

    def test_redirect_loop_raises(self) -> None:
        transport = _ScriptedTransport([_resp("https://a.example/", 302, location="/")])
        fetcher = Fetcher(transport, FetcherConfig(max_redirects=3))
        with pytest.raises(FetchError):
            _run(fetcher.fetch("https://a.example/"))

    def test_vantage_forwarded_across_redirects(self) -> None:
        transport = _ScriptedTransport([
            _resp("https://a.example/", 302, location="/home"),
            _resp("https://a.example/home", 200),
        ])
        fetcher = Fetcher(transport)
        _run(fetcher.fetch("https://a.example/", client_country="th", via_vpn=True))
        assert all(request.client_country == "th" for request in transport.sent)
        assert all(request.via_vpn for request in transport.sent)


class TestEndToEndOverSyntheticWeb:
    def test_fetch_homepage_of_every_site(self, web, domains) -> None:
        fetcher = Fetcher(SimulatedTransport(web, rng=random.Random(3)))
        ok = 0
        for domain in domains:
            response = _run(fetcher.fetch(f"https://{domain}/", client_country="il", via_vpn=True))
            if response.ok:
                ok += 1
                assert "<html" in response.body.lower()
        # Only VPN-blocking sites may fail from an in-country VPN vantage.
        blocking = sum(1 for domain in domains if web.site(domain).blocks_vpn)
        assert ok == len(domains) - blocking
