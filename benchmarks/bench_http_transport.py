"""Scaling — the real-HTTP transport against a live loopback site server.

The production transport stack replaces the simulated web with genuine
sockets; this harness measures what that costs and what the async layers
buy back.  A :class:`~repro.webgen.server.LocalSiteServer` serves the
synthetic web over loopback HTTP and the same origins are fetched three
ways through :class:`~repro.crawler.transport.HttpAsyncTransport`:

* sequentially (one request at a time over the pooled connections);
* batched, with ``MAX_IN_FLIGHT`` requests overlapped on one event loop;
* batched again through a warm :class:`~repro.crawler.transport.CachingTransport`,
  which must answer with **zero** network requests.

Responses must be byte-identical to the in-memory dispatch in every mode;
the batched walk must beat the sequential one.  Set
``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to demote the throughput target to a
report-only line (CI does this; parity is always asserted).
"""

from __future__ import annotations

import asyncio
import os
import time

from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.metrics import TransportMetrics
from repro.crawler.transport import HttpAsyncTransport, build_transport_stack
from repro.webgen.profiles import get_profile
from repro.webgen.server import LocalSiteServer, SyntheticWeb
from repro.webgen.sitegen import SiteGenerator

ORIGINS = 40
MAX_IN_FLIGHT = 8
BENCHMARK_SEED = 2025

#: Loopback latency is microseconds, so overlap buys less than it would
#: over a real network; the batched walk must still never lose.
TARGET_SPEEDUP = 1.0


def _fetch_all(fetcher: Fetcher, urls: list[str], max_in_flight: int):
    return asyncio.run(fetcher.fetch_many(urls, client_country="bd",
                                          via_vpn=True,
                                          max_in_flight=max_in_flight))


def test_http_transport_throughput(reporter, tmp_path) -> None:
    sites = SiteGenerator(get_profile("bd"),
                          seed=BENCHMARK_SEED).generate_sites(ORIGINS)
    web = SyntheticWeb(sites)
    urls = [f"https://{site.domain}/" for site in sites]
    # The parity reference: the simulated fetch walk (same redirect policy).
    simulated = _fetch_all(Fetcher(SimulatedTransport(web)), urls, max_in_flight=1)
    reference = {site.domain: response for site, response in zip(sites, simulated)}

    with LocalSiteServer(web) as server:
        metrics = TransportMetrics()
        transport = HttpAsyncTransport(gateway=server.gateway, metrics=metrics)
        fetcher = Fetcher(transport)
        try:
            started = time.perf_counter()
            sequential = _fetch_all(fetcher, urls, max_in_flight=1)
            sequential_s = time.perf_counter() - started

            started = time.perf_counter()
            batched = _fetch_all(fetcher, urls, max_in_flight=MAX_IN_FLIGHT)
            batched_s = time.perf_counter() - started
        finally:
            transport.close()

        stack = build_transport_stack(
            HttpAsyncTransport(gateway=server.gateway), cache_dir=tmp_path)
        try:
            cached_fetcher = Fetcher(stack.transport)
            _fetch_all(cached_fetcher, urls, MAX_IN_FLIGHT)  # warm the cache
            network_before = stack.metrics.network_requests
            started = time.perf_counter()
            replayed = _fetch_all(cached_fetcher, urls, MAX_IN_FLIGHT)
            cached_s = time.perf_counter() - started
            warm_network = stack.metrics.network_requests - network_before
        finally:
            stack.close()

    sequential_rps = len(urls) / sequential_s
    batched_rps = len(urls) / batched_s
    cached_rps = len(urls) / cached_s
    reporter("Scaling — real-HTTP transport over a live loopback server", [
        f"origins: {len(urls)}, gateway: loopback, pooled connections "
        f"(opened {metrics.connections_opened}, reused {metrics.connections_reused})",
        f"sequential: {sequential_s:.2f}s, {sequential_rps:.1f} records/s",
        f"batched x{MAX_IN_FLIGHT}: {batched_s:.2f}s, {batched_rps:.1f} records/s "
        f"(speedup {sequential_s / batched_s:.2f}x)",
        f"warm cache: {cached_s:.2f}s, {cached_rps:.1f} records/s "
        f"({warm_network} network requests)",
    ], data={
        "config": {"origins": len(urls), "max_in_flight": MAX_IN_FLIGHT},
        "sequential_rps": sequential_rps,
        "batched_rps": batched_rps,
        "cached_rps": cached_rps,
        "speedup": sequential_s / batched_s,
        "warm_cache_network_requests": warm_network,
        "target_speedup": TARGET_SPEEDUP,
    })

    # Parity: every mode returns exactly what the in-memory dispatch serves.
    for responses in (sequential, batched, replayed):
        for response in responses:
            expected = reference[response.url.host]
            assert (response.status, response.body) == \
                (expected.status, expected.body), response.url.host

    # The warm cache must absorb the entire batch.
    assert warm_network == 0

    if os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0":
        assert batched_rps >= TARGET_SPEEDUP * sequential_rps, (
            f"batched HTTP fetch reached {batched_rps / sequential_rps:.2f}x, "
            f"expected >= {TARGET_SPEEDUP}x")
