"""Scaling — batched async fetching vs the sequential fetch walk.

The paper's crawl spends most of its wall-clock waiting on the network: each
of the ~120,000 origins costs a round-trip through a VPN exit.  The async
fetch layer (:meth:`repro.crawler.fetcher.Fetcher.fetch_many`) overlaps
those waits by keeping up to ``max_in_flight`` requests in flight.

This harness makes the latency *real*: it wraps the simulated transport so
every send genuinely awaits its drawn latency (scaled down to keep the
benchmark fast), then fetches the same origins sequentially
(``max_in_flight=1``) and batched and reports records-per-second for both.  The batched walk must beat — and in
practice approaches ``max_in_flight`` times — the sequential one, while
returning exactly the same responses; both properties are asserted.

Set ``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to demote the throughput target to a
report-only line (CI does this: shared runners are too noisy for a
wall-clock gate) — response parity is always asserted.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.http import Request, Response
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator, stable_seed

#: Origins fetched per run — enough that scheduling overhead amortises.
ORIGINS = 40

#: Simulated base latency and how much of it is actually slept.  40 origins
#: at ~12ms real sleep each keeps the sequential baseline around half a
#: second.
LATENCY_MS = 120.0
SLEEP_SCALE = 0.1

MAX_IN_FLIGHT = 8

BENCHMARK_SEED = 2025

#: Minimum batched/sequential throughput ratio on a quiet machine.  The
#: theoretical ceiling is MAX_IN_FLIGHT; stay far enough below it that
#: scheduling jitter cannot flake the gate.
TARGET_SPEEDUP = 2.0


class SleepingLatencyTransport:
    """Simulated transport whose drawn latency is genuinely awaited.

    Turns the virtual ``elapsed_ms`` of :class:`SimulatedTransport` into real
    wall-clock (scaled by ``sleep_scale``), which is the workload shape a
    real-HTTP transport would have — and exactly what the async layer is
    meant to overlap.
    """

    def __init__(self, inner: SimulatedTransport, sleep_scale: float = SLEEP_SCALE) -> None:
        self.inner = inner
        self.sleep_scale = sleep_scale

    async def send(self, request: Request) -> Response:
        response = await self.inner.send(request)
        await asyncio.sleep(response.elapsed_ms / 1000.0 * self.sleep_scale)
        return response


def _transport(web: SyntheticWeb) -> SleepingLatencyTransport:
    return SleepingLatencyTransport(SimulatedTransport(
        web, latency_ms=LATENCY_MS,
        rng_factory=lambda host: random.Random(
            stable_seed(BENCHMARK_SEED, "transport", "bd", host))))


def test_batched_fetch_throughput(reporter) -> None:
    sites = SiteGenerator(get_profile("bd"), seed=BENCHMARK_SEED).generate_sites(ORIGINS)
    web = SyntheticWeb(sites)
    urls = [f"https://{site.domain}/" for site in sites]

    def fetch_all(max_in_flight: int) -> tuple[list[Response], float]:
        fetcher = Fetcher(_transport(web))
        started = time.perf_counter()
        responses = asyncio.run(fetcher.fetch_many(
            urls, client_country="bd", via_vpn=True, max_in_flight=max_in_flight))
        return responses, time.perf_counter() - started

    sequential, sequential_s = fetch_all(1)
    batched, batched_s = fetch_all(MAX_IN_FLIGHT)

    sequential_rps = len(urls) / sequential_s
    batched_rps = len(urls) / batched_s
    reporter("Scaling — sequential vs batched async fetch", [
        f"origins: {len(urls)}, real latency ~{LATENCY_MS * SLEEP_SCALE:.0f}ms/request",
        f"sequential: {sequential_s:.2f}s, {sequential_rps:.1f} records/s",
        f"batched x{MAX_IN_FLIGHT}: {batched_s:.2f}s, {batched_rps:.1f} records/s "
        f"(speedup {sequential_s / batched_s:.2f}x)",
        f"target: >= {TARGET_SPEEDUP:.0f}x records/s at {MAX_IN_FLIGHT} in flight",
    ], data={
        "config": {"origins": len(urls), "max_in_flight": MAX_IN_FLIGHT,
                   "latency_ms": LATENCY_MS * SLEEP_SCALE},
        "sequential_rps": sequential_rps,
        "batched_rps": batched_rps,
        "speedup": sequential_s / batched_s,
        "target_speedup": TARGET_SPEEDUP,
    })

    # Determinism: per-host RNG splits make the batched responses identical
    # to the sequential ones, interleaving notwithstanding.
    assert [(r.url.host, r.status, r.body) for r in batched] == \
        [(r.url.host, r.status, r.body) for r in sequential]

    # Batched must never be slower; the stronger multiple only gates quiet
    # machines (see module docstring).
    assert batched_rps >= sequential_rps
    if os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0":
        assert batched_rps >= TARGET_SPEEDUP * sequential_rps, (
            f"batched fetch reached {batched_rps / sequential_rps:.2f}x, "
            f"expected >= {TARGET_SPEEDUP}x")
