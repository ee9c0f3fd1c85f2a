"""The benchmark's four workloads, each driving the program's public entry points.

* ``build-cold`` -- ``langcrux build`` defaults: serial executor, simulated
  transport, no crawl cache, ``max_in_flight=1``.  One timed unit is one
  single-country ``LangCrUXPipeline.run(stream_to=...)``, countries taken
  round-robin.  Synthetic page generation and HTML parsing dominate.
* ``build-warm`` -- the same units replaying a crawl cache that set-up
  filled: zero network requests and zero cache stores per unit, so page
  generation drops out and cache reads plus the sync transport facade come
  in.  A webgen gain must leave this workload flat.
* ``crawl-http`` -- the same units over real loopback sockets to an
  in-process ``LocalSiteServer``, with a fresh crawl cache per unit: the only
  workload that uses the socket client and server and writes the cache.
* ``api-mixed`` -- one closed-loop keep-alive client against an
  ``AnalyticsServer`` over the 12x30 dataset of the same seed, drawing a
  seeded Zipf mix over ~600 distinct URLs (more than the 256-entry response
  cache holds, so both hits and misses occur).

Every timed unit is bracketed by host-ruler reads (see :mod:`ruler`), and
every timed figure is reported normalized to reference host speed with its
raw value beside it.  Every unit's output is checked; a failed check counts
in ``failed`` and is never dropped.
"""

from __future__ import annotations

import bisect
import gc
import http.client
import itertools
import json
import random
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from ruler import HostRuler, UnitClock
from tracing import Tracer, self_times

from repro.api import aggregates as api_aggregates
from repro.api import server as api_server
from repro.audit.engine import AuditEngine
from repro.core import dataset as core_dataset
from repro.core import pipeline as core_pipeline
from repro.core import site_selection
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, build_web_for_config
from repro.crawler import crawler as crawler_module
from repro.crawler.fetcher import Fetcher
from repro.crawler.transport import CachingTransport, HttpAsyncTransport
from repro.html.dom import Document
from repro.langid.detector import ScriptDetector
from repro.langid.languages import langcrux_country_codes
from repro.webgen import server as webgen_server
from repro.webgen.pagegen import PageGenerator

COUNTRIES: tuple[str, ...] = langcrux_country_codes()
SITES_PER_COUNTRY = 30

#: Tail percentile per workload: the highest round percentile that leaves
#: at least ten samples beyond it (a build run times ~85 units; an API
#: batch holds 1000 requests).
BUILD_TAIL_PCT = 80.0
API_TAIL_PCT = 99.0

#: Requests per API timing batch (one ruler read per batch; p99 leaves ten
#: samples beyond it; traced figures are per batch) and untimed warm-up
#: requests.
API_BATCH = 1000
API_WARMUP = 600
#: Zipf exponent of the URL popularity and the response cache size
#: (``AnalyticsServer``'s default).
API_ZIPF_S = 0.9
API_CACHE_SIZE = 256
#: Set-up repetitions of the API service load + server start.
API_SETUP_REPS = 3

#: Layers whose spans enclose server-thread work done on their behalf.
CLIENT_LAYERS = ("crawler.http",)

#: Every per-layer metric, with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "webgen.busy_s": "s", "webgen.calls": "count",
    "webgen.server.busy_s": "s",
    "crawler.fetch.busy_s": "s", "crawler.fetch.calls": "count",
    "crawler.fetch.retries": "count",
    "crawler.cache.busy_s": "s", "crawler.cache.hits": "count",
    "crawler.cache.stores": "count",
    "crawler.http.busy_s": "s",
    "html.parse.busy_s": "s", "html.parse.calls": "count", "html.parse.mib": "MiB",
    "html.index.busy_s": "s",
    "langid.busy_s": "s", "langid.calls": "count",
    "core.extraction.busy_s": "s", "audit.busy_s": "s",
    "core.selection.busy_s": "s", "core.selection.accept_ratio": "ratio",
    "core.dataset.serialize_busy_s": "s", "core.dataset.write_busy_s": "s",
    "core.dataset.mib": "MiB",
    "api.http.busy_s": "s", "api.service.busy_s": "s", "api.metrics.busy_s": "s",
    "api.aggregates.busy_s": "s", "api.aggregates.calls": "count",
    "api.cache.hit_ratio": "ratio", "api.cache.evictions": "count",
    "unattributed.busy_s": "s", "host.speed_factor": "ratio", "host.raw_s": "s",
    "trace.overhead_pct": "%",
}

MIB = 1024.0 * 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end name -> (normalized, raw, unit); raw is None when the
    #: metric is not a time.
    end_to_end: dict[str, tuple[float, float | None, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Raw (not normalized) values of the per-layer busy times.
    per_layer_raw: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record ``problem`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing layout ------------------------------------------------------------


def _parse_bytes(tracer: Tracer, args: tuple, result, before) -> None:
    tracer.count("html.parse.bytes", len(args[0].encode("utf-8")))


def _fetch_retries(tracer: Tracer, args: tuple, result, before) -> None:
    tracer.count("crawler.fetch.retries", args[0].stats["retries"] - before)


def build_tracer() -> Tracer:
    """Wrappers for the build layers, at the names the pipeline looks up."""
    tracer = Tracer()
    tracer.wrap(PageGenerator, "generate_html", "webgen", counter="webgen.calls")
    tracer.wrap(webgen_server.SyntheticWeb, "request", "webgen")
    tracer.wrap(webgen_server._SiteRequestHandler, "do_GET", "webgen.server")
    tracer.wrap(Fetcher, "fetch", "crawler.fetch", counter="crawler.fetch.calls",
                snapshot=lambda args: args[0].stats["retries"], observe=_fetch_retries)
    tracer.wrap(CachingTransport, "send", "crawler.cache")
    tracer.wrap(HttpAsyncTransport, "send", "crawler.http")
    for module in (site_selection, core_pipeline, crawler_module):
        tracer.wrap(module, "parse_html", "html.parse", counter="html.parse.calls",
                    observe=_parse_bytes)
    tracer.wrap(Document, "index", "html.index")
    tracer.wrap(ScriptDetector, "share", "langid", counter="langid.calls")
    tracer.wrap(core_pipeline, "extract_page", "core.extraction")
    tracer.wrap(core_pipeline, "merge_extractions", "core.extraction")
    tracer.wrap(AuditEngine, "audit_document", "audit")
    tracer.wrap(site_selection.SiteSelector, "evaluate", "core.selection")
    tracer.wrap(core_dataset.SiteRecord, "to_dict", "core.dataset.serialize")
    for name in ("begin_section", "write", "end_section", "close"):
        tracer.wrap(core_dataset.StreamingDatasetWriter, name, "core.dataset.write")
    return tracer


def api_tracer() -> Tracer:
    """Wrappers for the serving layers, at the names the server looks up."""
    tracer = Tracer()
    tracer.wrap(api_server._ApiRequestHandler, "do_GET", "api.http")
    tracer.wrap(api_server.AnalyticsService, "handle", "api.service")
    tracer.wrap(api_server.AnalyticsService, "observe_request", "api.metrics")
    for name in ("analyze_payload", "mismatch_payload", "kizuki_payload",
                 "explorer_payload", "country_payload", "sites_payload",
                 "site_payload"):
        tracer.wrap(api_aggregates.DatasetAggregates, name, "api.aggregates")
    tracer.wrap(api_server, "render_json", "api.aggregates",
                counter="api.aggregates.calls")
    return tracer


#: Span layer -> per-layer busy metric.
BUSY_METRIC = {
    "webgen": "webgen.busy_s", "webgen.server": "webgen.server.busy_s",
    "crawler.fetch": "crawler.fetch.busy_s", "crawler.cache": "crawler.cache.busy_s",
    "crawler.http": "crawler.http.busy_s", "html.parse": "html.parse.busy_s",
    "html.index": "html.index.busy_s", "langid": "langid.busy_s",
    "core.extraction": "core.extraction.busy_s", "audit": "audit.busy_s",
    "core.selection": "core.selection.busy_s",
    "core.dataset.serialize": "core.dataset.serialize_busy_s",
    "core.dataset.write": "core.dataset.write_busy_s",
    "api.http": "api.http.busy_s", "api.service": "api.service.busy_s",
    "api.metrics": "api.metrics.busy_s", "api.aggregates": "api.aggregates.busy_s",
}


def _layer_values(busy_s: float, factor: float, tag: dict) -> dict[str, float]:
    """One traced unit's normalized per-layer self times, unattributed time
    (its busy time not covered by any layer) and counts."""
    layers = tag["layers"]
    values = {name: 0.0 for name in PER_LAYER_UNITS if name.endswith("busy_s")}
    for layer, seconds in layers.items():
        values[BUSY_METRIC[layer]] += seconds * factor
    values["unattributed.busy_s"] = (busy_s - sum(layers.values())) * factor
    values.update(tag["counts"])
    return values


# -- the build workloads -------------------------------------------------------


class BuildWorkload:
    """``build-cold``, ``build-warm`` or ``crawl-http``."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.server: webgen_server.LocalSiteServer | None = None
        self.reference: dict[str, bytes] = {}
        self._units = 0

    def config(self, countries: tuple[str, ...], cache: Path | None) -> PipelineConfig:
        extra = {}
        if self.name == "crawl-http":
            extra = {"transport": "http", "http_gateway": self.server.gateway}
        return PipelineConfig(countries=countries, seed=self.seed,
                              sites_per_country=SITES_PER_COUNTRY,
                              crawl_cache=str(cache) if cache is not None else None,
                              **extra)

    def _cache_for_unit(self) -> Path | None:
        if self.name == "build-warm":
            return self.workdir / "warm-cache"
        if self.name == "crawl-http":
            self._units += 1
            return self.workdir / f"cache-{self._units}"
        return None

    def run_unit(self, country: str, clock: UnitClock, tag: dict | None):
        """One timed single-country build; returns (result, output bytes)."""
        cache = self._cache_for_unit()
        output = self.workdir / "unit.jsonl"
        pipeline = LangCrUXPipeline(self.config((country,), cache))
        gc.collect()
        clock.begin()
        try:
            result = pipeline.run(stream_to=output, keep_in_memory=False)
        finally:
            clock.end(tag)
        data = output.read_bytes()
        if self.name == "crawl-http":
            shutil.rmtree(cache)
            # The loopback server's web keeps the pages it generated; drop
            # them so the next unit's crawl generates its pages again, as
            # every build-cold unit does.
            for site in self.server.web.domains():
                self.server.web.site(site).clear_page_cache()
        return result, data

    def check_unit(self, outcome: Outcome, country: str, result, data: bytes) -> bool:
        ok = outcome.check(data == self.reference[country],
                           f"{country}: unit output differs from the set-up reference")
        if self.name == "build-warm":
            metrics = result.transport_metrics
            ok &= outcome.check(
                metrics.network_requests == 0 and metrics.cache_stores == 0,
                f"{country}: warm replay sent {metrics.network_requests} requests, "
                f"stored {metrics.cache_stores} entries")
        return ok

    def setup(self, ruler: HostRuler, outcome: Outcome) -> tuple[float, float]:
        """Start what the workload needs and build the reference outputs.

        The set-up pass runs the 12 countries once in the workload's own
        mode (for ``build-warm`` that pass fills the crawl cache); each
        step is normalized on its own and ``setup_s`` is their sum.
        Returns (normalized, raw) seconds.
        """
        clock = UnitClock(ruler)
        if self.name == "crawl-http":
            clock.begin()
            web, _crux = build_web_for_config(PipelineConfig(
                countries=COUNTRIES, seed=self.seed,
                sites_per_country=SITES_PER_COUNTRY))
            self.server = webgen_server.LocalSiteServer(web).start()
            clock.end()
        for country in COUNTRIES:
            _result, self.reference[country] = self.run_unit(country, clock, None)
        clock.finish()
        outcome.check(all(self.reference.values()), "set-up produced an empty output")
        return sum(raw * factor for raw, factor, _tag in clock.units), \
            sum(raw for raw, _factor, _tag in clock.units)

    def check_full_build(self, outcome: Outcome) -> None:
        """One 12-country build must equal the 12 single-country outputs."""
        cache = self.workdir / "warm-cache" if self.name == "build-warm" else None
        output = self.workdir / "full.jsonl"
        LangCrUXPipeline(PipelineConfig(countries=COUNTRIES, seed=self.seed,
                                        sites_per_country=SITES_PER_COUNTRY,
                                        crawl_cache=str(cache) if cache else None)
                         ).run(stream_to=output, keep_in_memory=False)
        outcome.check(output.read_bytes() == b"".join(self.reference[c] for c in COUNTRIES),
                      "12 single-country outputs do not concatenate to the 12-country build")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def run_build(name: str, seed: int, seconds: float, trace: bool,
              ruler: HostRuler, workdir: Path) -> Outcome:
    outcome = Outcome()
    workload = BuildWorkload(name, seed, workdir)
    tracer = build_tracer() if trace else None
    try:
        setup_norm, setup_raw = workload.setup(ruler, outcome)
        clock = UnitClock(ruler)
        deadline = time.perf_counter() + seconds
        # At least one whole pass of each kind, so every country is counted.
        min_units = len(COUNTRIES) * (2 if tracer is not None else 1)
        index = 0
        while time.perf_counter() < deadline or index < min_units:
            country = COUNTRIES[index % len(COUNTRIES)]
            # The traced run alternates untraced and traced passes.
            traced = tracer is not None and (index // len(COUNTRIES)) % 2 == 1
            index += 1
            tag = {"country": country, "ok": False, "traced": traced}
            if traced:
                tracer.install()
            try:
                result, data = workload.run_unit(country, clock, tag)
            except Exception as error:  # noqa: BLE001 - a failed unit is counted, not fatal
                outcome.check(False, f"{country}: {type(error).__name__}: {error}")
                continue
            finally:
                if traced:
                    tracer.uninstall()
            tag["ok"] = workload.check_unit(outcome, country, result, data)
            selection = result.selection_outcomes[country]
            tag.update(records=result.streamed_records, bytes=len(data),
                       selected=len(selection.selected),
                       examined=selection.candidates_examined)
            metrics = result.transport_metrics
            tag["cache_hits"] = metrics.cache_hits if metrics is not None else 0
            tag["cache_stores"] = metrics.cache_stores if metrics is not None else 0
            if traced:
                spans, counts = tracer.drain()
                tag["layers"] = self_times(spans, CLIENT_LAYERS)
                tag["counts"] = counts
        clock.finish()
        workload.check_full_build(outcome)
    finally:
        workload.close()
    _report_build(outcome, clock.units, setup_norm, setup_raw, trace)
    return outcome


def _balanced(units: list[tuple[float, float, dict]], value) -> float:
    """Sum over countries of the per-country mean of ``value(unit)``.

    A run ends mid-pass, so its units over-represent the first countries of
    the round-robin; per-country means weigh every country once.
    """
    per_country: dict[str, list[float]] = defaultdict(list)
    for unit in units:
        per_country[unit[2]["country"]].append(value(unit))
    return sum(statistics.fmean(values) for values in per_country.values())


def _report_build(outcome: Outcome, units, setup_norm: float, setup_raw: float,
                  trace: bool) -> None:
    good = [unit for unit in units if unit[2]["ok"]]
    plain = [unit for unit in good if not unit[2]["traced"]]
    if not plain:
        raise RuntimeError("no build unit completed its checks")
    records = _balanced(plain, lambda u: u[2]["records"])
    norm_s = _balanced(plain, lambda u: u[0] * u[1])
    raw_s = _balanced(plain, lambda u: u[0])
    norm_ms = [raw * factor * 1000.0 for raw, factor, _tag in plain]
    raw_ms = [raw * 1000.0 for raw, _factor, _tag in plain]
    outcome.end_to_end = {
        "throughput_per_s": (records / norm_s, records / raw_s, "1/s"),
        "latency_p50_ms": (statistics.median(norm_ms), statistics.median(raw_ms), "ms"),
        "latency_tail_ms": (percentile(norm_ms, BUILD_TAIL_PCT),
                            percentile(raw_ms, BUILD_TAIL_PCT), "ms"),
        "setup_s": (setup_norm, setup_raw, "s"),
        "peak_rss_mib": (peak_rss_mib(), None, "MiB"),
    }
    selected = sum(u[2]["selected"] for u in good)
    examined = sum(u[2]["examined"] for u in good)
    factors = [factor for _raw, factor, _tag in units]
    outcome.notes += [
        f"units timed: {len(plain)} untraced"
        f" ({len(good) - len(plain)} traced), tail = p{BUILD_TAIL_PCT:g}"
        f" with {sum(1 for v in norm_ms if v > percentile(norm_ms, BUILD_TAIL_PCT))}"
        " samples beyond",
        f"records per pass: {records:.0f};"
        f" core.selection.accept_ratio = {selected / examined:.4f}"
        f" ({selected} accepted of {examined} evaluated)",
        f"host.speed_factor = {statistics.median(factors):.4f}"
        f" (min {min(factors):.3f}, max {max(factors):.3f})",
    ]
    if not trace:
        return
    traced = [unit for unit in good if unit[2]["traced"]]
    if not traced:
        raise RuntimeError("no traced build unit completed its checks")
    for raw, factor, tag in traced:
        tag["values"] = _layer_values(raw, factor, tag)
        tag["raw_values"] = _layer_values(raw, 1.0, tag)
    layer = {name: _balanced(traced, lambda u, name=name: u[2]["values"].get(name, 0.0))
             for name in PER_LAYER_UNITS}
    both = {unit[2]["country"] for unit in traced} & {unit[2]["country"] for unit in plain}
    layer.update({
        "crawler.cache.hits": _balanced(traced, lambda u: u[2]["cache_hits"]),
        "crawler.cache.stores": _balanced(traced, lambda u: u[2]["cache_stores"]),
        "html.parse.mib": _balanced(
            traced, lambda u: u[2]["values"].get("html.parse.bytes", 0.0)) / MIB,
        "core.selection.accept_ratio": selected / examined,
        "core.dataset.mib": _balanced(traced, lambda u: u[2]["bytes"]) / MIB,
        "host.speed_factor": statistics.median(factors),
        "host.raw_s": raw_s,
        "trace.overhead_pct": (
            _balanced([u for u in traced if u[2]["country"] in both], lambda u: u[0] * u[1])
            / _balanced([u for u in plain if u[2]["country"] in both], lambda u: u[0] * u[1])
            - 1.0) * 100.0,
    })
    outcome.per_layer = layer
    outcome.per_layer_raw = {
        name: _balanced(traced, lambda u, name=name: u[2]["raw_values"][name])
        for name in PER_LAYER_UNITS if name.endswith("busy_s")}


# -- the serving workload ------------------------------------------------------


def api_urls(domains: list[str], rng: random.Random) -> list[str]:
    """The seeded URL universe, in popularity order (most popular first).

    ``/analyze`` is always the most popular URL.  The other ranks go to
    three pools of similar cost -- one site row per domain, ``/kizuki``
    country subsets and ``/mismatch`` parameter pairs -- interleaved in
    proportion to the pool sizes, each pool in seeded order, so every
    seed's mix has the same shape.
    """
    subsets = [combo for size in (1, 2, 3)
               for combo in itertools.combinations(COUNTRIES, size)]
    pools = [
        [f"/explorer/site/{domain}" for domain in domains],
        [f"/kizuki?countries={','.join(combo)}" for combo in rng.sample(subsets, 140)],
        [f"/mismatch?examples={examples}&threshold={threshold:g}"
         for examples in range(10)
         for threshold in (2.5, 5, 7.5, 10, 12.5, 15, 20, 25, 30, 40)],
    ]
    for pool in pools:
        rng.shuffle(pool)
    taken = [0] * len(pools)
    urls = ["/analyze"]
    for _ in range(sum(map(len, pools))):
        # The pool furthest behind its share of the ranks so far.
        index = min((i for i in range(len(pools)) if taken[i] < len(pools[i])),
                    key=lambda i: (taken[i] + 1) / len(pools[i]))
        urls.append(pools[index][taken[index]])
        taken[index] += 1
    return urls


class ZipfDraw:
    """Draws ranks 0..n-1 with probability proportional to 1/(rank+1)**s."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        self.rng = rng
        self.cumulative = list(itertools.accumulate(1.0 / (rank + 1) ** s
                                                    for rank in range(n)))

    def __call__(self) -> int:
        return bisect.bisect_left(self.cumulative,
                                  self.rng.random() * self.cumulative[-1])


class ApiClient:
    """One keep-alive connection; records every reply for the checks."""

    def __init__(self, server: api_server.AnalyticsServer) -> None:
        self.address = (server.host, server.port)
        self.connection = http.client.HTTPConnection(*self.address, timeout=30)
        self.bodies: dict[str, bytes] = {}

    def get(self, url: str) -> tuple[int, str | None, bytes]:
        """One request; a failed exchange returns status 0 and reconnects."""
        try:
            self.connection.request("GET", url)
            response = self.connection.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(*self.address, timeout=30)
            return 0, None, b""
        return response.status, response.getheader(api_server.CACHE_STATE_HEADER), body

    def check(self, outcome: Outcome, url: str, status: int, body: bytes) -> bool:
        """200, and the same body every time the URL is asked (hit or miss)."""
        first = self.bodies.setdefault(url, body)
        return outcome.check(status == 200 and body == first,
                             f"{url}: status {status}"
                             + ("" if body == first else ", body differs from first reply"))

    def close(self) -> None:
        self.connection.close()


def run_api(seed: int, seconds: float, trace: bool, ruler: HostRuler,
            workdir: Path) -> Outcome:
    outcome = Outcome()
    # Input, not set-up: the 12x30 dataset of this seed and the request mix.
    dataset = workdir / "langcrux.jsonl"
    LangCrUXPipeline(PipelineConfig(countries=COUNTRIES, seed=seed,
                                    sites_per_country=SITES_PER_COUNTRY)
                     ).run(stream_to=dataset, keep_in_memory=False)
    domains = [json.loads(line)["domain"] for line in dataset.read_text("utf-8").splitlines()]
    rng = random.Random(f"api-mixed:{seed}")
    urls = api_urls(domains, rng)
    draw = ZipfDraw(len(urls), API_ZIPF_S, rng)

    # Set-up: load the service and start the server, several times.
    setup_clock = UnitClock(ruler)
    servers = []
    try:
        for _ in range(API_SETUP_REPS):
            gc.collect()
            setup_clock.begin()
            service = api_server.AnalyticsService(dataset, cache_size=API_CACHE_SIZE)
            servers.append(api_server.AnalyticsServer(service).start())
            setup_clock.end()
        setup_clock.finish()
    finally:
        for extra in servers[:-1]:
            extra.close()
    server = servers[-1]
    # An unused set-up service renders the reference bodies at the end.
    reference = servers[0].service
    setup_norm = statistics.median(raw * factor for raw, factor, _ in setup_clock.units)
    setup_raw = statistics.median(raw for raw, _factor, _ in setup_clock.units)

    tracer = api_tracer() if trace else None
    client = ApiClient(server)
    clock = UnitClock(ruler)
    try:
        for _ in range(API_WARMUP):
            url = urls[draw()]
            status, _state, body = client.get(url)
            client.check(outcome, url, status, body)
        deadline = time.perf_counter() + seconds
        batch_index = 0
        # At least one batch of each kind in a traced run.
        while time.perf_counter() < deadline or (tracer is not None and batch_index < 2):
            traced = tracer is not None and batch_index % 2 == 1
            batch_index += 1
            batch = [urls[draw()] for _ in range(API_BATCH)]
            evictions = server.service.cache.stats()["evictions"]
            replies = []
            tag = {"traced": traced}
            if traced:
                tracer.install()
            gc.collect()
            clock.begin()
            try:
                for url in batch:
                    started = time.perf_counter()
                    status, state, body = client.get(url)
                    replies.append((url, status, state, body,
                                    time.perf_counter() - started))
            finally:
                clock.end(tag)
                if traced:
                    tracer.uninstall()
            ok = [client.check(outcome, url, status, body)
                  for url, status, _state, body, _latency in replies]
            tag["latencies"] = [latency for (*_reply, latency), good in zip(replies, ok)
                                if good]
            tag["states"] = Counter(state for _url, _status, state, _body, _latency
                                    in replies)
            tag["evictions"] = server.service.cache.stats()["evictions"] - evictions
            if traced:
                spans, counts = tracer.drain()
                tag["layers"] = self_times(spans, CLIENT_LAYERS)
                tag["counts"] = counts
        clock.finish()
    finally:
        client.close()
        server.close()
    _check_bodies(outcome, client.bodies, reference)
    _report_api(outcome, clock.units, setup_norm, setup_raw, trace)
    return outcome


def _check_bodies(outcome: Outcome, bodies: dict[str, bytes],
                  reference: api_server.AnalyticsService) -> None:
    """Every distinct URL's body must equal what an unused service renders."""
    for url, body in bodies.items():
        split = urlsplit(url)
        params = dict(parse_qsl(split.query, keep_blank_values=True))
        expected = reference.handle(split.path, params).body
        outcome.check(body == expected, f"{url}: body differs from a fresh render")


def _report_api(outcome: Outcome, units, setup_norm: float, setup_raw: float,
                trace: bool) -> None:
    plain = [unit for unit in units if not unit[2]["traced"] and unit[2]["latencies"]]
    if not plain:
        raise RuntimeError("no API request passed its checks")

    def batch_figures(normalize: bool) -> list[float]:
        """Median over batches of (throughput, p50 ms, tail ms).

        Each batch gives one figure and the run reports their median, so a
        stretch of host trouble that the ruler misses moves few batches.
        """
        figures = []
        for _raw, factor, tag in plain:
            scale = factor if normalize else 1.0
            latencies = tag["latencies"]
            figures.append((len(latencies) / (sum(latencies) * scale),
                            statistics.median(latencies) * scale * 1000.0,
                            percentile(latencies, API_TAIL_PCT) * scale * 1000.0))
        return [statistics.median(column) for column in zip(*figures)]

    (throughput, p50_ms, tail_ms), (raw_throughput, raw_p50_ms, raw_tail_ms) = \
        batch_figures(True), batch_figures(False)
    outcome.end_to_end = {
        "throughput_per_s": (throughput, raw_throughput, "1/s"),
        "latency_p50_ms": (p50_ms, raw_p50_ms, "ms"),
        "latency_tail_ms": (tail_ms, raw_tail_ms, "ms"),
        "setup_s": (setup_norm, setup_raw, "s"),
        "peak_rss_mib": (peak_rss_mib(), None, "MiB"),
    }
    norm_ms = [latency * factor * 1000.0 for _raw, factor, tag in plain
               for latency in tag["latencies"]]
    raw_ms = [latency * 1000.0 for _raw, _factor, tag in plain
              for latency in tag["latencies"]]
    states: Counter[str | None] = Counter()
    for unit in units:
        states.update(unit[2]["states"])
    hit_ratio = states["hit"] / max(1, states["hit"] + states["miss"])
    factors = [factor for _raw, factor, _tag in units]
    outcome.notes += [
        f"requests timed: {len(norm_ms)} untraced in {len(plain)} batches;"
        f" tail = median over batches of the batch p{API_TAIL_PCT:g},"
        f" {API_BATCH * (100 - API_TAIL_PCT) / 100:g} samples beyond it per batch",
        f"api.cache.hit_ratio = {hit_ratio:.4f}"
        f" ({states['hit']} hits, {states['miss']} misses)",
        f"host.speed_factor = {statistics.median(factors):.4f}"
        f" (min {min(factors):.3f}, max {max(factors):.3f})",
    ]
    if not trace:
        return
    traced = [unit for unit in units if unit[2]["traced"]]
    requests = sum(len(unit[2]["latencies"]) for unit in traced)
    if not requests:
        raise RuntimeError("no traced API request passed its checks")
    passes = requests / API_BATCH
    # A batch's busy time is the sum of its request latencies.
    totals: Counter[str] = Counter()
    raw_totals: Counter[str] = Counter()
    for _raw, factor, tag in traced:
        totals.update(_layer_values(sum(tag["latencies"]), factor, tag))
        raw_totals.update(_layer_values(sum(tag["latencies"]), 1.0, tag))
    layer = {name: totals[name] / passes for name in PER_LAYER_UNITS}
    traced_ms = statistics.fmean(latency * factor for _raw, factor, tag in traced
                                 for latency in tag["latencies"]) * 1000.0
    layer.update({
        "api.cache.hit_ratio": hit_ratio,
        "api.cache.evictions": sum(unit[2]["evictions"] for unit in traced) / passes,
        "host.speed_factor": statistics.median(factors),
        "host.raw_s": sum(raw_ms) / 1000.0 / (len(raw_ms) / API_BATCH),
        "trace.overhead_pct": (traced_ms / statistics.fmean(norm_ms) - 1.0) * 100.0,
    })
    outcome.per_layer = layer
    outcome.per_layer_raw = {name: raw_totals[name] / passes
                             for name in PER_LAYER_UNITS if name.endswith("busy_s")}


def run(name: str, seed: int, seconds: float, trace: bool, ruler: HostRuler,
        workdir: Path) -> Outcome:
    if name == "api-mixed":
        return run_api(seed, seconds, trace, ruler, workdir)
    return run_build(name, seed, seconds, trace, ruler, workdir)
