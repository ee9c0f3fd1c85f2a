"""End-to-end LangCrUX pipeline (Figure 1 of the paper).

The pipeline chains every stage of the methodology:

1. **Web** — build (or accept) the synthetic web and its CrUX-style ranking.
2. **Vantage** — pick a VPN exit per country (falling back to a cloud
   vantage only when explicitly configured, reproducing the paper's
   vantage-point argument in the ablation benchmark).
3. **Selection + crawl** — walk the country's ranking, crawl candidates,
   validate the 50% visible-language criterion, and replace failures.
4. **Extraction + audit** — extract visible text and accessibility texts
   from each selected site and run the base (language-unaware) audits.
   Each page is parsed once and both stages work off the page's cached
   :class:`~repro.html.index.DocumentIndex`, one DOM traversal per page.
5. **Dataset** — assemble :class:`~repro.core.dataset.LangCrUXDataset`.

Stages 2–4 are independent per country, so they are expressed as *pure
per-shard functions* (:func:`execute_country_shard` and the helpers it
calls) that an execution backend from :mod:`repro.core.executor` dispatches
concurrently.  Every shard constructs its own transport, crawl session and
audit engine, and each candidate origin draws its transport randomness from
its own stream seeded by ``stable_seed(seed, "transport", country,
domain)``, so the outcome of crawling one origin depends on nothing but the
config — not on worker counts, batch sizes or completion interleavings.  A
parallel and/or batched run is therefore byte-identical to a sequential
one.

Intra-country sub-sharding
--------------------------
With ``PipelineConfig.sub_shard_size`` set, shard planning descends one
level: instead of one work unit per country, each country's ranking is cut
into fixed-size :class:`SelectionSubShard` windows and *those* are what the
executor dispatches (:func:`execute_selection_subshard`).  Each sub-shard
speculatively crawls its window, measures native shares, and — for
candidates that would qualify — speculatively builds the site record from
the already-parsed documents.  The parent then reassembles per-country
:class:`~repro.core.site_selection.SelectionOutcome`s by committing
sub-shard evaluations in strict rank order through a
:class:`~repro.core.site_selection.RankOrderCommitter`: once a country's
quota fills, later evaluations are discarded uncounted, queued sub-shards
of that country short-circuit via a filled-countries flag, and once every
country is finalized the executor stream is closed, cancelling anything
still pending.  Selected sets, rejection counters and output JSONL are
byte-identical to the sequential walk for every ``(executor, workers,
sub_shard_size, max_in_flight)`` combination — which is what lets a run
dominated by one large country scale past one worker.

Within a shard (or sub-shard), ``PipelineConfig.max_in_flight`` controls the
async batched fetch layer as before.

Across shards, :meth:`LangCrUXPipeline.run` can stream records straight to
disk through :class:`~repro.core.dataset.StreamingDatasetWriter`
(``stream_to``), preserving the ordered-merge guarantee (countries always
finalize in configured order, sub-sharded or not).  Streaming is *windowed*:
a sub-sharded run commits records to the writer per committed window — the
rank-order merge already serializes them — inside a per-country writer
section, and with ``keep_in_memory=False`` each record leaves memory the
moment it is on disk, with its selection outcome slimmed window by window.
Peak resident state is then proportional to in-flight windows
(``workers × sub_shard_size`` pages plus the executor's bounded reorder
buffer), not to ``sites_per_country``; time-to-first-record, the
record-buffer high-water mark and the process's peak RSS are tracked on
:class:`PipelineResult` and — under ``profile=True`` — as ``max``-merged
gauges on ``PipelineResult.perf_metrics``.

The result object keeps the intermediate artifacts (ranking, selection
outcomes, per-shard timing metrics) because several benchmark harnesses
report on them directly (Figure 7 uses the ranking, the selection benchmark
uses the outcomes, the scaling benchmark uses the shard metrics).
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

from repro import perf
from repro.audit.engine import AuditEngine
from repro.core.dataset import LangCrUXDataset, SiteRecord, StreamingDatasetWriter
from repro.core.executor import (
    PipelineExecutor,
    ProcessExecutor,
    ShardMetrics,
    ShardResult,
    create_executor,
    plan_chunks,
)
from repro.core.extraction import extract_page, merge_extractions
from repro.core.site_selection import (
    CandidateEvaluation,
    RankOrderCommitter,
    SelectedSite,
    SelectionOutcome,
    SiteSelector,
)
from repro.crawler.crawler import CrawlerConfig, LangCruxCrawler
from repro.crawler.fetcher import Fetcher, FetcherConfig, SimulatedTransport
from repro.crawler.metrics import TransportMetrics
from repro.crawler.records import CrawlRecord
from repro.crawler.session import CrawlSession
from repro.crawler.transport import (
    HttpAsyncTransport,
    RetryPolicy,
    TransportStack,
    build_transport_stack,
)
from repro.crawler.vpn import DEFAULT_PROVIDERS, VantagePoint, VPNCoverageError, VPNManager
from repro.html.dom import Document
from repro.html.parser import parse_html
from repro.langid.languages import get_pair, langcrux_country_codes
from repro.obs import trace as obs_trace
from repro.obs.status import StatusReporter
from repro.webgen.crux import CruxTable, build_crux_table
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator, SyntheticSite, stable_seed
from repro.webgen.profiles import get_profile


@dataclass
class PipelineConfig:
    """Configuration of a pipeline run.

    Attributes:
        countries: Country codes to process (defaults to all twelve).
        sites_per_country: The per-country quota of selected sites (the
            paper's 10,000, scaled down for synthetic runs).
        candidate_multiplier: How many ranked candidates to generate per
            country relative to the quota; must exceed 1 so the replacement
            logic has candidates to fall back on.
        seed: Seed for the synthetic web and the transport failure injection.
        max_pages_per_site: Pages crawled per origin (homepage first).
        use_vpn: Crawl through per-country VPN exits (the paper's setup).
            When false every country is crawled from a cloud vantage, which
            is the ablation configuration.
        transport_failure_rate: Transient failure probability injected by the
            simulated transport.
        language_threshold: Minimum native share of visible text (0.5).
        respect_robots: Whether the crawler honours robots.txt.
        workers: Number of country shards processed concurrently.  The
            default of 1 keeps the historical sequential behaviour; any
            value produces the same dataset bytes (per-shard seeding).
        executor: Execution backend — ``"auto"`` (serial for one worker,
            threads otherwise), ``"serial"``, ``"thread"`` or ``"process"``.
        max_in_flight: Concurrent candidate fetches inside one country shard
            (the async batched fetch layer).  1 keeps the sequential walk;
            any value produces the same dataset bytes (per-candidate RNG
            splits).
        sub_shard_size: When set, each country's candidate rank-walk is cut
            into sub-shards of this many candidates and those become the
            executor's work units, so a single large country can occupy
            every worker.  ``None`` (the default) keeps whole-country
            shards.  Any value produces the same dataset bytes: sub-shards
            are evaluated speculatively but committed in strict rank order.
        transport: ``"simulated"`` (the in-memory synthetic web, the
            default) or ``"http"`` — real sockets through
            :class:`~repro.crawler.transport.HttpAsyncTransport`, typically
            against a live :class:`~repro.webgen.server.LocalSiteServer`
            named by ``http_gateway``.  With the same web and no failure
            injection, both transports produce byte-identical datasets.
        http_gateway: ``HOST:PORT`` every origin resolves to when
            ``transport="http"`` (the loopback site server).  ``None``
            connects to each origin's own host.
        http_timeout_s: Socket timeout per request of the HTTP transport.
        crawl_cache: Directory of the on-disk crawl cache
            (:class:`~repro.crawler.transport.CachingTransport`).  ``None``
            disables caching; with a directory, a re-run replays every
            completed fetch from disk and only fetches what is missing.
        cache_fsync: Manifest durability policy of the crawl cache —
            ``"close"`` (the default) fsyncs each writer's manifest once on
            close; ``"entry"`` fsyncs every append, which distributed
            workers use so a window declared complete cannot lose manifest
            lines to a later crash.
        rate_limit: Per-host request rate (requests/second) enforced by the
            politeness layer; ``None`` disables rate limiting.
        max_per_host: Per-host concurrent-request cap; ``None`` disables.
        retry_backoff_s: Base backoff of the HTTP transport's retry layer
            (exponential, deterministic per-host jitter).  0 retries
            immediately — appropriate for loopback crawls.
        profile: Collect per-stage timings and op counters
            (:class:`~repro.perf.PerfCounters`) in every shard worker and
            aggregate them onto ``PipelineResult.perf_metrics``.  Profiling
            only observes the run — the produced dataset bytes are identical
            with and without it.
        trace_dir: Directory for :mod:`repro.obs.trace` span/event JSONL
            files (and ``status/`` heartbeats).  ``None`` disables tracing.
            Tracing, like profiling, is strictly out-of-band: dataset bytes
            are identical with and without it.
        trace_id: The run's trace id.  Normally left ``None`` (the process
            that starts the build allocates one and stamps it here so
            every worker — thread, process-pool or distributed — joins the
            same trace); set explicitly to adopt an external trace.
        trace_parent: Span id the run's spans nest under — the build root
            span, propagated to workers through pickling or ``build.json``.
    """

    countries: tuple[str, ...] = field(default_factory=langcrux_country_codes)
    sites_per_country: int = 30
    candidate_multiplier: float = 2.0
    seed: int = 7
    max_pages_per_site: int = 1
    use_vpn: bool = True
    transport_failure_rate: float = 0.02
    language_threshold: float = 0.5
    respect_robots: bool = True
    workers: int = 1
    executor: str = "auto"
    max_in_flight: int = 1
    sub_shard_size: int | None = None
    transport: str = "simulated"
    http_gateway: str | None = None
    http_timeout_s: float = 10.0
    crawl_cache: str | None = None
    cache_fsync: str = "close"
    rate_limit: float | None = None
    max_per_host: int | None = None
    retry_backoff_s: float = 0.0
    profile: bool = False
    trace_dir: str | None = None
    trace_id: str | None = None
    trace_parent: str | None = None


#: Transport kinds accepted by :class:`PipelineConfig` (and the CLI).
TRANSPORT_KINDS = ("simulated", "http")


@dataclass
class PipelineResult:
    """Everything a pipeline run produces.

    ``time_to_first_record_s`` and ``record_buffer_peak`` describe the
    record flow of the run: how long until the first site record was
    committed (to the stream writer when streaming, to the in-memory
    dataset otherwise), and the largest batch of records that was ever
    resident awaiting commit — window-sized under windowed streaming,
    country-sized under whole-country shards.
    """

    dataset: LangCrUXDataset
    crux_table: CruxTable
    web: SyntheticWeb
    selection_outcomes: dict[str, SelectionOutcome]
    vantages: dict[str, VantagePoint]
    shard_metrics: dict[str, ShardMetrics] = field(default_factory=dict)
    executor_name: str = "serial"
    executor_workers: int = 1
    stream_path: Path | None = None
    streamed_records: int = 0
    transport_metrics: TransportMetrics | None = None
    perf_metrics: perf.PerfCounters | None = None
    time_to_first_record_s: float | None = None
    record_buffer_peak: int = 0

    def qualifying_site_counts(self) -> dict[str, int]:
        """Selected sites per country (input to the selection-criteria check)."""
        return {country: len(outcome.selected)
                for country, outcome in self.selection_outcomes.items()}

    def total_shard_seconds(self) -> float:
        """Sum of per-shard wall-clock — the work a serial run would do."""
        return sum(metric.duration_s for metric in self.shard_metrics.values())


# -- pure per-shard functions -------------------------------------------------------
#
# Everything below takes the config (plus the prebuilt web) explicitly so it
# can run on any executor backend, including process pools where the shard
# callable and its arguments are pickled into the worker.


def build_web_for_config(config: PipelineConfig) -> tuple[SyntheticWeb, CruxTable]:
    """Generate the synthetic web and ranking for ``config`` (pure)."""
    candidates_per_country = max(
        config.sites_per_country + 1,
        int(config.sites_per_country * config.candidate_multiplier),
    )
    sites: list[SyntheticSite] = []
    for country in config.countries:
        generator = SiteGenerator(get_profile(country), seed=config.seed)
        sites.extend(generator.generate_sites(candidates_per_country))
    return SyntheticWeb(sites), build_crux_table(sites)


def _web_fingerprint(config: PipelineConfig) -> tuple:
    """The config fields that determine the generated web."""
    return (config.seed, config.countries, config.sites_per_country,
            config.candidate_multiplier)


#: Per-process memo of built webs, so a process-pool worker handling several
#: country shards generates the (cheap, lazy) site metadata only once.
_WEB_CACHE: dict[tuple, tuple[SyntheticWeb, CruxTable]] = {}


def _cached_web(config: PipelineConfig) -> tuple[SyntheticWeb, CruxTable]:
    fingerprint = _web_fingerprint(config)
    if fingerprint not in _WEB_CACHE:
        _WEB_CACHE[fingerprint] = build_web_for_config(config)
    return _WEB_CACHE[fingerprint]


def _ensure_tracing(config: PipelineConfig):
    """Join the run's trace in this process, or ``None`` when untraced.

    The per-process idempotence of :func:`repro.obs.trace.ensure` makes
    this safe to call from every shard/window entry point: the first call
    in a worker process opens its trace file parented under the build's
    ``trace_parent``; later calls are a lock and two comparisons.
    """
    if config.trace_dir is None:
        return None
    return obs_trace.ensure(config.trace_dir, trace_id=config.trace_id,
                            parent_span_id=config.trace_parent)


def vantage_for_country(config: PipelineConfig, country_code: str) -> VantagePoint:
    """The crawl vantage for a country under ``config`` (pure)."""
    if not config.use_vpn:
        return VantagePoint.cloud()
    try:
        return VPNManager(DEFAULT_PROVIDERS).vantage_for(country_code)
    except VPNCoverageError:
        return VantagePoint.cloud()


def _host_transport_rng(seed: int, country_code: str, host: str) -> random.Random:
    """The per-candidate transport RNG split: one stream per (country, host)."""
    return random.Random(stable_seed(seed, "transport", country_code, host))


def _simulated_transport(config: PipelineConfig, country_code: str,
                         web: SyntheticWeb) -> SimulatedTransport:
    return SimulatedTransport(
        web, failure_rate=config.transport_failure_rate,
        rng_factory=functools.partial(_host_transport_rng, config.seed, country_code))


def transport_stack_for_country(config: PipelineConfig, country_code: str,
                                web: SyntheticWeb) -> TransportStack | None:
    """The country shard's transport stack, or ``None`` for the fast path.

    A plain simulated run — no HTTP transport, no crawl cache, no
    politeness knobs — skips stack assembly entirely and fetches straight
    through the simulated transport.  Anything else composes the
    :mod:`repro.crawler.transport` layers around the configured base.
    """
    if config.transport not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport {config.transport!r}; "
                         f"expected one of {TRANSPORT_KINDS}")
    rng_factory = functools.partial(_host_transport_rng, config.seed, country_code)
    wants_http = config.transport == "http"
    wants_extras = (config.crawl_cache is not None or config.rate_limit is not None
                    or config.max_per_host is not None)
    if not wants_http and not wants_extras:
        return None
    if wants_http:
        base = HttpAsyncTransport(gateway=config.http_gateway,
                                  timeout_s=config.http_timeout_s)
        # The wire can genuinely fail transiently, so the stack retries with
        # deterministic per-host jitter; the simulated base keeps retry
        # behaviour in the fetcher (as always) so injected-failure runs stay
        # byte-identical with and without the stack.
        retry = RetryPolicy(backoff_base_s=config.retry_backoff_s)
    else:
        base = _simulated_transport(config, country_code, web)
        retry = None
    return build_transport_stack(
        base,
        retry=retry,
        rng_factory=rng_factory,
        rate_per_host=config.rate_limit,
        max_per_host=config.max_per_host,
        user_agent=FetcherConfig().user_agent,
        cache_dir=config.crawl_cache,
        cache_fsync=config.cache_fsync,
    )


def crawler_for_country(config: PipelineConfig, country_code: str,
                        web: SyntheticWeb,
                        vantage: VantagePoint | None = None) -> LangCruxCrawler:
    """A crawler bound to the country's vantage, with shard-local state.

    The transport, fetcher and session are constructed fresh per shard —
    never shared across countries — so concurrent shards cannot interleave
    retry counters or robots caches.  Transport randomness is split per
    host (see :func:`_host_transport_rng`), so within the shard no two
    candidates share a stream either — the precondition for the batched
    selection walk being byte-identical to the sequential one.

    With transport extras configured (``transport="http"``, a crawl cache,
    politeness knobs) the fetcher sends through an assembled
    :class:`~repro.crawler.transport.TransportStack`, which
    :meth:`~repro.crawler.session.CrawlSession.close` releases; otherwise
    straight through the simulated transport.
    """
    if vantage is None:
        vantage = vantage_for_country(config, country_code)
    stack = transport_stack_for_country(config, country_code, web)
    transport = stack.transport if stack is not None \
        else _simulated_transport(config, country_code, web)
    # When the stack carries its own retry layer (HTTP mode), it is the
    # single retry authority: the fetcher's identical policy on top would
    # multiply attempts against persistently failing origins (4 wire tries
    # become 16) and skew the retry counters.
    fetcher_config = FetcherConfig(max_retries=0) \
        if config.transport == "http" else FetcherConfig()
    session = CrawlSession(fetcher=Fetcher(transport, fetcher_config), vantage=vantage,
                           respect_robots=config.respect_robots,
                           transport_stack=stack)
    crawler_config = CrawlerConfig(
        max_pages_per_site=config.max_pages_per_site,
        follow_links=config.max_pages_per_site > 1,
        respect_robots=config.respect_robots,
    )
    return LangCruxCrawler(session, crawler_config)


def selector_for_country(config: PipelineConfig, country_code: str,
                         web: SyntheticWeb,
                         vantage: VantagePoint | None = None) -> SiteSelector:
    """A selector over a fresh country-bound crawler (pure per-shard)."""
    pair = get_pair(country_code)
    crawler = crawler_for_country(config, country_code, web, vantage)
    return SiteSelector(crawler, pair.language.code,
                        threshold=config.language_threshold)


def _select_country_sites(config: PipelineConfig, country_code: str,
                          web: SyntheticWeb, crux: CruxTable,
                          vantage: VantagePoint | None = None,
                          ) -> tuple[SelectionOutcome, TransportMetrics | None]:
    """Selection + crawling for one country, releasing the transport stack.

    Returns the outcome together with the stack's metrics snapshot (``None``
    on the plain simulated fast path).  The crawl session is closed before
    returning — pooled sockets and cache manifest handles never outlive the
    walk, on any caller's path.
    """
    selector = selector_for_country(config, country_code, web, vantage)
    session = selector.crawler.session
    try:
        with obs_trace.span("select", {"country": country_code,
                                       "quota": config.sites_per_country}):
            outcome = selector.select(crux.iter_ranked(country_code),
                                      quota=config.sites_per_country,
                                      max_in_flight=config.max_in_flight)
            outcome.country_code = country_code
    finally:
        session.close()
    stack = session.transport_stack
    return outcome, stack.metrics if stack is not None else None


def select_country_sites(config: PipelineConfig, country_code: str,
                         web: SyntheticWeb, crux: CruxTable,
                         vantage: VantagePoint | None = None) -> SelectionOutcome:
    """Run selection + crawling for one country (pure per-shard)."""
    return _select_country_sites(config, country_code, web, crux, vantage)[0]


def record_from_crawl(crawl_record: CrawlRecord,
                      audit_engine: AuditEngine | None = None, *,
                      use_index: bool = True,
                      documents: Sequence[Document] | None = None) -> SiteRecord:
    """Extraction + audit of one crawled origin (pure per-shard).

    Each page is parsed exactly once; extraction and audit then share the
    parsed :class:`~repro.html.dom.Document` and — through
    :meth:`~repro.html.dom.Document.index` — one
    :class:`~repro.html.index.DocumentIndex` per page, so the per-page cost
    is a single DOM traversal instead of one per rule and element group.
    ``use_index=False`` keeps the naive traversal path (the reference the
    byte-parity tests and the benchmark compare against).

    Args:
        crawl_record: The crawled origin.
        audit_engine: The audit engine to use (a fresh one when ``None``).
        use_index: Whether lookups go through the document index.
        documents: The record's pages already parsed (in page order, one per
            ``ok`` HTML page), e.g. carried over from selection validation
            via :class:`~repro.core.site_selection.SelectedSite.documents`.
            Skips the re-parse; since parsing is deterministic, the produced
            record is byte-identical either way.
    """
    with perf.stage("record"):
        perf.count("record.sites")
        engine = audit_engine if audit_engine is not None else AuditEngine()
        if documents is None:
            documents = [parse_html(page.html, url=page.final_url)
                         for page in crawl_record.pages if page.ok and page.html]
        else:
            documents = list(documents)
        extraction = merge_extractions(
            [extract_page(document, use_index=use_index) for document in documents])
        audit: dict[str, dict] = {}
        if documents:
            report = engine.audit_document(documents[0], use_index=use_index)
            audit = {
                rule_id: {
                    "applicable": result.applicable,
                    "passed": result.passed,
                    "score": result.score,
                }
                for rule_id, result in report.results.items()
            }
        homepage = crawl_record.homepage
        return SiteRecord.from_extraction(
            extraction,
            domain=crawl_record.domain,
            country_code=crawl_record.country_code,
            language_code=crawl_record.language_code,
            rank=crawl_record.rank,
            served_variant=homepage.served_variant if homepage else None,
            audit=audit,
        )


@dataclass
class CountryShard:
    """The complete output of one country's selection → crawl → audit shard."""

    country_code: str
    vantage: VantagePoint
    outcome: SelectionOutcome
    records: list[SiteRecord]
    transport_metrics: TransportMetrics | None = None
    perf_metrics: perf.PerfCounters | None = None


def _slim_selected_site(selected: SelectedSite) -> SelectedSite:
    """A copy of ``selected`` with crawl payloads dropped (see below)."""
    return replace(selected,
                   documents=(),
                   record=replace(selected.record,
                                  pages=[replace(page, html="")
                                         for page in selected.record.pages]))


def slim_selection_outcome(outcome: SelectionOutcome) -> None:
    """Drop crawl payloads from ``outcome``, keeping counters + metadata.

    Every selected site's page snapshots lose their HTML (url, status,
    served variant, latency and error survive) and any carried parsed
    documents are dropped.  Streaming runs apply this as records reach disk
    — per committed *window* on the sub-sharded path, per shard otherwise —
    taking the run's resident state from O(selected HTML) to O(counters);
    the records themselves were already dropped via
    ``keep_in_memory=False``.
    """
    outcome.selected = [_slim_selected_site(selected)
                        for selected in outcome.selected]


def execute_country_shard(config: PipelineConfig, country_code: str,
                          web_and_crux: tuple[SyntheticWeb, CruxTable] | None = None,
                          ) -> CountryShard:
    """Run stages 2–4 for one country, with shard-local state only.

    Args:
        config: The pipeline configuration.
        country_code: The shard's country.
        web_and_crux: The prebuilt web and ranking.  ``None`` (the process
            backend) regenerates them deterministically from ``config`` via a
            per-process cache instead of pickling the whole web into the
            worker.
    """
    web, crux = web_and_crux if web_and_crux is not None else _cached_web(config)
    vantage = vantage_for_country(config, country_code)
    _ensure_tracing(config)
    # The collector activates only after web/vantage setup so that counters
    # cover the same work on every backend (process workers regenerate the
    # web in-process; thread workers receive it prebuilt).
    perf_counters = perf.PerfCounters() if config.profile else None
    with obs_trace.span("shard", {"country": country_code}), \
            perf.collecting(perf_counters):
        outcome, transport_metrics = _select_country_sites(config, country_code,
                                                           web, crux, vantage)
        audit_engine = AuditEngine()  # per-shard: concurrent audits never share state
        records = [record_from_crawl(selected.record, audit_engine,
                                     documents=selected.documents or None)
                   for selected in outcome.selected]
    # Selected sites carried their validation-time parsed documents into the
    # record build above; strip them now so the returned shard stays light
    # (and picklable without shipping DOM trees back from process workers).
    outcome.selected = [replace(selected, documents=())
                        for selected in outcome.selected]
    # Evict the generated page HTML of every origin this shard could have
    # crawled: the crawl is over, payloads live on the records, and a shared
    # web must not grow with origins visited (regeneration is seeded).
    for entry in crux.entries(country_code):
        if entry.origin in web:
            web.site(entry.origin).clear_page_cache()
    return CountryShard(country_code=country_code, vantage=vantage,
                        outcome=outcome, records=records,
                        transport_metrics=transport_metrics,
                        perf_metrics=perf_counters)


# -- intra-country sub-shards --------------------------------------------------------


@dataclass(frozen=True)
class SelectionSubShard:
    """One executor work unit of a sub-sharded selection walk.

    Attributes:
        country_code: The country whose ranking this window belongs to.
        chunk_index: Position of the window within the country (0-based).
        start: First candidate rank-position of the window (inclusive).
        stop: One past the last candidate rank-position (exclusive).
    """

    country_code: str
    chunk_index: int
    start: int
    stop: int


def plan_selection_windows(config: PipelineConfig,
                           crux: CruxTable) -> list[SelectionSubShard]:
    """Every sub-shard window of a run, in country-major rank order (pure).

    This is *the* deterministic work split: both the in-process sub-sharded
    merge loop and the distributed coordinator plan from it, so a window's
    identity — and therefore its evaluation result — is a function of the
    config alone, never of who executes it.
    """
    if config.sub_shard_size is None:
        raise ValueError("plan_selection_windows requires sub_shard_size")
    specs: list[SelectionSubShard] = []
    for country in config.countries:
        specs.extend(
            SelectionSubShard(country_code=country, chunk_index=chunk_index,
                              start=start, stop=stop)
            for chunk_index, (start, stop)
            in enumerate(plan_chunks(crux.size(country), config.sub_shard_size)))
    return specs


@dataclass
class SelectionSubShardResult:
    """The speculative output of one sub-shard.

    ``evaluations`` come back rank-ordered and slimmed for the trip home:
    documents are stripped, and non-qualifying candidates also drop their
    page snapshots (the committer only consults their pre-derived
    ``fetch_succeeded``, and only qualifying candidates' crawl records are
    retained on the outcome), so a process backend never ships rejected
    HTML parent-ward.  ``records`` holds, aligned with ``evaluations``, the
    speculatively built site record for every candidate that would qualify
    (``None`` otherwise).  A ``skipped`` result carries no evaluations: the
    worker observed that the country's quota had already filled and
    short-circuited.

    ``trace_span`` carries the window span's identity (trace id, span id,
    parent span id) when the evaluating process traced the window — the
    parentage stamp that lets ``langcrux trace`` join a distributed
    worker's spans into the coordinator's tree.
    """

    spec: SelectionSubShard
    evaluations: list[CandidateEvaluation]
    records: list[SiteRecord | None]
    skipped: bool = False
    transport_metrics: TransportMetrics | None = None
    perf_metrics: perf.PerfCounters | None = None
    trace_span: dict | None = None


def execute_selection_subshard(config: PipelineConfig, spec: SelectionSubShard,
                               web_and_crux: tuple[SyntheticWeb, CruxTable] | None = None,
                               filled_countries: set[str] | None = None,
                               ) -> SelectionSubShardResult:
    """Speculatively evaluate one rank window of one country (pure).

    Crawls the window's candidates, measures native shares, and builds the
    site record for each would-qualify candidate from its validation-time
    parse — all without touching selection state.  Whether each evaluation
    is *committed* (counted, selected) is decided later by the parent's
    rank-ordered merge, so running windows out of order, concurrently or
    redundantly cannot change the outcome.

    Args:
        config: The pipeline configuration.
        spec: The window to evaluate.
        web_and_crux: The prebuilt web and ranking (``None`` regenerates
            them deterministically per process, as for country shards).
        filled_countries: Optional live set of countries whose quota already
            filled; sub-shards of those return an empty ``skipped`` result
            without crawling.  Only same-process backends can observe
            updates (a process backend pickles the set's state at submit
            time), which is safe either way: skipping is a pure
            optimisation, the merge discards past-quota evaluations
            regardless.
    """
    if filled_countries is not None and spec.country_code in filled_countries:
        obs_trace.event("window.skipped", {"country": spec.country_code,
                                           "chunk": spec.chunk_index})
        return SelectionSubShardResult(spec=spec, evaluations=[], records=[],
                                       skipped=True)
    web, crux = web_and_crux if web_and_crux is not None else _cached_web(config)
    tracer = _ensure_tracing(config)
    window_span = tracer.start_span(
        "window", {"country": spec.country_code, "chunk": spec.chunk_index,
                   "start": spec.start, "stop": spec.stop}) \
        if tracer is not None else None
    selector = selector_for_country(config, spec.country_code, web)
    perf_counters = perf.PerfCounters() if config.profile else None
    try:
        try:
            with perf.collecting(perf_counters):
                evaluations = selector.evaluate_window(
                    crux.iter_ranked(spec.country_code), spec.start, spec.stop,
                    max_in_flight=config.max_in_flight)
                audit_engine = AuditEngine()  # per-sub-shard: never shared across workers
                records: list[SiteRecord | None] = []
                slimmed: list[CandidateEvaluation] = []
                for evaluation in evaluations:
                    qualifies = (evaluation.fetch_succeeded
                                 and evaluation.native_share >= config.language_threshold)
                    records.append(record_from_crawl(evaluation.record, audit_engine,
                                                     documents=evaluation.documents or None)
                                   if qualifies else None)
                    slim = evaluation.without_documents()
                    if not qualifies and slim.record.pages:
                        slim = replace(slim, record=replace(slim.record, pages=[]))
                    slimmed.append(slim)
        finally:
            session = selector.crawler.session
            session.close()
        # The window's crawl is over and every retained payload now lives on the
        # evaluations/records above; evict the synthetic origins' generated page
        # HTML so the (possibly shared) web does not grow with every origin
        # visited.  Regeneration is seeded, so a late refetch is byte-identical.
        for entry in crux.entries(spec.country_code)[spec.start:spec.stop]:
            if entry.origin in web:
                web.site(entry.origin).clear_page_cache()
        stack = session.transport_stack
        return SelectionSubShardResult(
            spec=spec, evaluations=slimmed, records=records,
            transport_metrics=stack.metrics if stack is not None else None,
            perf_metrics=perf_counters,
            trace_span=({"trace": tracer.trace_id,
                         "span": window_span.span_id,
                         "parent": window_span.parent_id}
                        if window_span is not None else None))
    finally:
        if window_span is not None:
            tracer.end_span(window_span)
            # Window boundaries are the durability points: pool children
            # exit via os._exit (no atexit), so anything still buffered
            # here would be lost with them.
            tracer.writer.flush()


@dataclass
class _CountryMergeState:
    """Accumulator for one country while its sub-shards stream in.

    Holds no site records: accepted records are committed to the run's
    :class:`RecordSink` the moment their window commits, so the state
    carries only counters and metrics — the memory contract of windowed
    streaming.
    """

    country_code: str
    index: int
    committer: RankOrderCommitter
    remaining_chunks: int
    records_committed: int = 0
    duration_s: float = 0.0
    sub_shards_merged: int = 0
    done: bool = False
    transport_metrics: TransportMetrics | None = None
    perf_metrics: perf.PerfCounters | None = None

    def merge_transport(self, metrics: TransportMetrics | None) -> None:
        if metrics is None:
            return
        if self.transport_metrics is None:
            self.transport_metrics = TransportMetrics()
        self.transport_metrics.merge(metrics)

    def merge_perf(self, counters: perf.PerfCounters | None) -> None:
        if counters is None:
            return
        if self.perf_metrics is None:
            self.perf_metrics = perf.PerfCounters()
        self.perf_metrics.merge(counters)


@dataclass
class _RunTotals:
    """Run-level transport/perf aggregation.

    Per-country shards merge their metrics here, and the sub-sharded merge
    loop folds the cost of *late* speculative windows — windows whose
    country had already finalized when their result arrived, including
    windows still in flight when the last country finalized — directly into
    these totals, so ``PipelineResult.transport_metrics`` /
    ``perf_metrics`` account for every window that actually ran.
    """

    transport: TransportMetrics | None = None
    perf: perf.PerfCounters | None = None

    def merge_transport(self, metrics: TransportMetrics | None) -> None:
        if metrics is None:
            return
        if self.transport is None:
            self.transport = TransportMetrics()
        self.transport.merge(metrics)

    def merge_perf(self, counters: perf.PerfCounters | None) -> None:
        if counters is None:
            return
        if self.perf is None:
            self.perf = perf.PerfCounters()
        self.perf.merge(counters)


class RecordSink:
    """Routes committed site records to disk and/or memory as they commit.

    One sink serves a whole run.  Windowed streaming hands it one window's
    records at a time; whole-country shards hand it a country's records at
    once; the distributed coordinator hands it pre-serialized record lines
    decoded from worker result files (:meth:`commit_serialized`).  The sink
    opens a writer *section* per country lazily on the country's first
    record and closes it via :meth:`finish_country`, so a country's lines
    land contiguously no matter how many windows they arrive in, and the
    writer refuses to commit while a country is half-written.

    It also observes the record flow: ``committed`` (total records),
    ``first_record_s`` (time from sink creation to the first committed
    record) and ``buffer_peak`` (the largest batch ever resident awaiting
    commit — the record-buffer high-water mark surfaced as the
    ``stream.buffer_peak_records`` gauge).
    """

    def __init__(self, writer: StreamingDatasetWriter | None,
                 dataset: LangCrUXDataset | None) -> None:
        self.writer = writer
        self.dataset = dataset
        self.committed = 0
        self.buffer_peak = 0
        self.first_record_s: float | None = None
        self._started = time.perf_counter()
        self._open_country: str | None = None

    def commit(self, country_code: str, records: Sequence[SiteRecord]) -> None:
        """Commit a rank-contiguous batch of ``country_code`` records."""
        if not records:
            return
        self._observe(len(records))
        if self.writer is not None:
            self._enter_section(country_code)
            self.writer.write_many(records)
        if self.dataset is not None:
            self.dataset.extend(records)
        self.committed += len(records)
        obs_trace.event("records.commit", {"country": country_code,
                                           "records": len(records)})

    def commit_serialized(self, country_code: str, lines: Sequence[str]) -> None:
        """Commit pre-serialized record lines (no in-memory accumulation).

        Distributed workers serialize each accepted record exactly as
        :meth:`StreamingDatasetWriter.write` would, so the coordinator can
        merge them into the stream verbatim — byte-identical to a
        single-host build without reconstructing :class:`SiteRecord`\\ s.
        """
        if not lines:
            return
        if self.writer is None:
            raise ValueError("commit_serialized requires a stream writer")
        self._observe(len(lines))
        self._enter_section(country_code)
        for line in lines:
            self.writer.write_serialized(line)
        self.committed += len(lines)
        obs_trace.event("records.commit", {"country": country_code,
                                           "records": len(lines)})

    def _observe(self, batch: int) -> None:
        if self.first_record_s is None:
            self.first_record_s = time.perf_counter() - self._started
        if batch > self.buffer_peak:
            self.buffer_peak = batch

    def _enter_section(self, country_code: str) -> None:
        if self._open_country != country_code:
            self.writer.begin_section(country_code)
            self._open_country = country_code

    def finish_country(self, country_code: str) -> None:
        """Close the country's writer section, if one was opened."""
        if self.writer is not None and self._open_country == country_code:
            self.writer.end_section()
            self._open_country = None


#: Backwards-compatible private alias (the sink predates the dist package).
_RecordSink = RecordSink


class LangCrUXPipeline:
    """Builds a LangCrUX dataset over the synthetic web."""

    def __init__(self, config: PipelineConfig | None = None,
                 *, web: SyntheticWeb | None = None,
                 crux_table: CruxTable | None = None) -> None:
        self.config = config or PipelineConfig()
        self._web = web
        self._crux = crux_table
        self._web_supplied = web is not None or crux_table is not None

    # -- stage 1: the web ---------------------------------------------------------

    def build_web(self) -> tuple[SyntheticWeb, CruxTable]:
        """Generate candidate sites for every configured country."""
        if self._web is not None and self._crux is not None:
            return self._web, self._crux
        self._web, self._crux = build_web_for_config(self.config)
        return self._web, self._crux

    # -- stage 2: vantage points -----------------------------------------------------

    def vantage_for(self, country_code: str) -> VantagePoint:
        """The crawl vantage for a country under the current configuration."""
        return vantage_for_country(self.config, country_code)

    # -- stage 3: selection + crawl -----------------------------------------------------

    def select_country(self, country_code: str) -> SelectionOutcome:
        """Run selection + crawling for one country."""
        web, crux = self.build_web()
        return select_country_sites(self.config, country_code, web, crux)

    # -- stage 4: extraction + audit ------------------------------------------------------

    def record_from_crawl(self, crawl_record: CrawlRecord) -> SiteRecord:
        """Extraction + audit of one crawled origin."""
        return record_from_crawl(crawl_record)

    # -- stage 5: the dataset ------------------------------------------------------------------

    def _executor(self) -> PipelineExecutor:
        return create_executor(self.config.executor, self.config.workers)

    def run(self, executor: PipelineExecutor | None = None, *,
            stream_to: str | Path | None = None,
            keep_in_memory: bool = True,
            slim_outcomes: bool | None = None) -> PipelineResult:
        """Execute the full pipeline for every configured country.

        Shards are dispatched on the configured executor (or an explicit
        ``executor`` argument) and their finished records stream back
        through a bounded queue; the reorder buffer of ``run_ordered``
        assembles the dataset in the configured country order, so the
        output is identical for every backend and worker count.

        Args:
            executor: Overrides the configured execution backend.
            stream_to: Stream records to this JSONL path as they commit,
                through an atomically-committed
                :class:`~repro.core.dataset.StreamingDatasetWriter`.  On a
                sub-sharded run records reach the writer per committed
                *window* — first bytes land while the first country is
                still crawling — inside per-country writer sections;
                otherwise per country shard.  Either way commit order
                matches the sequential merge order, so the streamed file is
                byte-identical to ``save_jsonl`` of the in-memory dataset;
                a failed run leaves the destination untouched.
            keep_in_memory: Whether to also accumulate the records on
                ``PipelineResult.dataset``.  Pass ``False`` (streaming runs
                only) when the dataset is consumed from the streamed file:
                site records are then dropped as soon as they are on disk.
            slim_outcomes: Whether to strip crawl payloads (page HTML,
                carried documents) from each shard's selection outcome once
                its records are safely accumulated/streamed, keeping only
                counters and per-page metadata (see
                :func:`slim_selection_outcome`).  Default (``None``): slim
                exactly when ``keep_in_memory`` is off — a streaming run's
                resident state then stays O(counters) instead of retaining
                every selected page's HTML for the whole run.
        """
        if not keep_in_memory and stream_to is None:
            raise ValueError("keep_in_memory=False requires stream_to: "
                             "the records would otherwise be lost")
        if slim_outcomes is None:
            slim_outcomes = not keep_in_memory
        # Tracing + live status are set up before anything traced runs.
        # The allocated trace id and the root span's id are stamped into
        # the config so every worker — thread, pickled process-pool or
        # (via build.json) distributed — parents its spans correctly.
        tracer = _ensure_tracing(self.config)
        root_span = None
        reporter = None
        if tracer is not None:
            self.config.trace_id = tracer.trace_id
            root_span = tracer.start_span(
                "build", {"countries": ",".join(self.config.countries),
                          "quota": self.config.sites_per_country,
                          "seed": self.config.seed,
                          "executor": self.config.executor,
                          "workers": self.config.workers})
            self.config.trace_parent = root_span.span_id
            tracer.default_parent = root_span.span_id
        try:
            web, crux = self.build_web()
            backend = executor if executor is not None else self._executor()
            dataset = LangCrUXDataset()
            writer = StreamingDatasetWriter(stream_to) if stream_to is not None else None
            sink = RecordSink(writer, dataset if keep_in_memory else None)
            totals = _RunTotals()
            if self.config.sub_shard_size is not None:
                shard_stream = self._run_subsharded(backend, web, crux, sink, totals,
                                                    slim_records=slim_outcomes)
            else:
                shard_stream = self._run_country_shards(backend, web, crux, sink)
            outcomes: dict[str, SelectionOutcome] = {}
            vantages: dict[str, VantagePoint] = {}
            metrics: dict[str, ShardMetrics] = {}
            if tracer is not None:
                reporter = StatusReporter(
                    self.config.trace_dir, "build",
                    lambda: {"trace": self.config.trace_id,
                             "records_streamed": sink.committed,
                             "countries_done": len(outcomes),
                             "countries_total": len(self.config.countries)})
                reporter.start()
            try:
                for shard, metric in shard_stream:
                    vantages[shard.country_code] = shard.vantage
                    outcomes[shard.country_code] = shard.outcome
                    if slim_outcomes:
                        slim_selection_outcome(shard.outcome)
                    totals.merge_transport(shard.transport_metrics)
                    totals.merge_perf(shard.perf_metrics)
                    metrics[shard.country_code] = metric
            except BaseException:
                if writer is not None:
                    writer.abort()
                raise
            if writer is not None:
                with obs_trace.span("dataset.commit",
                                    {"path": str(stream_to)}):
                    streamed = writer.close()
            else:
                streamed = 0
        finally:
            if reporter is not None:
                reporter.stop()
            if tracer is not None:
                tracer.end_span(root_span)
                obs_trace.disable()
        if totals.perf is not None:
            for name, value in perf.memory_gauges().items():
                totals.perf.gauge(name, value)
            if sink.first_record_s is not None:
                totals.perf.gauge("stream.first_record_s", sink.first_record_s)
            totals.perf.gauge("stream.buffer_peak_records", float(sink.buffer_peak))
        # Usable workers are capped by the number of work units: countries,
        # or sub-shard windows when the walk is sub-sharded (the whole point
        # of sub-sharding is that this cap exceeds the country count).
        if self.config.sub_shard_size is not None:
            work_units = sum(
                len(plan_chunks(crux.size(country), self.config.sub_shard_size))
                for country in self.config.countries)
        else:
            work_units = len(self.config.countries)
        return PipelineResult(dataset=dataset, crux_table=crux, web=web,
                              selection_outcomes=outcomes, vantages=vantages,
                              shard_metrics=metrics, executor_name=backend.name,
                              executor_workers=min(backend.workers, work_units),
                              stream_path=Path(stream_to) if stream_to is not None else None,
                              streamed_records=streamed,
                              transport_metrics=totals.transport,
                              perf_metrics=totals.perf,
                              time_to_first_record_s=sink.first_record_s,
                              record_buffer_peak=sink.buffer_peak)

    def _run_country_shards(self, backend: PipelineExecutor, web: SyntheticWeb,
                            crux: CruxTable, sink: RecordSink,
                            ) -> Iterator[tuple[CountryShard, ShardMetrics]]:
        """Dispatch whole-country shards, yielding them in configured order.

        Each shard's records are handed to ``sink`` (and dropped from the
        shard) before the shard is yielded, so the caller's loop never
        holds record payloads.
        """
        # Process workers rebuild the (lazily generated) web from the config
        # instead of receiving a pickled copy — unless the web was supplied
        # explicitly and cannot be derived from the config.
        if isinstance(backend, ProcessExecutor) and not self._web_supplied:
            shard_fn = functools.partial(execute_country_shard, self.config)
        else:
            shard_fn = functools.partial(execute_country_shard, self.config,
                                         web_and_crux=(web, crux))
        for result in backend.run_ordered(shard_fn, list(self.config.countries)):
            shard: CountryShard = result.value
            metric = ShardMetrics(shard=shard.country_code, index=result.index,
                                  duration_s=result.duration_s,
                                  records=len(shard.records))
            sink.commit(shard.country_code, shard.records)
            sink.finish_country(shard.country_code)
            shard.records = []
            yield shard, metric

    def _run_subsharded(self, backend: PipelineExecutor, web: SyntheticWeb,
                        crux: CruxTable, sink: RecordSink, totals: _RunTotals,
                        *, slim_records: bool,
                        ) -> Iterator[tuple[CountryShard, ShardMetrics]]:
        """Dispatch intra-country sub-shards and reassemble country shards.

        Sub-shards are submitted country by country in configured order (so
        ``run_ordered`` delivers each country's windows contiguously and in
        rank order) and their speculative evaluations are committed through
        per-country :class:`~repro.core.site_selection.RankOrderCommitter`s.
        A country finalizes — and is yielded, preserving the streaming
        order — as soon as its quota fills or its ranking exhausts; its
        remaining sub-shards are skipped via the shared filled flag or
        discarded on arrival.  Once every country has finalized, the
        executor stream is drained (folding the cost of still-in-flight
        speculative windows into ``totals``) and closed.

        Records flow through ``sink`` per *committed window*: each batch of
        newly accepted records is committed the moment its window merges,
        and — with ``slim_records`` — the matching slice of
        ``outcome.selected`` is slimmed in the same step, so resident state
        is bounded by in-flight windows instead of whole countries.
        Speculative results for non-frontier countries cannot pile up
        either: the thread backend's bounded result queue and the process
        backend's bounded lazy submission window cap undelivered results at
        O(workers + queue) windows.
        """
        config = self.config
        assert config.sub_shard_size is not None
        specs = plan_selection_windows(config, crux)
        states: dict[str, _CountryMergeState] = {}
        for position, country in enumerate(config.countries):
            states[country] = _CountryMergeState(
                country_code=country, index=position,
                committer=RankOrderCommitter(config.sites_per_country,
                                             config.language_threshold,
                                             country_code=country),
                remaining_chunks=0)
        for spec in specs:
            states[spec.country_code].remaining_chunks += 1
        filled: set[str] = set()
        if isinstance(backend, ProcessExecutor):
            # Workers in other processes cannot observe the live flag (and
            # rebuild the web per process when it is config-derived), so the
            # *parent* filters instead: the process backend consumes its
            # work lazily through a bounded submission window, and this
            # generator is evaluated at submit time — once a country
            # finalizes, none of its still-unsubmitted windows are ever
            # scheduled, bounding speculation waste to in-flight windows on
            # every backend.
            web_and_crux = (web, crux) if self._web_supplied else None
            subshard_fn = functools.partial(execute_selection_subshard, config,
                                            web_and_crux=web_and_crux)
            work: Sequence[SelectionSubShard] | Iterator[SelectionSubShard] = (
                spec for spec in specs if spec.country_code not in filled)
        else:
            subshard_fn = functools.partial(execute_selection_subshard, config,
                                            web_and_crux=(web, crux),
                                            filled_countries=filled)
            work = specs
        order = list(config.countries)
        finalized = 0

        def finalize(state: _CountryMergeState) -> tuple[CountryShard, ShardMetrics]:
            state.done = True
            filled.add(state.country_code)
            sink.finish_country(state.country_code)
            shard = CountryShard(
                country_code=state.country_code,
                vantage=vantage_for_country(config, state.country_code),
                outcome=state.committer.outcome,
                records=[],
                transport_metrics=state.transport_metrics,
                perf_metrics=state.perf_metrics)
            metric = ShardMetrics(shard=state.country_code, index=state.index,
                                  duration_s=state.duration_s,
                                  records=state.records_committed,
                                  sub_shards=state.sub_shards_merged)
            return shard, metric

        stream = backend.run_ordered(subshard_fn, work)
        try:
            for result in stream:
                sub: SelectionSubShardResult = result.value
                state = states[sub.spec.country_code]
                if state.done:
                    # Quota filled earlier; the speculation is discarded but
                    # its cost still lands in the run-level totals.
                    totals.merge_transport(sub.transport_metrics)
                    totals.merge_perf(sub.perf_metrics)
                    continue
                state.duration_s += result.duration_s
                state.merge_transport(sub.transport_metrics)
                state.merge_perf(sub.perf_metrics)
                if not sub.skipped:
                    state.sub_shards_merged += 1
                    record_for = {evaluation.entry: record
                                  for evaluation, record
                                  in zip(sub.evaluations, sub.records)}
                    accepted = state.committer.commit_chunk(sub.evaluations)
                    window_records: list[SiteRecord] = []
                    for evaluation, _site in accepted:
                        # Workers build records for exactly the candidates
                        # the committer accepts (same succeeded + threshold
                        # rule).
                        record = record_for[evaluation.entry]
                        assert record is not None
                        window_records.append(record)
                    if window_records:
                        # Rank-order commit serializes windows and countries
                        # finalize in submission order, so committing here —
                        # mid-country — still writes the stream in exactly
                        # the sequential byte order.
                        sink.commit(state.country_code, window_records)
                        state.records_committed += len(window_records)
                    if slim_records and accepted:
                        # Slim the just-committed slice of the outcome now
                        # that its records are safely on disk, instead of
                        # waiting for the whole country.
                        selected = state.committer.outcome.selected
                        for i in range(len(selected) - len(accepted),
                                       len(selected)):
                            selected[i] = _slim_selected_site(selected[i])
                state.remaining_chunks -= 1
                # Finalize the frontier of completed countries in configured
                # order; zero-window countries finalize when reached.
                while finalized < len(order):
                    frontier = states[order[finalized]]
                    if not frontier.done and not (frontier.committer.filled
                                                  or frontier.remaining_chunks == 0):
                        break
                    if not frontier.done:
                        yield finalize(frontier)
                    finalized += 1
                if finalized == len(order):
                    # Every country is final; what remains in the stream is
                    # speculative windows already in flight.  Drain them so
                    # their transport/perf cost reaches the run totals
                    # (queued-but-unstarted windows short-circuit as cheap
                    # ``skipped`` results or are never submitted at all),
                    # then close, which cancels nothing still pending.
                    for result in stream:
                        late: SelectionSubShardResult = result.value
                        totals.merge_transport(late.transport_metrics)
                        totals.merge_perf(late.perf_metrics)
                    break
        finally:
            stream.close()
        # Countries with no sub-shards at all (empty rankings) never appear
        # in the stream; flush them so every configured country reports.
        while finalized < len(order):
            state = states[order[finalized]]
            if not state.done:
                yield finalize(state)
            finalized += 1
