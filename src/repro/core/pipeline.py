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

Stages 2–4 are independent per country, and within a country per
candidate, so the unit of work is one **selection window**: a rank slice
of one country's ranking (:class:`SelectionSubShard`), evaluated by the
pure function :func:`execute_selection_subshard` on whichever backend runs
it (serial or process pool from :mod:`repro.core.executor`, or the
distributed work queue of :mod:`repro.dist`).  Without ``sub_shard_size``
each country is a single window over its whole ranking; with it, rankings are
cut into windows of that many candidates so one large country can occupy
every worker.  A window constructs its own transport, crawl session and
audit engine, crawls and measures its candidates (``max_in_flight`` at a
time on one event loop), and speculatively builds the site record of every
candidate that would qualify from the already-parsed documents.  Each
candidate origin draws its transport randomness from its own stream seeded
by ``stable_seed(seed, "transport", country, domain)``, so a window's
result depends on nothing but the config — not on worker counts, window
sizes or completion interleavings.

One dispatch-and-merge loop serves every backend
(:meth:`LangCrUXPipeline._run_windows`; the distributed
:class:`~repro.dist.coordinator.Coordinator` is just another executor):
window results are committed in strict rank order through the country's
:class:`CountryMerge`, whose
:class:`~repro.core.site_selection.RankOrderCommitter` discards evaluations
past the quota uncounted.  Windows of a filled country are never
dispatched, and once every country is finalized the executor stream is
closed.  Selected sets, rejection counters and output JSONL are
byte-identical to the sequential walk for every ``(executor, workers,
sub_shard_size, max_in_flight)`` combination.

:meth:`LangCrUXPipeline.run` can stream records straight to disk through
:class:`~repro.core.dataset.StreamingDatasetWriter` (``stream_to``).
Records reach the writer per committed window — the rank-order merge
already serializes them — inside a per-country writer section, and with
``keep_in_memory=False`` each record leaves memory the moment it is on
disk, with its selection outcome slimmed window by window.  Peak resident
state is then proportional to in-flight windows (``workers ×
sub_shard_size`` pages plus the executor's bounded reorder buffer), not to
``sites_per_country``; time-to-first-record, the record-buffer high-water
mark and the process's peak RSS are tracked on :class:`PipelineResult` and
— under ``profile=True`` — as ``max``-merged gauges on
``PipelineResult.perf_metrics``.

The result object keeps the intermediate artifacts (ranking, selection
outcomes, per-shard timing metrics) because several benchmark harnesses
report on them directly (Figure 7 uses the ranking, the selection benchmark
uses the outcomes, the scaling benchmark uses the shard metrics).
"""

from __future__ import annotations

import functools
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
    ShardMetrics,
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
from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.metrics import TransportMetrics
from repro.crawler.records import CrawlRecord
from repro.crawler.session import CrawlSession
from repro.crawler.transport import HttpAsyncTransport, TransportStack, build_transport_stack
from repro.crawler.vpn import DEFAULT_PROVIDERS, VantagePoint, VPNCoverageError, VPNManager
from repro.html.dom import Document
from repro.html.index import DocumentIndex
from repro.html.parser import parse_html
from repro.langid.detector import LanguageShare
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
        workers: Number of selection windows evaluated concurrently (a
            worker runs windows, not whole countries, so one large country
            can occupy several workers when ``sub_shard_size`` is set).
            The default of 1 is the sequential build; any value produces
            the same dataset bytes (per-window seeding).
        executor: Execution backend — ``"auto"`` (serial for one worker,
            a process pool otherwise), ``"serial"`` or ``"process"``.
        max_in_flight: Concurrent candidate crawls inside one window (the
            async batched fetch layer).  1 keeps the sequential walk;
            any value produces the same dataset bytes (per-candidate RNG
            splits).
        sub_shard_size: When set, each country's ranking is cut into
            windows of this many candidates, so a single large country can
            occupy every worker.  ``None`` (the default) makes each country
            one window over its whole ranking.  Any value produces the same
            dataset bytes: windows are evaluated speculatively but
            committed in strict rank order.
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
            every worker — process-pool or distributed — joins the same
            trace); set explicitly to adopt an external trace.
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
    profile: bool = False
    trace_dir: str | None = None
    trace_id: str | None = None
    trace_parent: str | None = None


#: Transport kinds accepted by :class:`PipelineConfig` (and the CLI).
TRANSPORT_KINDS = ("simulated", "http")


class CrawlFailedError(RuntimeError):
    """Every network request of a run raised: not one page was fetched."""


@dataclass
class PipelineResult:
    """Everything a pipeline run produces.

    ``time_to_first_record_s`` and ``record_buffer_peak`` describe the
    record flow of the run: how long until the first site record was
    committed (to the stream writer when streaming, to the in-memory
    dataset otherwise), and the largest batch of records that was ever
    resident awaiting commit — at most one window's accepted records.
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


# -- pure per-window functions ------------------------------------------------------
#
# Everything below takes the config (plus the prebuilt web) explicitly so it
# can run on any executor backend, including process pools where the window
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


#: The process's memoized web: ``(fingerprint, (web, crux))`` of the last
#: config asked for, or ``None``.  One slot, so a process never holds more
#: than one memoized web.
_WEB_MEMO: tuple[tuple, tuple[SyntheticWeb, CruxTable]] | None = None


def web_for_config(config: PipelineConfig) -> tuple[SyntheticWeb, CruxTable]:
    """The web and ranking for ``config``, built once per process.

    The pipeline and every window it runs in the same process share one
    web, and a pool worker handling many windows builds it at most once
    (a forked worker inherits the parent's).  Regenerated pages are
    seeded, so sharing the web cannot change any output.
    """
    global _WEB_MEMO
    fingerprint = _web_fingerprint(config)
    if _WEB_MEMO is None or _WEB_MEMO[0] != fingerprint:
        _WEB_MEMO = None  # release the old web before building the new one
        _WEB_MEMO = (fingerprint, build_web_for_config(config))
    return _WEB_MEMO[1]


def _forget_web() -> None:
    """Empty the memo; a finished build's web then lives only on its result."""
    global _WEB_MEMO
    _WEB_MEMO = None


def _ensure_tracing(config: PipelineConfig):
    """Join the run's trace in this process, or ``None`` when untraced.

    The per-process idempotence of :func:`repro.obs.trace.ensure` makes
    this safe to call from every window entry point: the first call
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
    wants_http = config.transport == "http"
    wants_extras = (config.crawl_cache is not None or config.rate_limit is not None
                    or config.max_per_host is not None)
    if not wants_http and not wants_extras:
        return None
    base = HttpAsyncTransport(gateway=config.http_gateway,
                              timeout_s=config.http_timeout_s) \
        if wants_http else _simulated_transport(config, country_code, web)
    return build_transport_stack(
        base,
        rate_per_host=config.rate_limit,
        max_per_host=config.max_per_host,
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
    straight through the simulated transport.  Either way the fetcher is
    the one retry loop, above the crawl cache when there is one.
    """
    if vantage is None:
        vantage = vantage_for_country(config, country_code)
    stack = transport_stack_for_country(config, country_code, web)
    transport = stack.transport if stack is not None \
        else _simulated_transport(config, country_code, web)
    session = CrawlSession(fetcher=Fetcher(transport), vantage=vantage,
                           respect_robots=config.respect_robots,
                           transport_stack=stack)
    crawler_config = CrawlerConfig(
        max_pages_per_site=config.max_pages_per_site,
        follow_links=config.max_pages_per_site > 1,
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


def record_from_crawl(crawl_record: CrawlRecord,
                      audit_engine: AuditEngine | None = None, *,
                      documents: Sequence[Document | DocumentIndex] | None = None,
                      share: LanguageShare | None = None) -> SiteRecord:
    """Extraction + audit of one crawled origin (pure per-shard).

    Each page is parsed exactly once; extraction and audit then share the
    parsed :class:`~repro.html.dom.Document` and — through
    :meth:`~repro.html.dom.Document.index` — one
    :class:`~repro.html.index.DocumentIndex` per page, so the per-page cost
    is a single DOM traversal instead of one per rule and element group.

    Args:
        crawl_record: The crawled origin.
        audit_engine: The audit engine to use (a fresh one when ``None``).
        documents: The record's pages already parsed (in page order, one per
            ``ok`` HTML page), e.g. carried over from selection validation
            via :class:`~repro.core.site_selection.SelectedSite.documents`.
            Skips the re-parse; since parsing is deterministic, the produced
            record is byte-identical either way.  Accessors are accepted in
            place of documents (the parity tests pass their naive one).
        share: The pages' visible-text language share when already measured
            (:attr:`~repro.core.site_selection.CandidateEvaluation.share`);
            computed from the extraction when ``None``.
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
            [extract_page(document) for document in documents])
        audit: dict[str, dict] = {}
        if documents:
            report = engine.audit_document(documents[0])
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
            share=share,
        )


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
    documents are dropped, taking a streaming run's resident state from
    O(selected HTML) to O(counters).  Streaming runs apply the same step
    per committed window (:meth:`CountryMerge.commit_window`); the records
    themselves were already dropped via ``keep_in_memory=False``.
    """
    outcome.selected = [_slim_selected_site(selected)
                        for selected in outcome.selected]


# -- selection windows -----------------------------------------------------------------


@dataclass(frozen=True)
class SelectionSubShard:
    """One executor work unit: a rank window of one country's ranking.

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
    """Every selection window of a run, in country-major rank order (pure).

    Each country's ranking is cut into windows of ``sub_shard_size``
    candidates; without a ``sub_shard_size`` a country is one window over
    its whole ranking.  This is *the* deterministic work split: both the
    in-process merge loop and the distributed coordinator plan from it, so
    a window's identity — and therefore its evaluation result — is a
    function of the config alone, never of who executes it.
    """
    specs: list[SelectionSubShard] = []
    for country in config.countries:
        size = crux.size(country)
        window = max(size, 1) if config.sub_shard_size is None else config.sub_shard_size
        specs.extend(
            SelectionSubShard(country_code=country, chunk_index=chunk_index,
                              start=start, stop=stop)
            for chunk_index, (start, stop) in enumerate(plan_chunks(size, window)))
    return specs


@dataclass
class SelectionSubShardResult:
    """The speculative output of one window.

    ``evaluations`` come back rank-ordered and slimmed for the trip home:
    documents are stripped, and non-qualifying candidates also drop their
    page snapshots (the committer only consults their pre-derived
    ``fetch_succeeded``, and only qualifying candidates' crawl records are
    retained on the outcome), so a process backend never ships rejected
    HTML parent-ward.  ``records`` holds, aligned with ``evaluations``, the
    speculatively built site record for every candidate that would qualify
    (``None`` otherwise) — or, in a result decoded from a distributed
    worker's file, that record's serialized JSONL line.

    ``trace_span`` carries the window span's identity (trace id, span id,
    parent span id) when the evaluating process traced the window — the
    parentage stamp that lets ``langcrux trace`` join a distributed
    worker's spans into the coordinator's tree.
    """

    spec: SelectionSubShard
    evaluations: list[CandidateEvaluation]
    records: list[SiteRecord | str | None]
    transport_metrics: TransportMetrics | None = None
    perf_metrics: perf.PerfCounters | None = None
    trace_span: dict | None = None


def _walk_window(config: PipelineConfig, spec: SelectionSubShard, web: SyntheticWeb,
                 crux: CruxTable) -> tuple[list[CandidateEvaluation], TransportMetrics | None]:
    """Crawl and measure one window, then release its crawl session.

    Returns the evaluations with the transport stack's metrics snapshot
    (``None`` on the plain simulated fast path), the fetcher's retries
    folded in.  The crawler and its transport die on return, before any
    record is built.
    """
    selector = selector_for_country(config, spec.country_code, web)
    session = selector.crawler.session
    try:
        with obs_trace.span("select", {"country": spec.country_code,
                                       "quota": config.sites_per_country}):
            evaluations = selector.evaluate_window(
                crux.iter_ranked(spec.country_code), spec.start, spec.stop,
                max_in_flight=config.max_in_flight, quota=config.sites_per_country)
    finally:
        session.close()
    stack = session.transport_stack
    if stack is None:
        return evaluations, None
    stack.metrics.add("retries", session.fetcher.stats["retries"])
    return evaluations, stack.metrics


def execute_selection_subshard(config: PipelineConfig, spec: SelectionSubShard,
                               web_and_crux: tuple[SyntheticWeb, CruxTable] | None = None,
                               ) -> SelectionSubShardResult:
    """Speculatively evaluate one rank window of one country (pure).

    Crawls the window's candidates, measures native shares, and builds the
    site record for each would-qualify candidate from its validation-time
    parse — all without touching selection state.  Whether each evaluation
    is *committed* (counted, selected) is decided later by the parent's
    rank-ordered merge, so running windows out of order, concurrently or
    redundantly cannot change the outcome.

    The window's span is named ``shard`` when the run is not sub-sharded
    (the window is the whole country) and ``window`` otherwise; the walk
    itself is a nested ``select`` span.

    Args:
        config: The pipeline configuration.
        spec: The window to evaluate.
        web_and_crux: A caller-supplied web and ranking.  ``None`` (the
            usual case) takes them from the process's memo
            (:func:`web_for_config`) instead of pickling the whole web into
            a pool worker.
    """
    web, crux = web_and_crux if web_and_crux is not None else web_for_config(config)
    tracer = _ensure_tracing(config)
    window_span = tracer.start_span(
        "shard" if config.sub_shard_size is None else "window",
        {"country": spec.country_code, "chunk": spec.chunk_index,
         "start": spec.start, "stop": spec.stop}) \
        if tracer is not None else None
    perf_counters = perf.PerfCounters() if config.profile else None
    try:
        with perf.collecting(perf_counters):
            evaluations, transport_metrics = _walk_window(config, spec, web, crux)
            audit_engine = AuditEngine()  # per window: never shared across workers
            records: list[SiteRecord | None] = []
            slimmed: list[CandidateEvaluation] = []
            for evaluation in evaluations:
                records.append(record_from_crawl(evaluation.record, audit_engine,
                                                 documents=evaluation.documents or None,
                                                 share=evaluation.share)
                               if evaluation.qualifies(config.language_threshold)
                               else None)
                slimmed.append(evaluation.without_documents())
        # The window's crawl is over and every retained payload now lives on the
        # evaluations/records above; evict the synthetic origins' generated page
        # HTML so the (possibly shared) web does not grow with every origin
        # visited.  Regeneration is seeded, so a late refetch is byte-identical.
        for entry in crux.entries(spec.country_code)[spec.start:spec.stop]:
            if entry.origin in web:
                web.site(entry.origin).clear_page_cache()
        return SelectionSubShardResult(
            spec=spec, evaluations=slimmed, records=records,
            transport_metrics=transport_metrics,
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


# -- the merge ---------------------------------------------------------------------------


@dataclass
class CountryMerge:
    """One country's rank-order merge: window results in, records out.

    The merge loop (:meth:`LangCrUXPipeline._run_windows`) commits every
    window through :meth:`commit_window` and closes the country with
    :meth:`finalize`, whichever backend ran the windows.  The state holds
    no site records: accepted payloads go to the run's :class:`RecordSink`
    the moment their window commits, so it carries only the committer and
    counters — the memory contract of windowed streaming.
    """

    country_code: str
    index: int
    committer: RankOrderCommitter
    remaining_windows: int = 0
    records_committed: int = 0
    windows_merged: int = 0
    duration_s: float = 0.0
    done: bool = False

    @classmethod
    def for_country(cls, config: PipelineConfig, country_code: str,
                    index: int) -> "CountryMerge":
        return cls(country_code=country_code, index=index,
                   committer=RankOrderCommitter(config.sites_per_country,
                                                config.language_threshold,
                                                country_code=country_code))

    def commit_window(self, evaluations: Sequence[CandidateEvaluation],
                      payloads: Sequence[SiteRecord | str | None],
                      duration_s: float, sink: "RecordSink", *,
                      slim: bool = False) -> int:
        """Commit one window's rank-ordered evaluations; returns records committed.

        ``payloads`` is aligned with ``evaluations``: the window's worker
        built one for exactly the candidates the committer can accept (same
        fetch + threshold rule) — a :class:`SiteRecord`, or its serialized
        JSONL line when a distributed worker built it.  The accepted ones
        go to ``sink`` at once: windows commit in rank order and countries
        finalize in configured order, so committing mid-country still
        writes the stream in exactly the sequential byte order.  With
        ``slim`` the just-committed slice of the outcome drops its crawl
        payloads in the same step.
        """
        accepted: list = []
        for evaluation, payload in zip(evaluations, payloads):
            if self.committer.filled:
                break
            if self.committer.commit(evaluation) is not None:
                assert payload is not None
                accepted.append(payload)
        sink.commit(self.country_code, accepted)
        self.records_committed += len(accepted)
        self.windows_merged += 1
        self.duration_s += duration_s
        if slim and accepted:
            selected = self.committer.outcome.selected
            selected[-len(accepted):] = [_slim_selected_site(site)
                                         for site in selected[-len(accepted):]]
        return len(accepted)

    def finalize(self, sink: "RecordSink") -> ShardMetrics:
        """Close the country's writer section; returns its shard metrics."""
        self.done = True
        sink.finish_country(self.country_code)
        return ShardMetrics(shard=self.country_code, index=self.index,
                            duration_s=self.duration_s,
                            records=self.records_committed,
                            sub_shards=self.windows_merged)


@dataclass
class _RunTotals:
    """Run-level transport/perf aggregation.

    Every window result that ran — committed, or speculative and discarded
    because its country had already finalized — merges its metrics here,
    so ``transport_metrics`` / ``perf_metrics`` account for all of them.
    """

    transport: TransportMetrics | None = None
    perf: perf.PerfCounters | None = None

    def merge(self, transport: TransportMetrics | None,
              counters: perf.PerfCounters | None) -> None:
        if transport is not None:
            if self.transport is None:
                self.transport = TransportMetrics()
            self.transport.merge(transport)
        if counters is not None:
            if self.perf is None:
                self.perf = perf.PerfCounters()
            self.perf.merge(counters)

    def stamp_gauges(self, sink: "RecordSink") -> None:
        """Add the process's memory peaks and the sink's record-flow gauges."""
        if self.perf is None:
            return
        for name, value in perf.memory_gauges().items():
            self.perf.gauge(name, value)
        if sink.first_record_s is not None:
            self.perf.gauge("stream.first_record_s", sink.first_record_s)
        self.perf.gauge("stream.buffer_peak_records", float(sink.buffer_peak))


class RecordSink:
    """Routes committed site records to disk and/or memory as they commit.

    One sink serves a whole run.  The merge hands it one window's records
    at a time.  The sink opens a writer *section* per country lazily on
    the country's first record and closes it via :meth:`finish_country`,
    so a country's lines land contiguously no matter how many windows they
    arrive in, and the writer refuses to commit while a country is
    half-written.

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

    def commit(self, country_code: str, payloads: Sequence[SiteRecord | str]) -> None:
        """Commit a rank-contiguous batch of ``country_code`` records.

        A payload is a :class:`SiteRecord` (written through
        :meth:`StreamingDatasetWriter.write`) or a record line a
        distributed worker already serialized in exactly that format,
        written verbatim — byte-identical without rebuilding the record.
        Lines can only be streamed, never kept in memory.
        """
        if not payloads:
            return
        if self.dataset is not None and isinstance(payloads[0], str):
            raise ValueError("serialized record lines can only be streamed: "
                             "run with stream_to and keep_in_memory=False")
        self._observe(len(payloads))
        if self.writer is not None:
            self._enter_section(country_code)
            for payload in payloads:
                if isinstance(payload, str):
                    self.writer.write_serialized(payload)
                else:
                    self.writer.write(payload)
        if self.dataset is not None:
            self.dataset.extend(payloads)
        self.committed += len(payloads)
        obs_trace.event("records.commit", {"country": country_code,
                                           "records": len(payloads)})

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


class LangCrUXPipeline:
    """Builds a LangCrUX dataset over the synthetic web."""

    def __init__(self, config: PipelineConfig | None = None,
                 *, web: SyntheticWeb | None = None,
                 crux_table: CruxTable | None = None) -> None:
        self.config = config or PipelineConfig()
        # A caller-supplied web travels to every window; otherwise each
        # process takes the config's web from its memo.
        self._supplied = (web, crux_table) \
            if web is not None and crux_table is not None else None

    # -- stage 1: the web ---------------------------------------------------------

    def build_web(self) -> tuple[SyntheticWeb, CruxTable]:
        """Generate candidate sites for every configured country."""
        return self._supplied or web_for_config(self.config)

    # -- stage 2: vantage points -----------------------------------------------------

    def vantage_for(self, country_code: str) -> VantagePoint:
        """The crawl vantage for a country under the current configuration."""
        return vantage_for_country(self.config, country_code)

    # -- stages 3-5: selection windows, merged into the dataset -------------------------

    def run(self, executor: PipelineExecutor | None = None, *,
            stream_to: str | Path | None = None,
            keep_in_memory: bool = True,
            slim_outcomes: bool | None = None) -> PipelineResult:
        """Execute the full pipeline for every configured country.

        Every country's ranking is planned as selection windows
        (:func:`plan_selection_windows`: one window per country, or
        ``sub_shard_size``-candidate windows when set).  The windows are
        dispatched on the configured executor (or an explicit ``executor``
        argument), and ``run_ordered`` hands their results back in plan
        order.  Each result is committed through its country's
        :class:`CountryMerge` in strict rank order, so the output is
        identical for every backend, worker count and window size.

        Args:
            executor: Overrides the configured execution backend.
            stream_to: Stream records to this JSONL path as they commit,
                through an atomically-committed
                :class:`~repro.core.dataset.StreamingDatasetWriter`.
                Records reach the writer per committed window — on a
                sub-sharded run first bytes land while the first country is
                still crawling — inside per-country writer sections.  Commit
                order matches the sequential merge order, so the streamed
                file is byte-identical to ``save_jsonl`` of the in-memory
                dataset; a failed run leaves the destination untouched.
            keep_in_memory: Whether to also accumulate the records on
                ``PipelineResult.dataset``.  Pass ``False`` (streaming runs
                only) when the dataset is consumed from the streamed file:
                site records are then dropped as soon as they are on disk.
            slim_outcomes: Whether to strip crawl payloads (page HTML,
                carried documents) from the selection outcomes as each
                window's records are committed, keeping only counters and
                per-page metadata (see :func:`slim_selection_outcome`).
                Default (``None``): slim exactly when ``keep_in_memory`` is
                off — a streaming run's resident state then stays
                O(counters) instead of retaining every selected page's HTML
                for the whole run.
        """
        if not keep_in_memory and stream_to is None:
            raise ValueError("keep_in_memory=False requires stream_to: "
                             "the records would otherwise be lost")
        if slim_outcomes is None:
            slim_outcomes = not keep_in_memory
        backend = executor if executor is not None else create_executor(
            self.config.executor, self.config.workers)
        # Tracing + live status are set up before anything traced runs.
        # The allocated trace id and the root span's id are stamped into
        # the config so every worker — pickled process-pool or (via
        # build.json) distributed — parents its spans correctly.
        tracer = _ensure_tracing(self.config)
        root_span = None
        reporter = None
        if tracer is not None:
            self.config.trace_id = tracer.trace_id
            root_span = tracer.start_span(
                backend.trace_root,
                {"countries": ",".join(self.config.countries),
                 "quota": self.config.sites_per_country,
                 "seed": self.config.seed,
                 "executor": backend.name, "workers": backend.workers})
            self.config.trace_parent = root_span.span_id
            tracer.default_parent = root_span.span_id
        try:
            web, crux = self.build_web()
            specs = plan_selection_windows(self.config, crux)
            dataset = LangCrUXDataset()
            writer = StreamingDatasetWriter(stream_to) if stream_to is not None else None
            sink = RecordSink(writer, dataset if keep_in_memory else None)
            totals = _RunTotals()
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
                for outcome, metric in self._run_windows(backend, specs, sink, totals,
                                                         slim=slim_outcomes):
                    vantages[metric.shard] = vantage_for_country(self.config, metric.shard)
                    outcomes[metric.shard] = outcome
                    metrics[metric.shard] = metric
                transport = totals.transport
                if transport is not None and transport.network_requests \
                        and transport.network_errors == transport.network_requests:
                    # An unreachable network would otherwise publish an
                    # empty dataset as if every candidate had failed on its own.
                    raise CrawlFailedError(
                        f"all {transport.network_requests} network requests failed")
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
            _forget_web()
            if reporter is not None:
                reporter.stop()
            if tracer is not None:
                tracer.end_span(root_span)
                obs_trace.disable()
        totals.stamp_gauges(sink)
        return PipelineResult(dataset=dataset, crux_table=crux, web=web,
                              selection_outcomes=outcomes, vantages=vantages,
                              shard_metrics=metrics, executor_name=backend.name,
                              # Usable workers are capped by the work units.
                              executor_workers=min(backend.workers, len(specs)),
                              stream_path=Path(stream_to) if stream_to is not None else None,
                              streamed_records=streamed,
                              transport_metrics=totals.transport,
                              perf_metrics=totals.perf,
                              time_to_first_record_s=sink.first_record_s,
                              record_buffer_peak=sink.buffer_peak)

    def _run_windows(self, backend: PipelineExecutor, specs: list[SelectionSubShard],
                     sink: RecordSink, totals: _RunTotals, *, slim: bool,
                     ) -> Iterator[tuple[SelectionOutcome, ShardMetrics]]:
        """Dispatch selection windows and merge them into finalized countries.

        This is the only loop that dispatches and commits windows, for
        every backend.  The backend consumes a lazily filtered generator of
        ``specs`` (country by country in configured order, so
        ``run_ordered`` delivers each country's windows contiguously and in
        rank order) and each result is committed through the country's
        :class:`CountryMerge`, which hands accepted records to ``sink`` per
        committed window.  A country finalizes — and is yielded, preserving
        the streaming order — as soon as its quota fills or its ranking
        exhausts.  The generator is evaluated when the backend dispatches,
        so a finalized country's remaining windows are never dispatched;
        results of its windows already in flight are discarded on arrival.
        Once every country has finalized, the executor stream is drained
        (folding the cost of still-in-flight speculative windows into
        ``totals``) and closed.

        Resident state is bounded by in-flight windows, not whole
        countries: backends pull windows from the generator only as they
        hand results back (the process pool keeps ``workers + 1`` in
        flight, the work queue awaits one at a time).
        """
        config = self.config
        order = [CountryMerge.for_country(config, country, position)
                 for position, country in enumerate(config.countries)]
        merges = {merge.country_code: merge for merge in order}
        for spec in specs:
            merges[spec.country_code].remaining_windows += 1
        work = (spec for spec in specs if not merges[spec.country_code].done)
        window_fn = functools.partial(execute_selection_subshard, config,
                                      web_and_crux=self._supplied)
        finalized = 0

        def finalize(merge: CountryMerge) -> tuple[SelectionOutcome, ShardMetrics]:
            return merge.committer.outcome, merge.finalize(sink)

        stream = backend.run_ordered(window_fn, work)
        try:
            for result in stream:
                window: SelectionSubShardResult = result.value
                # Every window that ran lands in the run totals, including
                # speculation discarded because its country already filled.
                totals.merge(window.transport_metrics, window.perf_metrics)
                merge = merges[window.spec.country_code]
                if not merge.done:
                    merge.commit_window(window.evaluations, window.records,
                                        result.duration_s, sink, slim=slim)
                    merge.remaining_windows -= 1
                # Hold no window while the executor runs the next one.
                del result, window
                # Finalize the frontier of completed countries in configured
                # order; zero-window countries finalize when reached.
                while finalized < len(order) and (order[finalized].committer.filled
                                                  or order[finalized].remaining_windows == 0):
                    yield finalize(order[finalized])
                    finalized += 1
                if finalized == len(order):
                    # Every country is final; what remains in the stream is
                    # speculative windows already in flight (the generator
                    # dispatches nothing more).  Drain them so their
                    # transport/perf cost reaches the run totals, then close.
                    for late in stream:
                        totals.merge(late.value.transport_metrics,
                                     late.value.perf_metrics)
                    break
        finally:
            stream.close()
        # Countries with no windows at all (empty rankings) never appear in
        # the stream; flush them so every configured country reports.
        for merge in order[finalized:]:
            yield finalize(merge)
