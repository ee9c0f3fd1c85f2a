"""Website selection with language validation and replacement (Section 2).

For each language–country pair the paper takes the top CrUX-ranked origins,
validates via the Unicode-script heuristic that at least 50% of the visible
text is in the target language, and replaces origins that fail validation
(or that cannot be crawled, e.g. VPN-blocking sites) with the next-ranked
candidate, extending into lower ranks until the quota is filled or the
ranking is exhausted.

This module implements that loop on top of the crawler; it is the step that
turns a ranking into the set of origins whose crawl records feed the dataset
builder.

Architecture: speculative evaluation, rank-ordered commit
---------------------------------------------------------
The walk is split into two halves with different freedom to parallelise:

* **Evaluation** (:meth:`SiteSelector.evaluate`) — crawl one candidate and
  measure its visible-text native share.  Thanks to the per-candidate RNG
  split of the simulated transport (``stable_seed(seed, "transport",
  country, host)``), the result depends on nothing but the candidate, so
  evaluations may run in any order, concurrently, batched, or speculatively
  past the quota boundary.
* **Commit** (:class:`RankOrderCommitter`) — apply the paper's
  accept/replace rule to evaluations in *strict rank order*, stopping the
  moment the quota fills.  Evaluations past that point are discarded
  uncounted, so the selected set, every rejection counter and the resulting
  records are byte-identical to the strictly sequential walk.

Two dispatch modes share those halves:

* the **windowed walk** (no ``sub_shard_size``) — evaluate up to
  ``max_in_flight`` candidates at once on one event loop, commit them in
  rank order, repeat; ``max_in_flight == 1`` is the strictly sequential
  reference walk;
* the **sub-sharded walk** (``sub_shard_size`` + an executor from
  :mod:`repro.core.executor`) — chunk the ranking into fixed-size
  sub-shards, evaluate whole sub-shards speculatively on executor workers,
  and merge their outcomes through the committer.  Sub-shards queued after
  the quota fills are skipped (serial/thread backends observe the filled
  flag) or cancelled when the consumer stops iterating; results that still
  arrive are discarded by the committer.  This is what lets a run dominated
  by one large country use every worker.

The crawl layer below is ``async`` throughout.  Each unit of work enters
the event loop exactly once: :meth:`SiteSelector.select` once per country
shard, :meth:`SiteSelector.evaluate_chunk` (and so
:meth:`SiteSelector.evaluate_window`) once per sub-shard or distributed
window.

Evaluations also carry the parsed :class:`~repro.html.dom.Document` of each
page (with its cached :class:`~repro.html.index.DocumentIndex` built while
computing the visible text), so the downstream record builder can reuse the
parse instead of re-parsing every selected page.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro import perf
from repro.core.executor import PipelineExecutor, plan_chunks
from repro.crawler.crawler import LangCruxCrawler
from repro.crawler.fetcher import gather_bounded
from repro.crawler.records import CrawlRecord
from repro.html.dom import Document
from repro.html.index import ensure_index
from repro.html.parser import parse_html
from repro.langid.detector import ScriptDetector
from repro.webgen.crux import CruxEntry


@dataclass(frozen=True)
class SelectedSite:
    """One origin that passed selection.

    ``documents`` holds the pages parsed during validation (index built),
    so record building can skip one parse+extract per selected origin.  It
    is excluded from comparisons: a stripped site (documents dropped after
    records are built, e.g. before crossing a process boundary) still
    compares equal to the one that carried them.
    """

    entry: CruxEntry
    record: CrawlRecord
    visible_native_share: float
    documents: tuple[Document, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class CandidateEvaluation:
    """The speculative, commit-free evaluation of one candidate.

    Evaluating a candidate (crawl + native-share measurement) mutates no
    shared state, so evaluations can be produced in any order and discarded
    freely; only :meth:`RankOrderCommitter.commit` turns them into outcome
    state.

    ``fetch_succeeded`` records the crawl verdict at evaluation time
    (derived from the record when not given), so the committer never
    re-derives it — which lets carriers slim a rejected evaluation's record
    (drop its page snapshots) without changing how it commits.
    """

    entry: CruxEntry
    record: CrawlRecord
    native_share: float
    fetch_succeeded: bool | None = None
    documents: tuple[Document, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.fetch_succeeded is None:
            object.__setattr__(self, "fetch_succeeded", self.record.succeeded)

    def without_documents(self) -> "CandidateEvaluation":
        """A copy safe to pickle across process boundaries."""
        return CandidateEvaluation(entry=self.entry, record=self.record,
                                   native_share=self.native_share,
                                   fetch_succeeded=self.fetch_succeeded,
                                   documents=())


@dataclass
class SelectionOutcome:
    """Result of selecting sites for one country."""

    country_code: str
    quota: int
    selected: list[SelectedSite] = field(default_factory=list)
    rejected_below_threshold: int = 0
    rejected_fetch_failure: int = 0
    candidates_examined: int = 0

    @property
    def filled(self) -> bool:
        return len(self.selected) >= self.quota

    @property
    def replacement_count(self) -> int:
        """How many candidates had to be replaced to fill the quota."""
        return self.rejected_below_threshold + self.rejected_fetch_failure


class RankOrderCommitter:
    """Applies the accept/replace rule to evaluations in strict rank order.

    The committer is the *only* place selection state changes, which is what
    makes speculative evaluation safe: callers may evaluate candidates in
    any order, but must commit them in rank order, and every commit after
    the quota fills is a no-op (the evaluation is discarded uncounted,
    exactly as the sequential walk never examines those candidates).
    """

    def __init__(self, quota: int, threshold: float, *,
                 country_code: str = "") -> None:
        self.outcome = SelectionOutcome(country_code=country_code, quota=quota)
        self.threshold = threshold

    @property
    def filled(self) -> bool:
        return self.outcome.filled

    def commit(self, evaluation: CandidateEvaluation) -> SelectedSite | None:
        """Commit one evaluation; returns the selected site when accepted.

        No-op (returns ``None``) once the quota is filled — committing past
        the boundary discards the speculative evaluation without touching
        any counter.
        """
        outcome = self.outcome
        if outcome.filled:
            return None
        outcome.country_code = outcome.country_code or evaluation.entry.country_code
        outcome.candidates_examined += 1
        if not evaluation.fetch_succeeded:
            outcome.rejected_fetch_failure += 1
            return None
        if evaluation.native_share < self.threshold:
            outcome.rejected_below_threshold += 1
            return None
        site = SelectedSite(entry=evaluation.entry, record=evaluation.record,
                            visible_native_share=evaluation.native_share,
                            documents=evaluation.documents)
        outcome.selected.append(site)
        return site

    def commit_chunk(self, evaluations: Iterable[CandidateEvaluation]
                     ) -> list[tuple[CandidateEvaluation, SelectedSite]]:
        """Commit a rank-ordered chunk; returns the newly accepted pairs.

        Stops at the quota boundary: evaluations past the fill point are
        not committed (and not counted), mirroring the sequential walk.
        """
        accepted: list[tuple[CandidateEvaluation, SelectedSite]] = []
        for evaluation in evaluations:
            if self.outcome.filled:
                break
            site = self.commit(evaluation)
            if site is not None:
                accepted.append((evaluation, site))
        return accepted


class SiteSelector:
    """Selects qualifying origins for one country using a crawler.

    Args:
        crawler: A crawler bound to the country's vantage point.
        language_code: The country's target language.
        threshold: Minimum visible-text native share (0.5 in the paper).
        crawler_factory: Optional factory for per-chunk crawlers.  The
            sub-sharded walk evaluates chunks on executor workers; with a
            factory every chunk gets its own crawler (own session, robots
            cache and virtual clock), so concurrent chunks share no mutable
            crawl state.  Without one, chunks share ``crawler`` — fine for
            the serial backend, and for thread backends whose transport is
            thread-safe and single-page crawls.
    """

    def __init__(self, crawler: LangCruxCrawler, language_code: str, *,
                 threshold: float = 0.5,
                 crawler_factory: Callable[[], LangCruxCrawler] | None = None) -> None:
        self.crawler = crawler
        self.language_code = language_code
        self.threshold = threshold
        self.crawler_factory = crawler_factory
        self._detector = ScriptDetector(language_code)

    # -- speculative evaluation -------------------------------------------------

    def _evaluation(self, entry: CruxEntry, record: CrawlRecord) -> CandidateEvaluation:
        """Measure one crawled candidate (no selection state is touched)."""
        if not record.succeeded:
            return CandidateEvaluation(entry=entry, record=record, native_share=0.0)
        documents = tuple(parse_html(page.html, url=page.final_url)
                          for page in record.pages if page.ok and page.html)
        texts = [ensure_index(document).document_text() for document in documents]
        share = self._detector.share(" ".join(texts)).native if texts else 0.0
        return CandidateEvaluation(entry=entry, record=record, native_share=share,
                                   documents=documents)

    async def evaluate(self, entry: CruxEntry,
                       crawler: LangCruxCrawler | None = None) -> CandidateEvaluation:
        """Crawl and measure one candidate speculatively."""
        crawler = crawler or self.crawler
        return self._evaluation(entry, await crawler.crawl_origin(entry, self.language_code))

    async def _evaluate_all(self, entries: list[CruxEntry], crawler: LangCruxCrawler,
                            max_in_flight: int) -> list[CandidateEvaluation]:
        """Evaluate ``entries`` with up to ``max_in_flight`` in flight, in entry order."""
        return await gather_bounded(lambda entry: self.evaluate(entry, crawler), entries,
                                    max_in_flight=max_in_flight)

    def evaluate_chunk(self, entries: Sequence[CruxEntry] | Iterable[CruxEntry], *,
                       max_in_flight: int = 1) -> list[CandidateEvaluation]:
        """Speculatively evaluate a rank-contiguous chunk of candidates.

        The chunk is crawled on one event loop, through a chunk-local
        crawler when a ``crawler_factory`` is configured, with up to
        ``max_in_flight`` candidates in flight.  Results come back in entry
        order.
        """
        entry_list = list(entries)
        if not entry_list:
            return []
        crawler = self.crawler_factory() if self.crawler_factory is not None else self.crawler
        return asyncio.run(self._evaluate_all(entry_list, crawler, max_in_flight))

    def evaluate_window(self, candidates: Iterable[CruxEntry], start: int, stop: int,
                        *, max_in_flight: int = 1) -> list[CandidateEvaluation]:
        """Evaluate the rank window ``[start, stop)`` of ``candidates``.

        Only the window itself is ever materialized: resident entry state
        is O(stop - start) regardless of ``max_in_flight``, so deeply
        speculative workers (distributed crawls hand every worker a large
        ``max_in_flight``) cannot regrow an O(ranking) memory term per
        window.  The ``sel.window_entries_peak`` gauge pins that bound.
        """
        entry_list = list(itertools.islice(candidates, start, stop))
        perf.gauge("sel.window_entries_peak", float(len(entry_list)))
        return self.evaluate_chunk(entry_list, max_in_flight=max_in_flight)

    # -- the walks ----------------------------------------------------------------

    def select(self, candidates: Iterable[CruxEntry], quota: int, *,
               max_in_flight: int = 1,
               executor: PipelineExecutor | None = None,
               sub_shard_size: int | None = None) -> SelectionOutcome:
        """Walk ``candidates`` in rank order until ``quota`` sites qualify.

        Candidates that fail to fetch (VPN-blocked, persistent errors) or
        fall below the language threshold are skipped and replaced by the
        next candidate, exactly the paper's replacement rule.

        The walk evaluates ``max_in_flight`` candidates at a time on one
        event loop (one ``asyncio.run`` per ``select`` call, not per batch or
        fetch) and commits them in rank order; ``max_in_flight=1`` evaluates
        one candidate at a time.

        With ``sub_shard_size`` set, the ranking is chunked into sub-shards
        of that size which are evaluated speculatively on ``executor``
        (serial when none is given) and committed in strict rank order; see
        the module docstring.  ``max_in_flight`` then applies within each
        sub-shard.

        Every mode evaluates speculatively but commits strictly in rank
        order, so the outcome — selected set, rejection counters,
        ``candidates_examined`` — is byte-identical to the sequential walk
        for every ``(executor, workers, sub_shard_size, max_in_flight)``
        combination.
        """
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        if sub_shard_size is not None:
            return self._select_subsharded(candidates, quota,
                                           executor=executor,
                                           sub_shard_size=sub_shard_size,
                                           max_in_flight=max_in_flight)
        committer = RankOrderCommitter(quota, self.threshold)
        asyncio.run(self._select_windows(iter(candidates), committer, max_in_flight))
        return committer.outcome

    async def _select_windows(self, iterator: Iterator[CruxEntry],
                              committer: RankOrderCommitter,
                              max_in_flight: int) -> None:
        """Evaluate ``max_in_flight`` candidates at a time, commit them in
        rank order, repeat until the quota fills."""
        while not committer.filled:
            window = list(itertools.islice(iterator, max_in_flight))
            if not window:
                break
            committer.commit_chunk(
                await self._evaluate_all(window, self.crawler, max_in_flight))

    def _select_subsharded(self, candidates: Iterable[CruxEntry], quota: int, *,
                           executor: PipelineExecutor | None,
                           sub_shard_size: int,
                           max_in_flight: int) -> SelectionOutcome:
        """The chunked walk: speculative sub-shards, rank-ordered merge."""
        from repro.core.executor import SerialExecutor  # cycle-free, tiny

        if sub_shard_size < 1:
            raise ValueError(f"sub_shard_size must be positive, got {sub_shard_size}")
        backend = executor if executor is not None else SerialExecutor()
        entry_list = list(candidates)
        chunks = [entry_list[start:stop]
                  for start, stop in plan_chunks(len(entry_list), sub_shard_size)]
        committer = RankOrderCommitter(quota, self.threshold)

        def evaluate(chunk: list[CruxEntry]) -> list[CandidateEvaluation]:
            # The filled flag only ever flips to True, so a stale read just
            # means one sub-shard is evaluated and later discarded.
            if committer.filled:
                return []
            return self.evaluate_chunk(chunk, max_in_flight=max_in_flight)

        stream = backend.run_ordered(evaluate, chunks)
        try:
            for result in stream:
                committer.commit_chunk(result.value)
                if committer.filled:
                    break  # stop consuming; pending sub-shards are cancelled
        finally:
            stream.close()
        return committer.outcome
