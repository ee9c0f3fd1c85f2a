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

One walk serves every backend: the **window**.  A window is a rank
slice ``[start, stop)`` of one country's ranking, and
:meth:`SiteSelector.evaluate_window` walks it on one event loop,
``max_in_flight`` candidates at a time, stopping after the batch in which
its own would-qualify count reaches the quota (no window can hand the
committer more than ``quota`` acceptable sites, so nothing past that batch
could ever commit).  A whole country is the window ``[0, len(ranking))``,
and :meth:`SiteSelector.select` is that window committed in rank order;
``max_in_flight == 1`` then crawls exactly the candidates of the strictly
sequential reference walk.  Sub-sharded, pooled and distributed runs cut
the ranking into smaller windows, evaluate them wherever they like and
merge them through one committer per country (see
:mod:`repro.core.pipeline`), which is what lets a run dominated by one
large country use every worker.

The crawl layer below is ``async`` throughout; each window enters the
event loop exactly once.

Evaluations also carry the parsed :class:`~repro.html.dom.Document` of each
page (with its cached :class:`~repro.html.index.DocumentIndex` built while
computing the visible text), so the downstream record builder can reuse the
parse instead of re-parsing every selected page.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

from repro import perf
from repro.crawler.crawler import LangCruxCrawler
from repro.crawler.fetcher import gather_bounded
from repro.crawler.records import CrawlRecord
from repro.html.dom import Document
from repro.html.index import ensure_index
from repro.html.parser import parse_html
from repro.langid.detector import LanguageShare, ScriptDetector
from repro.webgen.crux import CruxEntry


#: The share of a site without a single parsed page.
_NO_TEXT = LanguageShare(0.0, 0.0, 0.0, 0)


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

    ``share`` is the whole :class:`~repro.langid.detector.LanguageShare`
    behind ``native_share`` (``None`` when the crawl failed).  Like
    ``documents`` it only feeds the evaluating process's record builder.
    """

    entry: CruxEntry
    record: CrawlRecord
    native_share: float
    fetch_succeeded: bool | None = None
    documents: tuple[Document, ...] = field(default=(), compare=False, repr=False)
    share: LanguageShare | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.fetch_succeeded is None:
            object.__setattr__(self, "fetch_succeeded", self.record.succeeded)

    def qualifies(self, threshold: float) -> bool:
        """Whether the committer would accept this evaluation."""
        return bool(self.fetch_succeeded) and self.native_share >= threshold

    def without_documents(self) -> "CandidateEvaluation":
        """A copy safe to pickle across process boundaries."""
        return CandidateEvaluation(entry=self.entry, record=self.record,
                                   native_share=self.native_share,
                                   fetch_succeeded=self.fetch_succeeded)


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
    """

    def __init__(self, crawler: LangCruxCrawler, language_code: str, *,
                 threshold: float = 0.5) -> None:
        self.crawler = crawler
        self.language_code = language_code
        self.threshold = threshold
        self._detector = ScriptDetector(language_code)

    # -- speculative evaluation -------------------------------------------------

    def _evaluation(self, entry: CruxEntry, record: CrawlRecord) -> CandidateEvaluation:
        """Measure one crawled candidate (no selection state is touched)."""
        if not record.succeeded:
            return CandidateEvaluation(entry=entry, record=record, native_share=0.0)
        documents = tuple(parse_html(page.html, url=page.final_url)
                          for page in record.pages if page.ok and page.html)
        texts = [ensure_index(document).document_text() for document in documents]
        share = self._detector.share(" ".join(texts)) if texts else _NO_TEXT
        return CandidateEvaluation(entry=entry, record=record, native_share=share.native,
                                   documents=documents, share=share)

    async def evaluate(self, entry: CruxEntry) -> CandidateEvaluation:
        """Crawl and measure one candidate speculatively."""
        return self._evaluation(entry, await self.crawler.crawl_origin(entry, self.language_code))

    def evaluate_window(self, candidates: Iterable[CruxEntry], start: int,
                        stop: int | None, *, max_in_flight: int = 1,
                        quota: int | None = None) -> list[CandidateEvaluation]:
        """Evaluate the rank window ``[start, stop)`` of ``candidates``.

        The window is walked lazily on one event loop, ``max_in_flight``
        candidates at a time, and results come back in rank order.  With a
        ``quota`` the walk stops after the batch in which the window's own
        would-qualify count reaches it: the rank-order committer can accept
        at most ``quota`` sites, so no later candidate of the window could
        commit.  ``stop=None`` walks to the end of the ranking.

        Only one batch of entries is materialized at a time, so resident
        entry state is O(min(max_in_flight, stop - start)) however deep the
        speculation (distributed workers hand every window a large
        ``max_in_flight``); the ``sel.window_entries_peak`` gauge pins that
        bound.  Evaluations that cannot qualify drop their parsed documents
        and page snapshots at once.
        """
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        entries = itertools.islice(candidates, start, stop)
        return asyncio.run(self._walk(entries, max_in_flight, quota))

    async def _walk(self, entries: Iterator[CruxEntry], max_in_flight: int,
                    quota: int | None) -> list[CandidateEvaluation]:
        evaluations: list[CandidateEvaluation] = []
        qualified = 0
        batch_peak = 0
        while quota is None or qualified < quota:
            batch = list(itertools.islice(entries, max_in_flight))
            if not batch:
                break
            batch_peak = max(batch_peak, len(batch))
            for evaluation in await gather_bounded(self.evaluate, batch,
                                                   max_in_flight=max_in_flight):
                if evaluation.qualifies(self.threshold):
                    qualified += 1
                elif evaluation.documents or evaluation.record.pages:
                    # Only a rejected candidate's verdict is ever read.
                    evaluation = replace(evaluation, documents=(), share=None,
                                         record=replace(evaluation.record, pages=[]))
                evaluations.append(evaluation)
        perf.gauge("sel.window_entries_peak", float(batch_peak))
        return evaluations

    # -- the walk ---------------------------------------------------------------

    def select(self, candidates: Iterable[CruxEntry], quota: int, *,
               max_in_flight: int = 1) -> SelectionOutcome:
        """Walk ``candidates`` in rank order until ``quota`` sites qualify.

        Candidates that fail to fetch (VPN-blocked, persistent errors) or
        fall below the language threshold are skipped and replaced by the
        next candidate, exactly the paper's replacement rule.

        This is the whole ranking as one window: :meth:`evaluate_window`
        walks it ``max_in_flight`` candidates at a time and a
        :class:`RankOrderCommitter` commits the result, so the outcome —
        selected set, rejection counters, ``candidates_examined`` — is the
        same for every ``max_in_flight``.
        """
        committer = RankOrderCommitter(quota, self.threshold)
        committer.commit_chunk(self.evaluate_window(candidates, 0, None,
                                                    max_in_flight=max_in_flight,
                                                    quota=quota))
        return committer.outcome
