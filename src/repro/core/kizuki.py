"""Kizuki: language-aware accessibility auditing.

Lighthouse marks an ``alt`` attribute as passing regardless of whether its
content matches the language of the surrounding interface.  Kizuki (named
after the Japanese word for "awareness") extends the ``image-alt`` audit to
verify that the description is written in the same language as the page's
visible content.

Two entry points mirror how the paper uses Kizuki:

* :class:`KizukiImageAltRule` — a drop-in replacement for the stock
  ``image-alt`` rule, usable with :class:`~repro.audit.engine.AuditEngine`
  on any document (this is the "Lighthouse extension" deliverable);
* :class:`Kizuki` — dataset-scale re-scoring (Figure 6): for sites that pass
  the original audit, recompute the accessibility score with the
  language-aware check in place and compare the score distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import perf
from repro.audit.engine import AuditEngine
from repro.audit.report import AuditReport, ElementOutcome, RuleResult
from repro.audit.rules import get_rule
from repro.audit.rules.base import AuditContext, AuditRule
from repro.audit.rules.image_alt import ImageAltRule
from repro.audit.scoring import DEFAULT_WEIGHTS, lighthouse_score
from repro.core.dataset import LangCrUXDataset, SiteRecord
from repro.core.filtering import classify_text
from repro.html.dom import Document, Element
from repro.html.index import ensure_index
from repro.html.visibility import extract_visible_text
from repro.langid.classify import (
    ClassificationThresholds,
    TextLanguageClass,
    classify_text_language,
)
from repro.langid.detector import ScriptDetector
from repro.langid.languages import Language, get_language


def _page_text(document: AuditContext) -> str:
    """Visible text of the page behind ``document`` (a Document or accessor).

    An index already holds the page's text from its one walk, so the
    language-context computation of a language-aware rule only normalizes
    it.
    """
    if isinstance(document, Document):
        return extract_visible_text(document)
    return document.document_text()


@dataclass(frozen=True)
class KizukiConfig:
    """Tunable behaviour of the language-aware check.

    Attributes:
        native_page_threshold: A page counts as "native" (and thus requires
            native-language accessibility text) when at least this share of
            its visible text is in the target language (0.5, the paper's
            content threshold).
        accept_mixed: Whether mixed native/English text counts as consistent
            (it does: mixed hints at least contain the native language).
        skip_uninformative: Whether texts discarded by the Appendix H filter
            are exempt from the language check.  Defaults to true: such texts
            are flagged by the filtering analysis for being uninformative, so
            Kizuki's language check concentrates on texts that carry meaning.
        thresholds: Per-text classification thresholds.
        extended_rules: Audits that receive the language-aware check.  The
            paper's evaluation extends ``image-alt`` only (the default); the
            released tool is documented as extensible with custom tests, and
            any of the twelve language-sensitive audits can be listed here
            (e.g. ``("image-alt", "button-name", "link-name")``).
    """

    native_page_threshold: float = 0.5
    accept_mixed: bool = True
    skip_uninformative: bool = True
    thresholds: ClassificationThresholds = ClassificationThresholds()
    extended_rules: tuple[str, ...] = ("image-alt",)


class KizukiImageAltRule(ImageAltRule):
    """The ``image-alt`` audit with the language-consistency check added.

    Behaviour relative to the stock rule:

    * missing ``alt`` still fails, ``alt=""`` still passes (the base
      Lighthouse semantics are preserved);
    * a non-empty ``alt`` additionally fails, with reason
      ``"language-mismatch"``, when the page's visible content is
      predominantly in the target language but the alt text contains none of
      it.
    """

    def __init__(self, language: Language | str, config: KizukiConfig | None = None) -> None:
        self.language = get_language(language) if isinstance(language, str) else language
        self.config = config or KizukiConfig()
        self._detector = ScriptDetector(self.language)
        self._page_native_share: float | None = None

    # -- language context -------------------------------------------------------

    def _page_share(self, document: AuditContext) -> float:
        if self._page_native_share is not None:
            return self._page_native_share
        return self._detector.share(_page_text(document)).native

    def text_is_consistent(self, text: str, page_native_share: float) -> bool:
        """Whether ``text`` is language-consistent with the page."""
        if page_native_share < self.config.native_page_threshold:
            return True
        if self.config.skip_uninformative and not classify_text(text).informative:
            return True
        outcome = classify_text_language(text, self.language, self.config.thresholds)
        if outcome is TextLanguageClass.NATIVE:
            return True
        if outcome is TextLanguageClass.MIXED and self.config.accept_mixed:
            return True
        return False

    # -- AuditRule hooks -----------------------------------------------------------

    def text_passes(self, text: str, element: Element,
                    document: AuditContext) -> tuple[bool, str]:
        if self.text_is_consistent(text, self._page_share(document)):
            return True, "ok"
        return False, "language-mismatch"

    def evaluate(self, document: AuditContext) -> RuleResult:
        # Compute the page context once per document rather than per image;
        # the accessor's text memo shares it with every other consumer.
        self._page_native_share = self._detector.share(_page_text(document)).native
        try:
            return super().evaluate(document)
        finally:
            self._page_native_share = None


class LanguageAwareRule(AuditRule):
    """A language-aware wrapper around any of the twelve base audit rules.

    This is the extension mechanism the paper's released tool documents:
    ``LanguageAwareRule(get_rule("button-name"), "th")`` behaves exactly like
    the stock ``button-name`` audit except that a non-empty accessible name
    on a predominantly-native page must contain the native language.  Kizuki
    uses it for every rule listed in :attr:`KizukiConfig.extended_rules`
    beyond ``image-alt`` (which keeps its dedicated subclass so the decorative
    ``alt=""`` semantics stay explicit).
    """

    def __init__(self, base_rule: AuditRule, language: Language | str,
                 config: KizukiConfig | None = None) -> None:
        self.base_rule = base_rule
        self.language = get_language(language) if isinstance(language, str) else language
        self.config = config or KizukiConfig()
        self.rule_id = base_rule.rule_id
        self.description = f"{base_rule.description} (language-aware)"
        self.fails_on_missing = base_rule.fails_on_missing
        self.fails_on_empty = base_rule.fails_on_empty
        self._detector = ScriptDetector(self.language)
        self._page_native_share: float | None = None

    # -- delegation to the wrapped rule --------------------------------------

    def select_targets(self, document: AuditContext) -> list[Element]:
        return self.base_rule.select_targets(document)

    def target_text(self, element: Element, document: AuditContext) -> str | None:
        return self.base_rule.target_text(element, document)

    # -- the language check ----------------------------------------------------

    def text_is_consistent(self, text: str, page_native_share: float) -> bool:
        if page_native_share < self.config.native_page_threshold:
            return True
        if self.config.skip_uninformative and not classify_text(text).informative:
            return True
        outcome = classify_text_language(text, self.language, self.config.thresholds)
        if outcome is TextLanguageClass.NATIVE:
            return True
        return outcome is TextLanguageClass.MIXED and self.config.accept_mixed

    def text_passes(self, text: str, element: Element,
                    document: AuditContext) -> tuple[bool, str]:
        passed, reason = self.base_rule.text_passes(text, element, document)
        if not passed:
            return passed, reason
        share = self._page_native_share
        if share is None:
            share = self._detector.share(_page_text(document)).native
        if self.text_is_consistent(text, share):
            return True, "ok"
        return False, "language-mismatch"

    def evaluate(self, document: AuditContext) -> RuleResult:
        self._page_native_share = self._detector.share(_page_text(document)).native
        try:
            return super().evaluate(document)
        finally:
            self._page_native_share = None


class Kizuki:
    """Language-aware auditing and re-scoring for one target language."""

    def __init__(self, language: Language | str, config: KizukiConfig | None = None) -> None:
        self.language = get_language(language) if isinstance(language, str) else language
        self.config = config or KizukiConfig()
        self.rule = KizukiImageAltRule(self.language, self.config)
        self._base_engine = AuditEngine()
        engine = self._base_engine
        for rule_id in self.config.extended_rules:
            if rule_id == "image-alt":
                engine = engine.with_rule_replaced(self.rule)
            else:
                engine = engine.with_rule_replaced(
                    LanguageAwareRule(get_rule(rule_id), self.language, self.config))
        self._engine = engine

    # -- document-level API -------------------------------------------------------

    @property
    def engine(self) -> AuditEngine:
        """The audit engine with the language-aware ``image-alt`` rule."""
        return self._engine

    def audit_document(self, document: AuditContext) -> AuditReport:
        return self._engine.audit_document(document)

    def audit_html(self, markup: str, url: str | None = None) -> AuditReport:
        return self._engine.audit_html(markup, url=url)

    def score_shift(self, document: Document) -> tuple[float, float]:
        """(old, new) Lighthouse scores of one document.

        Both audits run over the document's cached
        :class:`~repro.html.index.DocumentIndex`, so the base-vs-extended
        double audit traverses the page once instead of twice.
        """
        with perf.stage("kizuki"):
            context = ensure_index(document)
            old = lighthouse_score(self._base_engine.audit_document(context))
            new = lighthouse_score(self.audit_document(context), proportional=False)
            return old, new

    # -- dataset-level API (Figure 6) ------------------------------------------------

    def image_alt_consistency(self, record: SiteRecord) -> RuleResult:
        """Re-evaluate the ``image-alt`` audit of a stored site record.

        Works from the dataset (texts + missing/empty counts + the stored
        visible-language share) without re-crawling.  The returned result's
        ``score`` is the fraction of images that pass the language-aware
        audit; ``passed`` requires all of them to pass.
        """
        observation = record.element("image-alt")
        if observation.total == 0:
            return RuleResult(rule_id="image-alt", applicable=False, passed=True, score=1.0)
        outcomes: list[ElementOutcome] = []
        for _ in range(observation.missing):
            outcomes.append(ElementOutcome("img", None, passed=False, reason="missing"))
        for _ in range(observation.empty):
            outcomes.append(ElementOutcome("img", "", passed=True, reason="empty"))
        for text in observation.texts:
            consistent = self.rule.text_is_consistent(text, record.visible_native_share)
            outcomes.append(ElementOutcome("img", text, passed=consistent,
                                           reason="ok" if consistent else "language-mismatch"))
        passing = sum(1 for outcome in outcomes if outcome.passed)
        return RuleResult(
            rule_id="image-alt",
            applicable=True,
            passed=passing == len(outcomes),
            score=passing / len(outcomes),
            outcomes=tuple(outcomes),
        )

    def rescore_record(self, record: SiteRecord) -> tuple[float, float]:
        """(old, new) accessibility scores of a stored site record.

        The old score aggregates the stored base audit results binarily, the
        Lighthouse behaviour.  The new score keeps every other audit's binary
        outcome but replaces the ``image-alt`` contribution with the
        *fraction* of images whose alt text passes the language-aware check,
        so that a single mismatching image degrades rather than zeroes the
        category — the proportional scoring choice documented in DESIGN.md.
        """
        with perf.stage("kizuki"):
            return self._rescore_record(record)

    def _rescore_record(self, record: SiteRecord) -> tuple[float, float]:
        weights = DEFAULT_WEIGHTS
        total_weight = 0.0
        old_achieved = 0.0
        new_achieved = 0.0
        kizuki_result = self.image_alt_consistency(record)
        for rule_id, result in record.audit.items():
            if not result.get("applicable", False):
                continue
            weight = weights.get(rule_id, 1.0)
            total_weight += weight
            old_value = 1.0 if result.get("passed", False) else 0.0
            if rule_id == "image-alt" and kizuki_result.applicable:
                new_value = kizuki_result.score
            else:
                new_value = old_value
            old_achieved += weight * old_value
            new_achieved += weight * new_value
        if total_weight == 0:
            return 100.0, 100.0
        return 100.0 * old_achieved / total_weight, 100.0 * new_achieved / total_weight


@dataclass(frozen=True)
class RescoreSummary:
    """Aggregate of a Figure 6 style re-scoring run."""

    sites: int
    old_scores: tuple[float, ...]
    new_scores: tuple[float, ...]

    def fraction_above(self, threshold: float, *, new: bool) -> float:
        scores = self.new_scores if new else self.old_scores
        if not scores:
            return 0.0
        return sum(1 for score in scores if score > threshold) / len(scores)

    def fraction_perfect(self, *, new: bool) -> float:
        scores = self.new_scores if new else self.old_scores
        if not scores:
            return 0.0
        return sum(1 for score in scores if score >= 100.0 - 1e-9) / len(scores)


class RescoreAccumulator:
    """Streaming core of the Figure 6 re-scoring (:func:`rescore_dataset`).

    Records are re-scored as they arrive (one pass, e.g. while a dataset's
    JSONL shards stream in) and the per-country score lists are retained, so
    one accumulation can answer a :class:`RescoreSummary` for *any* country
    combination afterwards — the serving layer's ``kizuki`` endpoint
    parameterizes on countries per request.
    """

    def __init__(self, *, config: KizukiConfig | None = None,
                 exclude_original_failures: bool = True) -> None:
        self.config = config
        self.exclude_original_failures = exclude_original_failures
        self._kizuki_by_language: dict[str, Kizuki] = {}
        self._old_scores: dict[str, list[float]] = {}
        self._new_scores: dict[str, list[float]] = {}

    def add(self, record: SiteRecord) -> bool:
        """Re-score one record; returns whether it was eligible."""
        if self.exclude_original_failures and not record.audit_passed("image-alt"):
            return False
        kizuki = self._kizuki_by_language.setdefault(
            record.language_code, Kizuki(record.language_code, self.config))
        old, new = kizuki.rescore_record(record)
        self._old_scores.setdefault(record.country_code, []).append(old)
        self._new_scores.setdefault(record.country_code, []).append(new)
        return True

    def countries(self) -> tuple[str, ...]:
        """Countries that contributed at least one eligible site."""
        return tuple(sorted(self._old_scores))

    def summary(self, country_codes: tuple[str, ...] = ("bd", "th")) -> RescoreSummary:
        """The :class:`RescoreSummary` for ``country_codes``, in that order."""
        old_scores: list[float] = []
        new_scores: list[float] = []
        for country in country_codes:
            old_scores.extend(self._old_scores.get(country, ()))
            new_scores.extend(self._new_scores.get(country, ()))
        return RescoreSummary(sites=len(old_scores), old_scores=tuple(old_scores),
                              new_scores=tuple(new_scores))


def rescore_dataset(dataset: LangCrUXDataset, country_codes: tuple[str, ...] = ("bd", "th"),
                    *, config: KizukiConfig | None = None,
                    exclude_original_failures: bool = True) -> RescoreSummary:
    """Apply Kizuki re-scoring to the sites of ``country_codes`` (Figure 6).

    Following the paper, sites that already fail the original Lighthouse
    ``image-alt`` audit (because of missing alt attributes) are excluded when
    ``exclude_original_failures`` is true, so the comparison isolates the
    effect of the language-aware check.
    """
    accumulator = RescoreAccumulator(config=config,
                                     exclude_original_failures=exclude_original_failures)
    for country in dict.fromkeys(country_codes):
        for record in dataset.for_country(country):
            accumulator.add(record)
    return accumulator.summary(country_codes)
