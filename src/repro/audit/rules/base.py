"""Audit rule framework.

Every audit rule answers three questions for a document:

1. *Which elements does the rule target?* (``select_targets``)
2. *What accessibility text does each target carry?* (``target_text`` —
   ``None`` when missing, ``""`` when present-but-empty, the text otherwise)
3. *Does a given text pass?*  The base behaviour is controlled by two flags,
   ``fails_on_missing`` and ``fails_on_empty``, whose per-rule values
   reproduce the Lighthouse behaviour measured in the paper's Appendix D
   (Table 3).  Language is never considered by base rules — that is exactly
   the gap Kizuki fills by overriding :meth:`AuditRule.text_passes`.

Rules are stateless; one instance can audit any number of documents.

Rules select their targets from a :class:`~repro.html.index.DocumentIndex`
rather than re-traversing the tree: every hook accepts either a plain
:class:`~repro.html.dom.Document` (coerced to its cached index via
:func:`~repro.html.index.ensure_index`) or an accessor directly, so twelve
rules auditing one page share a single traversal — and share it with the
extraction layer when both are handed the same document.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.audit.report import ElementOutcome, RuleResult
from repro.html.accessibility import AccessibleNameResult, NameSource, accessible_name
from repro.html.dom import Document, Element
from repro.html.index import DocumentIndex, ensure_index

#: What the rule hooks accept: a document or an accessor over one.
AuditContext = Document | DocumentIndex


def context_name(element: Element, context: AuditContext) -> AccessibleNameResult:
    """Accessible name of ``element`` through ``context``.

    Routes through the accessor's memo when one is available, so repeated
    name computations (several rules, extraction + audit) are free after the
    first; a plain :class:`~repro.html.dom.Document` computes naively.
    """
    if isinstance(context, Document):
        return accessible_name(element, context)
    return context.accessible_name(element)


class AuditRule(ABC):
    """Base class for the twelve language-sensitive audits."""

    #: Audit identifier, e.g. ``"image-alt"``; must match Table 1 of the paper.
    rule_id: str = ""
    #: Human-readable description shown in reports.
    description: str = ""
    #: Whether an element with *no* accessibility text fails the audit.
    fails_on_missing: bool = True
    #: Whether an element with an *empty* accessibility text fails the audit.
    fails_on_empty: bool = True

    # -- to implement per rule -------------------------------------------------

    @abstractmethod
    def select_targets(self, document: AuditContext) -> list[Element]:
        """Elements this rule applies to, in document order."""

    @abstractmethod
    def target_text(self, element: Element, document: AuditContext) -> str | None:
        """Accessibility text of ``element``: ``None`` missing, ``""`` empty."""

    # -- shared evaluation --------------------------------------------------------

    def text_passes(self, text: str, element: Element,
                    document: AuditContext) -> tuple[bool, str]:
        """Whether a non-empty accessibility text passes the audit.

        Base rules accept any non-empty text regardless of language or
        informativeness — the behaviour the paper criticises.  Kizuki rules
        override this hook.
        """
        return True, "ok"

    def evaluate_element(self, element: Element, document: AuditContext) -> ElementOutcome:
        text = self.target_text(element, document)
        tag = element.tag
        if text is None:
            return ElementOutcome(tag, None, passed=not self.fails_on_missing, reason="missing")
        if not text.strip():
            return ElementOutcome(tag, text, passed=not self.fails_on_empty, reason="empty")
        passed, reason = self.text_passes(text, element, document)
        return ElementOutcome(tag, text, passed=passed, reason=reason)

    def evaluate(self, document: AuditContext) -> RuleResult:
        """Evaluate the rule over a whole document."""
        context = ensure_index(document)
        targets = self.select_targets(context)
        if not targets:
            return RuleResult(rule_id=self.rule_id, applicable=False, passed=True, score=1.0)
        outcomes = tuple(self.evaluate_element(element, context) for element in targets)
        passing = sum(1 for outcome in outcomes if outcome.passed)
        return RuleResult(
            rule_id=self.rule_id,
            applicable=True,
            passed=passing == len(outcomes),
            score=passing / len(outcomes),
            outcomes=outcomes,
        )


def explicit_name_text(element: Element, document: AuditContext) -> str | None:
    """Accessibility text from explicit metadata only (no visible-text fallback).

    Returns ``None`` when the element has no explicit accessibility markup,
    matching the "missing" condition of Table 2/3.
    """
    result = context_name(element, document)
    if result.source is NameSource.NONE:
        return None
    if not result.explicit and result.source is NameSource.VISIBLE_TEXT:
        # For audit purposes the visible-text fallback still provides a name;
        # callers that need metadata-only extraction use the extraction
        # module instead.  Here the fallback counts as a name.
        return result.name
    return result.name


def explicit_only_text(element: Element, document: AuditContext) -> str | None:
    """Accessibility text from explicit metadata, ignoring visible text entirely."""
    result = context_name(element, document)
    if result.explicit:
        return result.name
    return None
