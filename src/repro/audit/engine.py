"""The audit engine.

Runs a set of audit rules over parsed documents and produces
:class:`~repro.audit.report.AuditReport` objects.  The rule set is
configurable: Kizuki builds an engine in which the stock ``image-alt`` rule
is replaced by its language-aware variant, which is exactly how the paper
describes extending Lighthouse.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import perf
from repro.audit.report import AuditReport
from repro.audit.rules import ALL_RULES
from repro.audit.rules.base import AuditRule
from repro.html.dom import Document
from repro.html.index import DocumentIndex, ensure_index
from repro.html.parser import parse_html


class AuditEngine:
    """Runs accessibility audits over documents."""

    def __init__(self, rules: Sequence[AuditRule] | None = None) -> None:
        self.rules: tuple[AuditRule, ...] = tuple(rules) if rules is not None else ALL_RULES
        if not self.rules:
            raise ValueError("AuditEngine requires at least one rule")
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id {rule.rule_id!r} in engine")
            seen.add(rule.rule_id)

    def with_rule_replaced(self, replacement: AuditRule) -> "AuditEngine":
        """A new engine with the rule of the same id replaced by ``replacement``.

        Raises:
            KeyError: When no existing rule has the replacement's id.
        """
        if replacement.rule_id not in {rule.rule_id for rule in self.rules}:
            raise KeyError(f"engine has no rule {replacement.rule_id!r} to replace")
        rules = tuple(replacement if rule.rule_id == replacement.rule_id else rule
                      for rule in self.rules)
        return AuditEngine(rules)

    def audit_document(self, document: Document | DocumentIndex) -> AuditReport:
        """Run every rule over ``document``.

        The document is coerced to its cached
        :class:`~repro.html.index.DocumentIndex` once, and every rule selects
        targets and resolves names through it — one traversal for the whole
        audit (shared with extraction when both see the same document).
        An accessor passes through as it is, which is how the parity tests
        run the audit over their naive reference accessor.
        """
        context = ensure_index(document)
        with perf.stage("audit"):
            perf.count("audit.documents")
            report = AuditReport(url=context.url)
            for rule in self.rules:
                with perf.stage("audit." + rule.rule_id):
                    report.add(rule.evaluate(context))
            return report

    def audit_html(self, markup: str, url: str | None = None) -> AuditReport:
        """Parse ``markup`` and audit the resulting document."""
        return self.audit_document(parse_html(markup, url=url))

    def audit_many(self, documents: Iterable[Document]) -> list[AuditReport]:
        return [self.audit_document(document) for document in documents]
