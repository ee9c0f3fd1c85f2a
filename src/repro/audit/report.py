"""Audit result and report models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(slots=True)
class ElementOutcome:
    """The audit outcome for a single target element.

    Attributes:
        element_tag: Tag name of the evaluated element (``"document"`` for
            document-level audits such as ``document-title``).
        text: The accessibility text considered by the audit: ``None`` when
            missing, ``""`` when present-but-empty, the text otherwise.
        passed: Whether this element passes the audit.
        reason: Machine-readable reason: ``"ok"``, ``"missing"``, ``"empty"``
            or ``"language-mismatch"`` (the last only from Kizuki rules).
    """

    element_tag: str
    text: str | None
    passed: bool
    reason: str


@dataclass(slots=True)
class RuleResult:
    """Result of one audit rule over one document.

    Attributes:
        rule_id: The audit identifier (e.g. ``image-alt``).
        applicable: ``False`` when the page has no target elements; such
            audits are excluded from scoring, mirroring Lighthouse's
            "not applicable" outcome.
        passed: Binary outcome: every target element passes.
        score: Fraction of target elements that pass (1.0 when not
            applicable).  The base Lighthouse behaviour scores audits
            binarily; the proportional score is exposed for Kizuki-style
            scoring and for diagnostics.
        outcomes: Per-element outcomes.
    """

    rule_id: str
    applicable: bool
    passed: bool
    score: float
    outcomes: tuple[ElementOutcome, ...] = ()

    @property
    def total_elements(self) -> int:
        return len(self.outcomes)

    @property
    def failing_elements(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.passed)


@dataclass
class AuditReport:
    """All rule results for one document."""

    url: str | None
    results: dict[str, RuleResult] = field(default_factory=dict)

    def add(self, result: RuleResult) -> None:
        self.results[result.rule_id] = result

    def result(self, rule_id: str) -> RuleResult | None:
        return self.results.get(rule_id)

    def passed(self, rule_id: str) -> bool:
        """Whether ``rule_id`` passed (not-applicable counts as a pass)."""
        result = self.results.get(rule_id)
        if result is None or not result.applicable:
            return True
        return result.passed

    def applicable_results(self) -> tuple[RuleResult, ...]:
        return tuple(result for result in self.results.values() if result.applicable)

    def failing_rules(self) -> tuple[str, ...]:
        return tuple(sorted(result.rule_id for result in self.applicable_results()
                            if not result.passed))

    def to_dict(self) -> dict:
        """JSON-serializable representation (element outcomes summarised)."""
        return {
            "url": self.url,
            "results": {
                rule_id: {
                    "applicable": result.applicable,
                    "passed": result.passed,
                    "score": result.score,
                    "total_elements": result.total_elements,
                    "failing_elements": result.failing_elements,
                }
                for rule_id, result in sorted(self.results.items())
            },
        }


def summarize_pass_rates(reports: Iterable[AuditReport]) -> dict[str, float]:
    """Fraction of documents passing each rule, over applicable documents only."""
    applicable: dict[str, int] = {}
    passing: dict[str, int] = {}
    for report in reports:
        for rule_id, result in report.results.items():
            if not result.applicable:
                continue
            applicable[rule_id] = applicable.get(rule_id, 0) + 1
            if result.passed:
                passing[rule_id] = passing.get(rule_id, 0) + 1
    return {rule_id: passing.get(rule_id, 0) / count for rule_id, count in applicable.items()}
