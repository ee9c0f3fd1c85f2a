"""Dataset integrity validation.

LangCrUX is released as a standalone artifact and re-analysed long after the
crawl, so a loaded dataset should be validated before any analysis is trusted.
This module performs the structural and semantic checks that catch the most
common corruption modes: truncated JSONL files, records from unknown
countries, impossible percentages, element counters that do not add up, and
audit entries referencing unknown rules.

``validate_dataset`` never raises on bad data — it returns a
:class:`ValidationReport` listing every issue, so callers can decide whether
to fail hard (``raise_for_issues``) or to drop the offending records.  No
build or serving path calls it yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.dataset import LangCrUXDataset, SiteRecord
from repro.core.elements import ELEMENT_IDS
from repro.langid.languages import LANGUAGES, langcrux_country_codes


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in a dataset.

    Attributes:
        domain: The offending record's domain ("" for dataset-level issues).
        field: The field or element the issue concerns.
        message: Human-readable description.
    """

    domain: str
    field: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        prefix = f"{self.domain}: " if self.domain else ""
        return f"{prefix}{self.field}: {self.message}"


@dataclass
class ValidationReport:
    """Outcome of validating a dataset."""

    records_checked: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def issues_for(self, domain: str) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.domain == domain]

    def raise_for_issues(self) -> None:
        """Raise ``ValueError`` summarising the issues, if any."""
        if self.issues:
            preview = "; ".join(str(issue) for issue in self.issues[:5])
            more = f" (+{len(self.issues) - 5} more)" if len(self.issues) > 5 else ""
            raise ValueError(f"dataset failed validation: {preview}{more}")


_VALID_COUNTRIES = set(langcrux_country_codes())


def _check_record(record: SiteRecord, issues: list[ValidationIssue]) -> None:
    def issue(field_name: str, message: str) -> None:
        issues.append(ValidationIssue(domain=record.domain or "<empty domain>",
                                      field=field_name, message=message))

    if not record.domain:
        issue("domain", "empty domain")
    if record.country_code not in _VALID_COUNTRIES:
        issue("country_code", f"unknown country {record.country_code!r}")
    if record.language_code not in LANGUAGES:
        issue("language_code", f"unknown language {record.language_code!r}")
    if record.rank <= 0:
        issue("rank", f"rank must be positive, got {record.rank}")
    for name, value in (("visible_native_share", record.visible_native_share),
                        ("visible_english_share", record.visible_english_share)):
        if not 0.0 <= value <= 1.0:
            issue(name, f"share out of range: {value}")
    if record.visible_text_chars < 0:
        issue("visible_text_chars", f"negative character count {record.visible_text_chars}")

    for element_id, observation in record.elements.items():
        if element_id not in ELEMENT_IDS:
            issue(f"elements[{element_id}]", "unknown element id")
            continue
        accounted = observation.missing + observation.empty + len(observation.texts)
        if observation.total < 0 or observation.missing < 0 or observation.empty < 0:
            issue(f"elements[{element_id}]", "negative counters")
        elif accounted != observation.total:
            issue(f"elements[{element_id}]",
                  f"counters do not add up: total={observation.total}, "
                  f"missing+empty+texts={accounted}")
        if any(not text.strip() for text in observation.texts):
            issue(f"elements[{element_id}]", "blank string stored as accessibility text")

    for rule_id, result in record.audit.items():
        if rule_id not in ELEMENT_IDS:
            issue(f"audit[{rule_id}]", "unknown audit rule id")
            continue
        score = result.get("score")
        if score is not None and not 0.0 <= float(score) <= 1.0:
            issue(f"audit[{rule_id}]", f"score out of range: {score}")
        if result.get("passed") and result.get("applicable") and score not in (None, 1.0):
            issue(f"audit[{rule_id}]", "passed audit with partial score")


def validate_records(records: Iterable[SiteRecord]) -> ValidationReport:
    """Validate individual records plus cross-record constraints."""
    report = ValidationReport()
    seen_domains: set[str] = set()
    for record in records:
        report.records_checked += 1
        _check_record(record, report.issues)
        if record.domain in seen_domains:
            report.issues.append(ValidationIssue(record.domain, "domain", "duplicate domain"))
        seen_domains.add(record.domain)
    return report


def validate_dataset(dataset: LangCrUXDataset) -> ValidationReport:
    """Validate a full dataset."""
    return validate_records(dataset)
