"""The LangCrUX dataset model.

A :class:`LangCrUXDataset` is a collection of :class:`SiteRecord` objects,
one per website, carrying everything the paper's analyses consume:

* identification (domain, country, language, CrUX rank);
* the language composition of the visible text;
* per accessibility element: how many instances exist, how many lack
  metadata, how many carry empty metadata, and the non-empty texts
  themselves;
* the base (language-unaware) audit results used by the Kizuki re-scoring.

Records serialize to JSON Lines so a dataset built once (the expensive crawl
step) can be re-analysed many times, mirroring how the paper releases
LangCrUX as a standalone artifact.  Persistence is crash-safe throughout:
:class:`StreamingDatasetWriter` appends records incrementally to a partial
file and commits it atomically, and :meth:`LangCrUXDataset.save_jsonl` is a
one-shot convenience over the same writer, so a crashed run can never leave
a truncated dataset under the final path.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.elements import ELEMENT_IDS
from repro.core.extraction import PageExtraction
from repro.core.filtering import classify_text
from repro.core.language_mix import classify_texts, pooled_native_share, LanguageMixSummary
from repro.langid.detector import LanguageShare, ScriptDetector


@dataclass
class ElementObservation:
    """Aggregate of one accessibility element over one site.

    Attributes:
        element_id: The element (Table 1 identifier).
        total: Number of element instances seen on the site's crawled pages.
        missing: Instances with no explicit accessibility metadata.
        empty: Instances whose metadata is present but blank.
        texts: The non-empty accessibility texts, in document order.
    """

    element_id: str
    total: int = 0
    missing: int = 0
    empty: int = 0
    texts: list[str] = field(default_factory=list)

    @property
    def with_text(self) -> int:
        return len(self.texts)

    @property
    def missing_pct(self) -> float:
        """Missing instances as a percentage of all instances (Table 2)."""
        return 100.0 * self.missing / self.total if self.total else 0.0

    @property
    def empty_pct(self) -> float:
        """Empty instances as a percentage of all instances (Table 2)."""
        return 100.0 * self.empty / self.total if self.total else 0.0


@dataclass
class SiteRecord:
    """One website of the LangCrUX dataset."""

    domain: str
    country_code: str
    language_code: str
    rank: int
    visible_text_chars: int = 0
    visible_native_share: float = 0.0
    visible_english_share: float = 0.0
    declared_lang: str | None = None
    served_variant: str | None = None
    elements: dict[str, ElementObservation] = field(default_factory=dict)
    audit: dict[str, dict] = field(default_factory=dict)

    # -- accessors -------------------------------------------------------------

    def element(self, element_id: str) -> ElementObservation:
        """Observation for ``element_id`` (an empty one when never seen)."""
        return self.elements.get(element_id, ElementObservation(element_id=element_id))

    def accessibility_texts(self, element_id: str | None = None) -> list[str]:
        """All non-empty accessibility texts, optionally for one element."""
        if element_id is not None:
            return list(self.element(element_id).texts)
        texts: list[str] = []
        for eid in ELEMENT_IDS:
            texts.extend(self.element(eid).texts)
        return texts

    def informative_texts(self, element_id: str | None = None) -> list[str]:
        """Accessibility texts surviving the Appendix H filter."""
        return [text for text in self.accessibility_texts(element_id)
                if classify_text(text).informative]

    def accessibility_language_mix(self, *, informative_only: bool = True) -> LanguageMixSummary:
        """Per-text native/English/mixed counts (Figure 4)."""
        texts = self.informative_texts() if informative_only else self.accessibility_texts()
        return classify_texts(texts, self.language_code)

    def accessibility_native_share(self, *, informative_only: bool = False) -> float:
        """Character-level native share of the pooled accessibility text.

        This is the y-axis of Figures 5 and 8: how much of the site's
        accessibility text is written in the native language.
        """
        texts = self.informative_texts() if informative_only else self.accessibility_texts()
        return pooled_native_share(texts, self.language_code)

    def audit_passed(self, rule_id: str) -> bool:
        """Whether the base audit passed ``rule_id`` (not-applicable = pass)."""
        result = self.audit.get(rule_id)
        if not result or not result.get("applicable", False):
            return True
        return bool(result.get("passed", False))

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_extraction(cls, extraction: PageExtraction, *, domain: str, country_code: str,
                        language_code: str, rank: int, served_variant: str | None = None,
                        audit: dict[str, dict] | None = None,
                        share: LanguageShare | None = None) -> "SiteRecord":
        """Build a record from a (merged) page extraction.

        ``share`` is the language share of its visible text, if already known.
        """
        if share is None:
            share = ScriptDetector(language_code).share(extraction.visible_text)
        record = cls(
            domain=domain,
            country_code=country_code,
            language_code=language_code,
            rank=rank,
            visible_text_chars=share.textual_chars,
            visible_native_share=share.native,
            visible_english_share=share.english,
            declared_lang=extraction.declared_lang,
            served_variant=served_variant,
            audit=audit or {},
        )
        for element_id, observations in extraction.by_element().items():
            aggregate = ElementObservation(element_id=element_id)
            for observation in observations:
                aggregate.total += 1
                if observation.is_missing:
                    aggregate.missing += 1
                elif observation.is_empty:
                    aggregate.empty += 1
                else:
                    aggregate.texts.append(observation.text or "")
            if aggregate.total:
                record.elements[element_id] = aggregate
        return record

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """The record as JSON data, keys in field order (by hand: ``asdict``
        deep-copies every nested value, and this runs once per record)."""
        return {
            "domain": self.domain,
            "country_code": self.country_code,
            "language_code": self.language_code,
            "rank": self.rank,
            "visible_text_chars": self.visible_text_chars,
            "visible_native_share": self.visible_native_share,
            "visible_english_share": self.visible_english_share,
            "declared_lang": self.declared_lang,
            "served_variant": self.served_variant,
            "elements": {eid: {"element_id": obs.element_id, "total": obs.total,
                               "missing": obs.missing, "empty": obs.empty,
                               "texts": list(obs.texts)}
                         for eid, obs in self.elements.items()},
            "audit": {rule_id: dict(result) for rule_id, result in self.audit.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SiteRecord":
        elements = {
            eid: ElementObservation(**observation)
            for eid, observation in payload.get("elements", {}).items()
        }
        fields = {key: value for key, value in payload.items() if key != "elements"}
        return cls(elements=elements, **fields)


class LangCrUXDataset:
    """A collection of :class:`SiteRecord` with query and persistence helpers."""

    def __init__(self, records: Iterable[SiteRecord] = ()) -> None:
        self._records: list[SiteRecord] = list(records)

    # -- collection basics -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SiteRecord]:
        return iter(self._records)

    def add(self, record: SiteRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[SiteRecord]) -> None:
        self._records.extend(records)

    @property
    def records(self) -> Sequence[SiteRecord]:
        return tuple(self._records)

    # -- queries ------------------------------------------------------------------

    def countries(self) -> tuple[str, ...]:
        return tuple(sorted({record.country_code for record in self._records}))

    def for_country(self, country_code: str) -> "LangCrUXDataset":
        return LangCrUXDataset(record for record in self._records
                               if record.country_code == country_code)

    def filter(self, predicate: Callable[[SiteRecord], bool]) -> "LangCrUXDataset":
        return LangCrUXDataset(record for record in self._records if predicate(record))

    def sites_per_country(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self._records:
            counts[record.country_code] = counts.get(record.country_code, 0) + 1
        return counts

    def get(self, domain: str) -> SiteRecord | None:
        return next((record for record in self._records if record.domain == domain), None)

    # -- persistence -----------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> int:
        """Write the dataset as JSON Lines; returns the number of records.

        The write is atomic: records go to a partial file in the same
        directory which is renamed over ``path`` only once every record is
        out, so readers see either the previous complete file or the new
        complete file — never a truncation.
        """
        with StreamingDatasetWriter(path) as writer:
            writer.write_many(self._records)
        return len(self._records)

    @classmethod
    def iter_jsonl(cls, path: str | Path, *, skip_corrupt: bool = False) -> Iterator[SiteRecord]:
        """Yield records from a JSONL file one line at a time.

        This is the streaming complement of :meth:`load_jsonl`: consumers
        that fold records into incremental aggregates (the serving layer's
        loader) never need the whole dataset in memory at once.

        Args:
            path: The JSONL file to read.
            skip_corrupt: Skip lines that are not valid JSON instead of
                raising.
        """
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if skip_corrupt:
                        continue
                    raise
                yield SiteRecord.from_dict(payload)

    @classmethod
    def load_jsonl(cls, path: str | Path, *, skip_corrupt: bool = False) -> "LangCrUXDataset":
        """Load a dataset previously written by :meth:`save_jsonl`.

        Args:
            path: The JSONL file to read.
            skip_corrupt: Skip lines that are not valid JSON instead of
                raising.  Use this to salvage the intact prefix of a partial
                file left behind by a crashed streaming run (only its last
                line can be torn; committed datasets are always complete).
        """
        return cls(cls.iter_jsonl(path, skip_corrupt=skip_corrupt))


class StreamingDatasetWriter:
    """Appends :class:`SiteRecord` JSONL to disk incrementally, committing atomically.

    Records are written to a uniquely named ``.<name>.<random>.partial``
    file next to the destination (unique per writer, so concurrent runs
    targeting the same path cannot corrupt each other's partials — each
    commit is complete, last commit wins); a successful :meth:`close`
    flushes, fsyncs and atomically renames it onto the final path.  Until
    then the destination keeps its previous content (or stays absent), so a
    crash mid-run can never truncate a dataset — it merely leaves the
    partial file behind, whose intact lines
    :meth:`LangCrUXDataset.load_jsonl` can salvage with ``skip_corrupt``.

    The line format is byte-identical to :meth:`LangCrUXDataset.save_jsonl`
    (which is itself implemented on this writer), so streaming a pipeline's
    shards as they finish produces exactly the file an in-memory run would
    have saved afterwards.

    Sections
    --------
    Writers that stream one logical group at a time — the pipeline streams
    per-country record runs, window by window — can wrap each group in
    :meth:`begin_section` / :meth:`end_section`.  Sections are a write-order
    contract, not a file format: they add no bytes, they merely assert that
    a group's records land contiguously (sections cannot interleave) and
    that the writer never *commits* mid-group — :meth:`close` refuses while
    a section is open, so a crash or bug between a section's windows can
    only ever abandon the partial file, never publish a dataset with a
    half-written group.  With ``fsync="section"`` each :meth:`end_section`
    additionally flushes and fsyncs the partial file, bounding how much a
    host crash can lose to the current section.

    Usable as a context manager: commits on clean exit, discards the partial
    file when the block raises.

    Args:
        path: The destination JSONL path.
        fsync: Durability policy — ``"commit"`` (the default) fsyncs once
            before the atomic rename; ``"section"`` additionally fsyncs
            every completed section.
    """

    #: Accepted ``fsync`` policies.
    FSYNC_POLICIES = ("commit", "section")

    def __init__(self, path: str | Path, *, fsync: str = "commit") -> None:
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; "
                             f"expected one of {self.FSYNC_POLICIES}")
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, partial_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=f".{self.path.name}.", suffix=".partial")
        self.partial_path = Path(partial_name)
        self._handle = os.fdopen(descriptor, "w", encoding="utf-8")
        self._count = 0
        self._closed = False
        self._section: str | None = None
        self._section_count = 0
        self._sections_committed = 0

    @property
    def count(self) -> int:
        """Records written so far."""
        return self._count

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def current_section(self) -> str | None:
        """Name of the open section, or ``None`` between sections."""
        return self._section

    @property
    def sections_committed(self) -> int:
        """How many sections have completed via :meth:`end_section`."""
        return self._sections_committed

    def begin_section(self, name: str) -> None:
        """Open a named section; its records must land contiguously.

        Raises:
            ValueError: When the writer is closed or a section is already
                open (sections cannot nest or interleave).
        """
        if self._closed:
            raise ValueError("writer is closed")
        if self._section is not None:
            raise ValueError(f"section {self._section!r} is still open; "
                             f"cannot begin {name!r}")
        self._section = name
        self._section_count = 0

    def end_section(self) -> int:
        """Close the open section; returns how many records it wrote.

        With ``fsync="section"`` the partial file is flushed and fsynced, so
        everything up to and including this section survives a host crash.

        Raises:
            ValueError: When no section is open.
        """
        if self._section is None:
            raise ValueError("no section is open")
        written = self._section_count
        self._section = None
        self._section_count = 0
        self._sections_committed += 1
        if self.fsync == "section":
            self._handle.flush()
            os.fsync(self._handle.fileno())
        return written

    def write(self, record: SiteRecord) -> None:
        """Append one record to the partial file."""
        if self._closed:
            raise ValueError("writer is closed")
        self._handle.write(json.dumps(record.to_dict(), ensure_ascii=False))
        self._handle.write("\n")
        self._count += 1
        if self._section is not None:
            self._section_count += 1

    def write_many(self, records: Iterable[SiteRecord]) -> int:
        """Append ``records``; returns how many were written by this call."""
        written = 0
        for record in records:
            self.write(record)
            written += 1
        return written

    def write_serialized(self, line: str) -> None:
        """Append one pre-serialized record line (no trailing newline).

        The distributed coordinator merges record lines that worker
        processes already serialized with the exact :meth:`write` format;
        appending them verbatim keeps the merged file byte-identical to a
        single-host build without re-parsing every record.
        """
        if self._closed:
            raise ValueError("writer is closed")
        self._handle.write(line)
        self._handle.write("\n")
        self._count += 1
        if self._section is not None:
            self._section_count += 1

    def close(self) -> int:
        """Commit the partial file onto the final path; returns the count.

        Raises:
            ValueError: When a section is still open — committing would
                publish a dataset whose last group is only partially
                written; callers must :meth:`end_section` (or :meth:`abort`)
                first.
        """
        if self._closed:
            return self._count
        if self._section is not None:
            raise ValueError(f"section {self._section!r} is still open; "
                             f"refusing to commit a partial section")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self.partial_path, self.path)
        self._closed = True
        return self._count

    def abort(self) -> None:
        """Discard everything written; the final path is left untouched."""
        if self._closed:
            return
        self._handle.close()
        self.partial_path.unlink(missing_ok=True)
        self._closed = True

    def __enter__(self) -> "StreamingDatasetWriter":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: TracebackType | None) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()
