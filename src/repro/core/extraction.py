"""Accessibility-text and visible-text extraction from crawled pages.

The measurement pipeline needs, per page:

* the visible text (for the 50% inclusion criterion and the mismatch
  analysis), and
* for each of the twelve language-sensitive elements, the accessibility text
  of every instance — distinguishing *missing* (no explicit metadata at all)
  from *empty* (metadata present but blank) from actual text.

Unlike the audit rules, extraction considers **explicit metadata only**
(``aria-label``/``aria-labelledby``, ``alt``, associated ``<label>``,
``value`` on input buttons, ``<title>``): the paper's missing-rate statistics
measure whether developers provide accessibility metadata, not whether a
screen reader could scrape a fallback from visible text — the reliance on
that fallback is precisely one of the paper's findings.

Element instances are looked up through the document's
:class:`~repro.html.index.DocumentIndex` (one traversal, shared with the
audit stage when both see the same document) instead of one ``find_all``
walk per element group; any accessor with the index's query surface can
stand in for the document, which is how the parity tests and benchmarks run
the naive reference path.  Observations stay grouped
by element type, in the fixed Table 1 order, exactly as before — the index
only changes how instances are found, not how they are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import perf
from repro.core.elements import ELEMENT_IDS
from repro.html.dom import Document, Element
from repro.html.index import DocumentIndex, ensure_index
from repro.html.parser import parse_html

_BUTTON_INPUT_TYPES = frozenset({"button", "submit", "reset"})
_LABELLED_INPUT_EXCLUDES = frozenset({"hidden", "button", "submit", "reset", "image"})


@dataclass(slots=True)
class ExtractedText:
    """One accessibility-text observation.

    Attributes:
        element_id: Which of the twelve elements this instance belongs to.
        text: ``None`` when the metadata is missing, ``""`` when present but
            empty, otherwise the text.
    """

    element_id: str
    text: str | None

    @property
    def is_missing(self) -> bool:
        return self.text is None

    @property
    def is_empty(self) -> bool:
        return self.text is not None and not self.text.strip()

    @property
    def has_text(self) -> bool:
        return self.text is not None and bool(self.text.strip())


@dataclass
class PageExtraction:
    """Everything the analyses need from one page."""

    url: str | None
    visible_text: str
    declared_lang: str | None
    observations: list[ExtractedText] = field(default_factory=list)

    def by_element(self) -> dict[str, list[ExtractedText]]:
        grouped: dict[str, list[ExtractedText]] = {element_id: [] for element_id in ELEMENT_IDS}
        for observation in self.observations:
            grouped.setdefault(observation.element_id, []).append(observation)
        return grouped

    def texts(self, element_id: str | None = None) -> list[str]:
        """Non-empty accessibility texts, optionally restricted to one element."""
        return [obs.text for obs in self.observations
                if obs.has_text and (element_id is None or obs.element_id == element_id)]


def _explicit_text(element: Element, context: DocumentIndex) -> str | None:
    """Explicit accessibility metadata of an element (no visible-text fallback)."""
    result = context.accessible_name(element)
    return result.name if result.explicit else None


def _extract_document_title(context: DocumentIndex) -> ExtractedText:
    return ExtractedText("document-title", context.title)


def _extract_simple(context: DocumentIndex, element_id: str, tag: str,
                    predicate=None) -> list[ExtractedText]:
    return [ExtractedText(element_id, _explicit_text(element, context))
            for element in context.elements(tag, predicate=predicate)]


def _extract_object_alt(context: DocumentIndex) -> list[ExtractedText]:
    observations = []
    for element in context.elements("object"):
        text = _explicit_text(element, context)
        if text is None:
            fallback = element.text_content()
            if fallback.strip():
                text = fallback.strip()
            elif fallback:
                text = ""
        observations.append(ExtractedText("object-alt", text))
    return observations


def extract_page(document: Document | DocumentIndex | str,
                 url: str | None = None) -> PageExtraction:
    """Extract visible text and all accessibility-text observations.

    Args:
        document: A parsed :class:`Document` (looked up through its cached
            :class:`~repro.html.index.DocumentIndex`: one DOM traversal,
            shared with any audit of the same document), an accessor, or
            raw HTML markup.
        url: Recorded on the result when ``document`` is raw markup.

    Returns:
        A :class:`PageExtraction` with one observation per element instance.
    """
    if isinstance(document, str):
        document = parse_html(document, url=url)
    with perf.stage("extract"):
        return _extract_page_indexed(ensure_index(document), url)


def _extract_page_indexed(context: DocumentIndex, url: str | None) -> PageExtraction:
    extraction = PageExtraction(
        url=context.url or url,
        visible_text=context.document_text(),
        declared_lang=context.html_lang,
    )

    extraction.observations.append(_extract_document_title(context))
    extraction.observations.extend(_extract_simple(context, "button-name", "button"))
    extraction.observations.extend(_extract_simple(context, "image-alt", "img"))
    extraction.observations.extend(
        _extract_simple(context, "frame-title", "iframe")
        + _extract_simple(context, "frame-title", "frame"))
    extraction.observations.extend(_extract_simple(context, "summary-name", "summary"))
    extraction.observations.extend(_extract_simple(
        context, "label", "input",
        predicate=lambda el: (el.get("type") or "text").lower() not in _LABELLED_INPUT_EXCLUDES))
    extraction.observations.extend(_extract_simple(context, "label", "textarea"))
    extraction.observations.extend(_extract_simple(
        context, "input-image-alt", "input",
        predicate=lambda el: (el.get("type") or "").lower() == "image"))
    extraction.observations.extend(_extract_simple(context, "select-name", "select"))
    extraction.observations.extend(_extract_simple(
        context, "link-name", "a", predicate=lambda el: el.has_attr("href")))
    extraction.observations.extend(_extract_simple(
        context, "input-button-name", "input",
        predicate=lambda el: (el.get("type") or "").lower() in _BUTTON_INPUT_TYPES))
    extraction.observations.extend(_extract_simple(context, "svg-img-alt", "svg"))
    extraction.observations.extend(_extract_object_alt(context))

    return extraction


def merge_extractions(extractions: list[PageExtraction]) -> PageExtraction:
    """Merge the extractions of several pages of one site into one view.

    Visible text is concatenated; observations are pooled.  The declared
    language of the first page wins (it is the homepage by construction).
    """
    if not extractions:
        return PageExtraction(url=None, visible_text="", declared_lang=None)
    merged = PageExtraction(
        url=extractions[0].url,
        visible_text=" ".join(extraction.visible_text for extraction in extractions).strip(),
        declared_lang=extractions[0].declared_lang,
    )
    for extraction in extractions:
        merged.observations.extend(extraction.observations)
    return merged
