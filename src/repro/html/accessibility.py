"""Accessible-name computation.

Screen readers announce interface elements by their *accessible name*, which
the browser computes from a precedence list of sources (the ARIA
"accname" algorithm).  The audit rules and the accessibility-text extraction
both need this computation, so it lives in the HTML substrate.

The implementation follows the precedence order that matters for the twelve
elements studied by the paper:

1. ``aria-labelledby`` — text content of the referenced elements;
2. ``aria-label``;
3. element-specific native markup:
   * ``alt`` for ``<img>``, ``<area>`` and ``<input type=image>``;
   * associated ``<label>`` (``for``/id or wrapping) for form controls;
   * ``value`` for ``<input type=button|submit|reset>``;
   * ``<title>``/``<desc>`` children for inline ``<svg>``;
   * ``title`` attribute for ``<frame>``/``<iframe>`` and as a general
     fallback;
4. visible subtree text (buttons, links, summaries);
5. ``title`` attribute as last resort.

The result records both the name and the *source* that produced it, because
the paper distinguishes explicit accessibility metadata from the fallback to
visible text (Section 3 discusses developers relying on that fallback).

The ``document`` argument of :func:`accessible_name` accepts either a plain
:class:`~repro.html.dom.Document` (the naive reference path: id lookups and
``label[for]`` associations walk the tree) or a
:class:`~repro.html.index.DocumentIndex` (all lookups come from the one-pass
index, and visible-text fallbacks hit its memo).  The functions only rely on
the shared ``get_element_by_id``/``labels_for`` surface, so they stay
ignorant of which access path is in use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.html.dom import Document, Element
from repro.html.visibility import visible_text_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.html.index import DocumentIndex

    NameContext = Document | DocumentIndex | None


class NameSource(str, enum.Enum):
    """Where an accessible name came from, in precedence order."""

    ARIA_LABELLEDBY = "aria-labelledby"
    ARIA_LABEL = "aria-label"
    NATIVE_MARKUP = "native-markup"
    VISIBLE_TEXT = "visible-text"
    TITLE_ATTR = "title"
    NONE = "none"


#: Name sources that count as dedicated accessibility markup.
_EXPLICIT_SOURCES = frozenset({
    NameSource.ARIA_LABELLEDBY,
    NameSource.ARIA_LABEL,
    NameSource.NATIVE_MARKUP,
})


@dataclass(slots=True)
class AccessibleNameResult:
    """Outcome of accessible-name computation for one element.

    Attributes:
        name: The computed accessible name ("" when none).
        source: Which source produced the name.
        explicit: True when the name comes from dedicated accessibility
            markup (ARIA attributes, ``alt``, ``<label>``) rather than from
            the visible-text fallback.  The paper's measurements of "missing"
            accessibility text are measurements of explicit metadata.
    """

    name: str
    source: NameSource

    @property
    def explicit(self) -> bool:
        return self.source in _EXPLICIT_SOURCES

    @property
    def is_empty(self) -> bool:
        return not self.name.strip()


_FORM_CONTROL_TAGS = frozenset({"input", "select", "textarea"})
_BUTTON_VALUE_TYPES = frozenset({"button", "submit", "reset"})


def _labelledby_name(element: Element, document: "NameContext") -> str | None:
    ids = (element.get("aria-labelledby") or "").split()
    if not ids or document is None:
        return None
    parts = []
    for ref in ids:
        target = document.get_element_by_id(ref)
        if target is not None:
            parts.append(target.text_content().strip())
    name = " ".join(part for part in parts if part)
    return name or None


def _associated_label_text(element: Element, document: "NameContext") -> str | None:
    """Text of a ``<label>`` associated with a form control."""
    # Wrapping label.
    for ancestor in element.ancestors():
        if ancestor.tag == "label":
            return ancestor.text_content().strip() or None
    # label[for=id] — an O(1) map lookup on the index, a scan on a Document.
    element_id = element.id
    if element_id and document is not None:
        labels = document.labels_for(element_id)
        if labels:
            return labels[0].text_content().strip() or None
    return None


def _svg_title(element: Element) -> str | None:
    title = next((child for child in element.child_elements() if child.tag == "title"), None)
    if title is not None:
        text = title.text_content().strip()
        if text:
            return text
    desc = next((child for child in element.child_elements() if child.tag == "desc"), None)
    if desc is not None:
        text = desc.text_content().strip()
        if text:
            return text
    return None


def _native_markup_name(element: Element, document: "NameContext") -> str | None:
    """Element-specific native naming markup, step 3 of the precedence list."""
    tag = element.tag
    if tag in ("img", "area"):
        alt = element.get("alt")
        return alt if alt is not None else None
    if tag == "input":
        input_type = (element.get("type") or "text").lower()
        if input_type == "image":
            alt = element.get("alt")
            if alt is not None:
                return alt
            return None
        if input_type in _BUTTON_VALUE_TYPES:
            value = element.get("value")
            if value is not None:
                return value
            return None
        return _associated_label_text(element, document)
    if tag in ("select", "textarea"):
        return _associated_label_text(element, document)
    if tag == "svg":
        return _svg_title(element)
    if tag == "object":
        # <object> has no dedicated text alternative attribute; its fallback
        # content (children) acts as the alternative.
        fallback = element.text_content().strip()
        return fallback or None
    if tag in ("frame", "iframe"):
        title = element.get("title")
        return title if title is not None else None
    return None


def _visible_text_name(element: Element, document: "NameContext") -> str | None:
    if element.tag in ("button", "a", "summary", "label", "option", "legend", "caption", "th", "td"):
        # An accessor memoizes subtree text; a plain Document (or no context)
        # computes fresh.  Dispatch on the Document type rather than
        # importing the accessor union, which would be a circular import.
        if document is None or isinstance(document, Document):
            text = visible_text_of(element)
        else:
            text = document.visible_text(element)
        return text or None
    return None


def accessible_name(element: Element, document: "NameContext" = None) -> AccessibleNameResult:
    """Compute the accessible name of ``element``.

    Args:
        element: The element to name.
        document: The containing document (or its
            :class:`~repro.html.index.DocumentIndex`); needed to resolve
            ``aria-labelledby`` references and ``label[for]`` associations.
            When omitted, those sources are skipped.

    Returns:
        An :class:`AccessibleNameResult`.  Note that an *empty but present*
        source (e.g. ``alt=""``) is reported with that source and an empty
        name: the distinction between "missing" and "empty" is central to
        Table 2 of the paper.
    """
    labelledby = _labelledby_name(element, document)
    if labelledby is not None:
        return AccessibleNameResult(labelledby, NameSource.ARIA_LABELLEDBY)

    aria_label = element.get("aria-label")
    if aria_label is not None:
        return AccessibleNameResult(aria_label, NameSource.ARIA_LABEL)

    native = _native_markup_name(element, document)
    if native is not None:
        return AccessibleNameResult(native, NameSource.NATIVE_MARKUP)

    visible = _visible_text_name(element, document)
    if visible is not None:
        return AccessibleNameResult(visible, NameSource.VISIBLE_TEXT)

    title = element.get("title")
    if title is not None and title.strip():
        return AccessibleNameResult(title, NameSource.TITLE_ATTR)

    return AccessibleNameResult("", NameSource.NONE)


def has_explicit_accessibility_text(element: Element, document: "NameContext" = None) -> bool:
    """Whether the element carries explicit (non-fallback) accessibility text."""
    return accessible_name(element, document).explicit
