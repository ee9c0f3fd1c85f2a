"""Visible-text extraction.

The paper's 50% inclusion criterion and the visible-vs-accessibility mismatch
analysis both operate on the *visible* text of a page: what a sighted user
sees rendered.  Since this reproduction does not run a browser, visibility is
approximated with static rules that cover the cases that actually occur in
the synthetic corpus and the overwhelming majority of real pages:

* content of non-rendered elements (``<script>``, ``<style>``, ``<head>``,
  ``<template>``, ``<noscript>``) is invisible;
* elements carrying the ``hidden`` attribute or ``aria-hidden="true"`` are
  invisible, along with their subtree;
* inline styles containing ``display:none`` or ``visibility:hidden`` hide the
  subtree;
* ``<input type=hidden>`` is invisible;
* attribute values (``alt``, ``aria-label``, ``title`` ...) are *not* visible
  text — they are accessibility metadata and are handled separately by
  :mod:`repro.core.extraction`.

The recursive walk here is the reference definition of visible text.  The
pipeline reads it from :class:`~repro.html.index.DocumentIndex` instead,
whose one pass over a page emits the same parts in the same order, so the
visible text of the page or of a visible subtree is a slice of that pass's
text.  Normalization collapses whitespace with ``" ".join(text.split())``:
``str.split`` and the regex ``\\s`` agree on every code point.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from repro.html.dom import Document, Element, Node, NON_RENDERED_TAGS, TextNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.html.index import DocumentIndex

_DISPLAY_NONE_RE = re.compile(r"display\s*:\s*none", re.IGNORECASE)
_VISIBILITY_HIDDEN_RE = re.compile(r"visibility\s*:\s*hidden", re.IGNORECASE)

#: Elements rendered as blocks: their text does not run together with the
#: text of adjacent elements, so extraction inserts a separator around them.
_BLOCK_TAGS = frozenset({
    "p", "div", "section", "article", "aside", "header", "footer", "main",
    "nav", "h1", "h2", "h3", "h4", "h5", "h6", "ul", "ol", "li", "table",
    "tr", "td", "th", "form", "fieldset", "figure", "figcaption", "details",
    "summary", "blockquote", "pre", "br", "hr", "option", "select", "button",
    "label",
})


def _element_hidden(element: Element) -> bool:
    """Whether this element (ignoring ancestors) hides its subtree.

    Reads the attribute dict directly: its keys are already lowercase, and
    this runs once per element of every indexed page.
    """
    tag = element.tag
    if tag in NON_RENDERED_TAGS:
        return True
    attributes = element.attributes
    if not attributes:
        return False
    if "hidden" in attributes:
        return True
    aria_hidden = attributes.get("aria-hidden")
    if aria_hidden and aria_hidden.strip().lower() == "true":
        return True
    if tag == "input" and (attributes.get("type") or "").lower() == "hidden":
        return True
    style = attributes.get("style")
    if not style:
        return False
    return bool(_DISPLAY_NONE_RE.search(style) or _VISIBILITY_HIDDEN_RE.search(style))


def is_visible(node: Node, index: "DocumentIndex | None" = None) -> bool:
    """Whether ``node`` (an element or text node) is rendered.

    A node is visible when neither it nor any of its ancestors hides its
    subtree.  The document root is always considered visible.

    Args:
        node: The node to test.
        index: An optional :class:`~repro.html.index.DocumentIndex`; when
            given, the answer comes from its top-down memoized visibility
            map instead of re-walking the ancestor chain.
    """
    if index is not None:
        return index.is_visible(node)
    element = node if isinstance(node, Element) else node.parent
    while element is not None:
        if _element_hidden(element):
            return False
        element = element.parent
    return True


def _collect_visible_text(element: Element, parts: list[str]) -> None:
    # DocumentIndex.__init__ emits these same parts in this order; a change
    # here must be made there too (tests/test_property_document_index.py).
    if _element_hidden(element):
        return
    for child in element.children:
        if isinstance(child, TextNode):
            parts.append(child.text)
        elif isinstance(child, Element):
            is_block = child.tag in _BLOCK_TAGS
            if is_block:
                parts.append(" ")
            _collect_visible_text(child, parts)
            if is_block:
                parts.append(" ")


def extract_visible_text(document: Document | Element, *, normalize: bool = True,
                         index: "DocumentIndex | None" = None) -> str:
    """Extract the visible text of a document or subtree.

    Args:
        document: A :class:`Document` or an :class:`Element` subtree root.
        normalize: When true (default), runs of whitespace collapse to single
            spaces and the result is stripped, mirroring how rendered text is
            perceived.
        index: An optional :class:`~repro.html.index.DocumentIndex`; when
            given, the result is a slice of the text its walk already
            collected, so no subtree is traversed again.

    Returns:
        The visible text.  Empty string when nothing is visible.
    """
    root = document.root if isinstance(document, Document) else document
    if index is not None:
        return index.visible_text(root, normalize=normalize)
    parts: list[str] = []
    _collect_visible_text(root, parts)
    text = "".join(parts)
    if normalize:
        text = " ".join(text.split())
    return text


def visible_text_of(element: Element, *, normalize: bool = True) -> str:
    """Visible text of a single element's subtree (alias used by audit rules)."""
    return extract_visible_text(element, normalize=normalize)


def visible_text_length(document: Document | Element) -> int:
    """Length in characters of the (normalised) visible text."""
    return len(extract_visible_text(document))
