"""HTML and DOM substrate.

The paper crawls pages with Puppeteer and reads two things from the rendered
DOM: the *visible text* of the page and the *accessibility metadata* attached
to elements (``alt``, ``aria-label``, ``<label>``, titles...).  This
subpackage provides a static equivalent:

* :mod:`repro.html.dom` — a lightweight DOM: :class:`Element`, :class:`TextNode`
  and :class:`Document` with traversal and query helpers.
* :mod:`repro.html.parser` — an error-tolerant HTML parser: one
  compiled-regex scanner feeds one tree-building loop, and malformed markup
  (stray ``<``, unmatched end tags, missing ``<body>``) never raises.
* :mod:`repro.html.visibility` — visible-text extraction honouring
  ``<script>``/``<style>``, ``hidden``, ``aria-hidden`` and inline
  ``display:none`` / ``visibility:hidden`` styles.
* :mod:`repro.html.accessibility` — accessible-name computation following the
  precedence rules screen readers use (``aria-labelledby``, ``aria-label``,
  native markup such as ``alt`` or ``<label>``, then visible text).
* :mod:`repro.html.index` — :class:`~repro.html.index.DocumentIndex`, a
  one-pass index (tag/role/id/label buckets, memoized visibility and
  accessible names, and the page's visible text, of which every visible
  subtree's text is a slice) that the selection, audit and extraction
  layers consult instead of re-traversing the tree.
"""

from repro.html.dom import Document, Element, Node, TextNode
from repro.html.parser import parse_html
from repro.html.visibility import extract_visible_text, is_visible
from repro.html.accessibility import accessible_name, AccessibleNameResult
from repro.html.index import DocumentIndex, ensure_index

__all__ = [
    "Document",
    "DocumentIndex",
    "Element",
    "Node",
    "TextNode",
    "parse_html",
    "ensure_index",
    "extract_visible_text",
    "is_visible",
    "accessible_name",
    "AccessibleNameResult",
]
