"""Single-pass document indexing.

The audit and extraction layers ask the same document the same families of
questions over and over: *all elements of tag X* (once per rule, once per
extraction group), *the element with id Y* (``aria-labelledby``), *the
``<label>`` for control Z* (previously a full-document scan per form
control — O(n²) worst case), *is this node visible*, *what is the visible
text / accessible name of this element*.  Answered naively, auditing and
extracting one page costs ~25 full DOM traversals.

:class:`DocumentIndex` answers all of them from **one** depth-first pass:

* ``tag → elements`` and ``role → elements`` buckets, document order
  preserved (and mergeable across tags via recorded positions);
* ``id → element`` (first occurrence wins, like
  :meth:`~repro.html.dom.Document.get_element_by_id`);
* ``label[for] → labels`` association map;
* top-down memoized visibility (an element is hidden iff its parent is or it
  hides itself — computed once per element during the pass);
* the document's visible text: the pass also visits text nodes and emits the
  parts :func:`~repro.html.visibility.extract_visible_text` would, in the
  same order, into one raw string.  Every visible element records where its
  own text starts and ends in that string, so the visible text of the page
  or of any visible subtree is a slice of it, normalized on request;
* memoized accessible names per element.

The index is a pure *access-path* optimisation: every answer is identical to
the naive traversal APIs on :class:`~repro.html.dom.Document` and the
module-level visibility / accessibility functions.  The naive accessor that
wraps those APIs behind the same interface is a test oracle
(``tests/document_index_oracle.py``); ``tests/
test_property_document_index.py`` generates random DOMs and asserts
equivalence.

Consumers obtain the index via :meth:`repro.html.dom.Document.index`, which
caches it on the document and rebuilds it when the tree mutates — so the
pipeline's selection, extraction and audit stages, and Kizuki's
base-vs-extended double audit, all share one traversal per page.  The index
holds the root, the URL and the declared language rather than the document
that caches it, so the cache forms no reference cycle and a dropped page is
freed at once.
"""

from __future__ import annotations

from array import array
from typing import Callable

from repro.html.accessibility import AccessibleNameResult, accessible_name
from repro.html.dom import Document, Element, Node, TextNode, title_of
from repro.html.visibility import (
    _BLOCK_TAGS,
    _element_hidden,
    extract_visible_text,
    is_visible,
)

_UNSET = object()


class DocumentIndex:
    """One-pass index over a parsed :class:`~repro.html.dom.Document`.

    Exposes the query surface the audit rules and the extraction layer need;
    see the module docstring for what is precomputed versus lazily cached.
    It keeps the document's root, URL and declared language, not the
    document itself: the document caches its index, and a link back would
    make every indexed page a reference cycle.
    """

    def __init__(self, document: Document) -> None:
        self.root = document.root
        self.url = document.url
        self.html_lang = document.html_lang
        by_tag: dict[str, list[Element]] = {}
        by_role: dict[str, list[Element]] = {}
        by_id: dict[str, Element] = {}
        labels_by_for: dict[str, list[Element]] = {}
        position: dict[Element, int] = {}
        order: list[Element] = []
        # Aligned with ``order``: the hidden flag, and for visible elements
        # the span of their own text in the joined raw text.
        hidden = bytearray()
        starts = array("I")
        ends = array("I")
        parts: list[str] = []
        length = 0

        # Iterative depth-first pre-order walk.  The stack holds elements to
        # visit, the strings a visible parent contributes (text runs and the
        # separators around block children) and, as an int, the position of
        # a visible element whose text ends there.  Inside a hidden subtree
        # everything is hidden, so one flag (cleared by a ``None`` marker
        # pushed when the subtree is entered) replaces a per-item flag.
        stack: list = [document.root]
        pop = stack.pop
        push = stack.append
        in_hidden = False
        while stack:
            item = pop()
            kind = type(item)
            if kind is str:
                parts.append(item)
                length += len(item)
                continue
            if kind is int:
                ends[item] = length
                continue
            if item is None:
                in_hidden = False
                continue
            element: Element = item
            attributes = element.attributes
            tag = element.tag
            pos = len(order)
            position[element] = pos
            order.append(element)
            element_hidden = in_hidden or _element_hidden(element)
            hidden.append(element_hidden)
            starts.append(length)
            ends.append(length)
            by_tag.setdefault(tag, []).append(element)
            if attributes:
                role = attributes.get("role")
                if role:
                    role = role.strip().lower()
                    if role:
                        by_role.setdefault(role, []).append(element)
                identifier = attributes.get("id")
                if identifier and identifier not in by_id:
                    by_id[identifier] = element
                if tag == "label":
                    target = attributes.get("for")
                    if target:
                        labels_by_for.setdefault(target, []).append(element)
            children = element.children
            if element_hidden:
                if not in_hidden:
                    in_hidden = True
                    push(None)
                for child in reversed(children):
                    if isinstance(child, Element):
                        push(child)
                continue
            push(pos)
            for child in reversed(children):
                if isinstance(child, TextNode):
                    push(child.text)
                elif isinstance(child, Element):
                    if child.tag in _BLOCK_TAGS:
                        push(" ")
                        push(child)
                        push(" ")
                    else:
                        push(child)

        self._by_tag = by_tag
        self._by_role = by_role
        self._by_id = by_id
        self._labels_by_for = labels_by_for
        self._position = position
        self._hidden = hidden
        self._order = order
        self._starts = starts
        self._ends = ends
        self._text = "".join(parts)
        self._accessible_names: dict[Element, AccessibleNameResult] = {}
        self._title: object = _UNSET

    # -- document-level accessors -----------------------------------------

    @property
    def title(self) -> str | None:
        """The document title, computed once and cached."""
        if self._title is _UNSET:
            self._title = title_of(self.root)
        return self._title  # type: ignore[return-value]

    # -- element selection -------------------------------------------------

    def elements(self, tag: str | None = None, *,
                 predicate: Callable[[Element], bool] | None = None) -> list[Element]:
        """Elements matching ``tag``/``predicate``, in document order.

        Matches :meth:`repro.html.dom.Document.find_all` exactly, including
        the root element when its tag matches (and its exclusion for
        ``tag=None``).
        """
        if tag is None:
            candidates = self._order[1:]
        else:
            candidates = self._by_tag.get(tag.lower(), [])
        if predicate is None:
            return list(candidates)
        return [element for element in candidates if predicate(element)]

    def elements_of(self, *tags: str) -> list[Element]:
        """Elements of any of ``tags``, merged into one document-ordered list.

        This is what makes multi-tag audit targets (``iframe``/``frame``,
        ``input``/``textarea``) document-ordered instead of
        grouped-by-lookup-order.
        """
        merged: list[Element] = []
        seen: set[str] = set()
        for tag in tags:
            tag = tag.lower()
            if tag not in seen:
                seen.add(tag)
                merged.extend(self._by_tag.get(tag, []))
        merged.sort(key=self._position.__getitem__)
        return merged

    def elements_with_role(self, role: str) -> list[Element]:
        """Elements carrying an explicit ARIA ``role``, in document order."""
        return list(self._by_role.get(role.strip().lower(), []))

    def get_element_by_id(self, element_id: str) -> Element | None:
        return self._by_id.get(element_id)

    def labels_for(self, element_id: str) -> list[Element]:
        """``<label for=element_id>`` elements, in document order."""
        return list(self._labels_by_for.get(element_id, ()))

    # -- visibility ---------------------------------------------------------

    def is_visible(self, node: Node) -> bool:
        """Memoized equivalent of :func:`repro.html.visibility.is_visible`."""
        element = node if isinstance(node, Element) else node.parent
        if element is None:
            return True
        pos = self._position.get(element)
        if pos is None:
            # Node outside the indexed tree (detached or foreign): fall back
            # to the naive ancestor walk rather than guessing.
            return is_visible(node)
        return not self._hidden[pos]

    def visible_text(self, element: Element | None = None, *,
                     normalize: bool = True) -> str:
        """Visible text of ``element`` (default: the whole document).

        Equal to :func:`~repro.html.visibility.extract_visible_text`, which
        ignores the element's ancestors.  A visible element's text is its
        slice of the walk's raw text; a hidden one's is empty when it hides
        itself, and is extracted afresh when only an ancestor hides it.
        """
        if element is None:
            element = self.root
        pos = self._position.get(element)
        if pos is None or self._hidden[pos]:
            if pos is not None and _element_hidden(element):
                return ""
            return extract_visible_text(element, normalize=normalize)
        text = self._text[self._starts[pos]:self._ends[pos]]
        return " ".join(text.split()) if normalize else text

    def document_text(self) -> str:
        """Visible text of the whole document, normalized from the raw text.

        Recomputed per call rather than cached: indexed documents can live
        for a whole selection window, and one copy of the text is enough.
        """
        return self.visible_text()

    # -- accessible names ---------------------------------------------------

    def accessible_name(self, element: Element) -> AccessibleNameResult:
        """Memoized accessible-name computation.

        Resolution of ``aria-labelledby`` references, ``label[for]``
        associations and visible-text fallbacks all go through this index,
        so no full-document scans happen per element.
        """
        cached = self._accessible_names.get(element)
        if cached is None:
            cached = accessible_name(element, self)
            self._accessible_names[element] = cached
        return cached


def ensure_index(source: Document | DocumentIndex) -> DocumentIndex:
    """Coerce a document to its accessor.

    A plain :class:`~repro.html.dom.Document` resolves to its cached
    :class:`DocumentIndex`, which is what makes index sharing between
    consumers automatic.  Anything else is already an accessor with the
    index's query surface (the index itself, or the naive oracle the parity
    tests pass in) and passes through untouched.
    """
    if isinstance(source, Document):
        return source.index()
    return source
