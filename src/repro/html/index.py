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
* lazily cached visible-text and accessible-name results per element.

The index is a pure *access-path* optimisation: every answer is identical to
the naive traversal APIs on :class:`~repro.html.dom.Document`, which remain
in place as the reference implementation (``tests/
test_property_document_index.py`` generates random DOMs and asserts
equivalence).  :class:`NaiveDocumentAccessor` wraps those reference APIs
behind the same interface so consumers can be switched between the two paths
(``use_index=``) for parity tests and benchmarks.

Consumers obtain the index via :meth:`repro.html.dom.Document.index`, which
caches it on the document and rebuilds it when the tree mutates — so the
pipeline's extraction and audit stages, and Kizuki's base-vs-extended double
audit, all share one traversal per page.  The index holds the root, the URL
and the declared language rather than the document that caches it, so the
cache forms no reference cycle and a dropped page is freed at once.
"""

from __future__ import annotations

from typing import Callable

from repro.html.accessibility import AccessibleNameResult, accessible_name
from repro.html.dom import Document, Element, Node, title_of
from repro.html.visibility import _element_hidden, extract_visible_text, is_visible

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
        hidden: dict[Element, bool] = {}
        order: list[Element] = []

        # Iterative depth-first pre-order walk carrying the inherited
        # hidden flag, so visibility memoization is purely top-down.
        stack: list[tuple[Element, bool]] = [(document.root, False)]
        while stack:
            element, parent_hidden = stack.pop()
            element_hidden = parent_hidden or _element_hidden(element)
            position[element] = len(order)
            order.append(element)
            hidden[element] = element_hidden
            by_tag.setdefault(element.tag, []).append(element)
            role = element.role
            if role:
                by_role.setdefault(role, []).append(element)
            identifier = element.id
            if identifier and identifier not in by_id:
                by_id[identifier] = element
            if element.tag == "label":
                target = element.get("for")
                if target:
                    labels_by_for.setdefault(target, []).append(element)
            for child in reversed(element.children):
                if isinstance(child, Element):
                    stack.append((child, element_hidden))

        self._by_tag = by_tag
        self._by_role = by_role
        self._by_id = by_id
        self._labels_by_for = labels_by_for
        self._position = position
        self._hidden = hidden
        self._order = order
        self._visible_text: dict[Element, str] = {}
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
        hidden = self._hidden.get(element)
        if hidden is None:
            # Node outside the indexed tree (detached or foreign): fall back
            # to the naive ancestor walk rather than guessing.
            return is_visible(node)
        return not hidden

    def visible_text(self, element: Element | None = None, *,
                     normalize: bool = True) -> str:
        """Visible text of ``element`` (default: the whole document), cached.

        Only the normalized form — the one every consumer uses — is
        memoized; a non-normalized request computes fresh.
        """
        if element is None:
            element = self.root
        if not normalize:
            return extract_visible_text(element, normalize=False)
        cached = self._visible_text.get(element)
        if cached is None:
            cached = extract_visible_text(element)
            self._visible_text[element] = cached
        return cached

    def document_text(self) -> str:
        """Visible text of the whole document (cached)."""
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


class NaiveDocumentAccessor:
    """The reference access path: same interface, no index, no caching.

    Every query delegates to the naive traversal APIs on
    :class:`~repro.html.dom.Document` (and the module-level visibility /
    accessibility functions).  Property tests compare this accessor against
    :class:`DocumentIndex` on random DOMs, and the benchmark measures the
    throughput gap between the two.
    """

    def __init__(self, document: Document) -> None:
        self.document = document

    @property
    def root(self) -> Element:
        return self.document.root

    @property
    def url(self) -> str | None:
        return self.document.url

    @property
    def html_lang(self) -> str | None:
        return self.document.html_lang

    @property
    def title(self) -> str | None:
        return self.document.title

    def elements(self, tag: str | None = None, *,
                 predicate: Callable[[Element], bool] | None = None) -> list[Element]:
        return self.document.find_all(tag, predicate=predicate)

    def elements_of(self, *tags: str) -> list[Element]:
        wanted = frozenset(tag.lower() for tag in tags)
        return [element for element in self.document.iter_elements()
                if element.tag in wanted]

    def elements_with_role(self, role: str) -> list[Element]:
        wanted = role.strip().lower()
        return [element for element in self.document.iter_elements()
                if element.role == wanted]

    def get_element_by_id(self, element_id: str) -> Element | None:
        if not element_id:
            # Empty ids are never indexed; keep the scan consistent.
            return None
        for element in self.document.iter_elements():
            if element.id == element_id:
                return element
        return None

    def labels_for(self, element_id: str) -> list[Element]:
        return self.document.labels_for(element_id)

    def is_visible(self, node: Node) -> bool:
        return is_visible(node)

    def visible_text(self, element: Element | None = None, *,
                     normalize: bool = True) -> str:
        if element is None:
            element = self.document.root
        return extract_visible_text(element, normalize=normalize)

    def document_text(self) -> str:
        return self.visible_text()

    def accessible_name(self, element: Element) -> AccessibleNameResult:
        return accessible_name(element, self.document)


#: Either access path; consumers are written against this shape.
DocumentAccessor = DocumentIndex | NaiveDocumentAccessor


def ensure_index(source: Document | DocumentIndex | NaiveDocumentAccessor,
                 ) -> DocumentAccessor:
    """Coerce a document (or an accessor) to an accessor.

    A plain :class:`~repro.html.dom.Document` resolves to its cached
    :class:`DocumentIndex`, which is what makes index sharing between
    consumers automatic; an accessor passes through untouched.
    """
    if isinstance(source, (DocumentIndex, NaiveDocumentAccessor)):
        return source
    return source.index()
