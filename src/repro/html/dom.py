"""A lightweight DOM for crawled pages.

The model intentionally covers only what the measurement pipeline needs:
elements with attributes, text nodes, parent/child links, traversal, and a
handful of query helpers.  It does not attempt CSS cascade, layout or
JavaScript execution — the visible-text rules in
:mod:`repro.html.visibility` approximate the rendering decisions that matter
for this study.

Child links are strong and parent links are weak, so a tree holds no
reference cycle: a page is freed by reference counting the moment its
:class:`Document` (or its root element) is dropped, without waiting for a
cyclic garbage collection.  The flip side is that an element kept after its
tree is dropped reads ``parent is None``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.html.index import DocumentIndex


#: Elements that never contribute rendered text.
NON_RENDERED_TAGS = frozenset({
    "script", "style", "template", "noscript", "head", "meta", "link", "title",
})

#: Void (self-closing) HTML elements, needed by the parser and serializer.
VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})


def _no_parent() -> None:
    """The ``_parent`` slot of a node without a parent."""
    return None


_ref = weakref.ref


class Node:
    """Base class for DOM nodes."""

    __slots__ = ("_parent",)

    def __init__(self) -> None:
        self._parent: Callable[[], "Element | None"] = _no_parent

    @property
    def parent(self) -> "Element | None":
        """The parent element, or ``None``.

        The link is a weak reference: the parent keeps its children alive,
        never the other way round.  A node kept after the rest of its tree
        (the document and its root) is dropped therefore reads ``None``.
        """
        return self._parent()

    @parent.setter
    def parent(self, element: "Element | None") -> None:
        self._parent = _no_parent if element is None else _ref(element)

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the immediate parent up to the root."""
        current = self._parent()
        while current is not None:
            yield current
            current = current._parent()


class TextNode(Node):
    """A run of character data."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"TextNode({preview!r})"


class Element(Node):
    """An HTML element with attributes and children."""

    __slots__ = ("tag", "attributes", "children", "tree_version", "__weakref__")

    def __init__(self, tag: str, attributes: Mapping[str, str] | None = None) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict[str, str] = (
            {k.lower(): v for k, v in attributes.items()} if attributes else {})
        self.children: list[Node] = []
        #: Mutation counter of the tree rooted here.  Every :meth:`set` /
        #: :meth:`append` anywhere in a tree bumps the counter on that tree's
        #: root, so document-level caches (the id index, the
        #: :class:`~repro.html.index.DocumentIndex`) can detect staleness
        #: without being told explicitly (generators mutate trees they later
        #: serve).
        self.tree_version: int = 0

    @classmethod
    def _parsed(cls, tag: str, attributes: dict[str, str], parent: "Element") -> "Element":
        """Parser constructor: names are already lowercase, and the child is
        appended to ``parent`` without a version bump (see :meth:`_append_raw`)."""
        element = cls.__new__(cls)
        element.tag = tag
        element.attributes = attributes
        element.children = []
        element.tree_version = 0
        element._parent = _ref(parent)
        parent.children.append(element)
        return element

    def _mark_mutated(self) -> None:
        # Tight parent-chain walk (self is always an Element): O(depth) per
        # mutation, which stays cheap because HTML trees are shallow even
        # when they are wide.
        node = self
        parent = node._parent()
        while parent is not None:
            node = parent
            parent = node._parent()
        node.tree_version += 1

    # -- tree construction -------------------------------------------------

    def append(self, node: Node) -> Node:
        """Append ``node`` as the last child and return it."""
        node._parent = _ref(self)
        self.children.append(node)
        self._mark_mutated()
        return node

    def _append_raw(self, node: Node) -> Node:
        """Append without bumping ``tree_version``.

        Tree-construction fast path for the parser: while a tree is first
        being built no :class:`Document` (and therefore no cache that could
        go stale) exists yet, so the per-mutation parent-chain walk would be
        pure overhead on the parse hot path.  Never use this on a tree that
        a document may already be serving.
        """
        node._parent = _ref(self)
        self.children.append(node)
        return node

    def append_text(self, text: str) -> TextNode:
        """Append a text node (convenience for generators and tests)."""
        text_node = TextNode(text)
        return self.append(text_node)  # type: ignore[return-value]

    # -- attributes --------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """Attribute value by (case-insensitive) name."""
        return self.attributes.get(name.lower(), default)

    def has_attr(self, name: str) -> bool:
        return name.lower() in self.attributes

    def set(self, name: str, value: str) -> None:
        self.attributes[name.lower()] = value
        self._mark_mutated()

    @property
    def id(self) -> str | None:
        return self.get("id")

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.get("class", "").split())

    @property
    def role(self) -> str | None:
        """Explicit ARIA role, lowercased, or ``None``."""
        role = self.get("role")
        return role.strip().lower() if role else None

    # -- traversal ---------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over this element and descendants."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def iter_nodes(self) -> Iterator[Node]:
        """Depth-first pre-order iteration over all nodes, including text."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_nodes()
            else:
                yield child

    def find_all(self, tag: str | None = None, *,
                 predicate: Callable[["Element"], bool] | None = None) -> list["Element"]:
        """All descendant elements (excluding self) matching tag/predicate."""
        results = []
        for element in self.iter():
            if element is self:
                continue
            if tag is not None and element.tag != tag.lower():
                continue
            if predicate is not None and not predicate(element):
                continue
            results.append(element)
        return results

    def find(self, tag: str | None = None, *,
             predicate: Callable[["Element"], bool] | None = None) -> "Element | None":
        """First matching descendant, or ``None``."""
        matches = self.find_all(tag, predicate=predicate)
        return matches[0] if matches else None

    def child_elements(self) -> list["Element"]:
        return [child for child in self.children if isinstance(child, Element)]

    # -- text --------------------------------------------------------------

    def text_content(self) -> str:
        """Concatenated character data of all descendant text nodes.

        Unlike visible-text extraction this includes text inside hidden
        elements; it corresponds to the DOM ``textContent`` property.
        """
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.text)
            elif isinstance(child, Element):
                child._collect_text(parts)

    def own_text(self) -> str:
        """Character data of direct text-node children only."""
        return "".join(child.text for child in self.children if isinstance(child, TextNode))

    # -- serialization -----------------------------------------------------

    def to_html(self) -> str:
        """Serialize the subtree back to HTML.

        The page generator writes its markup directly; this serializer is
        what the test suite's DOM-building page oracle and the DOM tests
        use.
        """
        attrs = "".join(
            f' {name}' if value == "" and name in _BOOLEAN_ATTRS
            else f' {name}="{escape_attribute(value)}"'
            for name, value in self.attributes.items()
        )
        if self.tag in VOID_TAGS:
            return f"<{self.tag}{attrs}>"
        inner = "".join(
            child.to_html() if isinstance(child, Element) else escape_text(child.text)
            for child in self.children
        )
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ident = f"#{self.id}" if self.id else ""
        return f"<Element {self.tag}{ident} children={len(self.children)}>"


_BOOLEAN_ATTRS = frozenset({"hidden", "disabled", "checked", "required", "multiple", "selected"})


def escape_attribute(value: str) -> str:
    """Escape a double-quoted attribute value for serialization."""
    return value.replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;").replace(">", "&gt;")


def escape_text(value: str) -> str:
    """Escape character data for serialization."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def title_of(root: Element) -> str | None:
    """Text of the first ``<title>`` under ``root`` (preferring ``<head>``),
    stripped, or ``None`` when there is none."""
    head = next((el for el in root.child_elements() if el.tag == "head"), None)
    title = (head if head is not None else root).find("title")
    if title is None:
        title = root.find("title")
    if title is None:
        return None
    return title.text_content().strip()


@dataclass
class Document:
    """A parsed HTML document.

    Attributes:
        root: The root ``<html>`` element (synthesised if the source lacked
            one).
        url: The URL the document was fetched from, when known.
    """

    root: Element
    url: str | None = None
    _id_index: dict[str, Element] | None = field(default=None, repr=False, compare=False)
    _id_index_version: int = field(default=-1, repr=False, compare=False)
    _document_index: "DocumentIndex | None" = field(default=None, repr=False, compare=False)
    _document_index_version: int = field(default=-1, repr=False, compare=False)

    # -- document-level accessors -------------------------------------------

    @property
    def html_lang(self) -> str | None:
        """The declared document language (the ``lang`` attribute on ``<html>``)."""
        lang = self.root.get("lang")
        return lang.strip() if lang else None

    @property
    def head(self) -> Element | None:
        return next((el for el in self.root.child_elements() if el.tag == "head"), None)

    @property
    def body(self) -> Element | None:
        return next((el for el in self.root.child_elements() if el.tag == "body"), None)

    @property
    def title(self) -> str | None:
        """Text of the ``<title>`` element, stripped, or ``None`` when absent."""
        return title_of(self.root)

    # -- queries -------------------------------------------------------------

    def iter_elements(self) -> Iterator[Element]:
        yield from self.root.iter()

    def find_all(self, tag: str | None = None, *,
                 predicate: Callable[[Element], bool] | None = None) -> list[Element]:
        results = self.root.find_all(tag, predicate=predicate)
        # Include the root itself when it matches; find_all excludes self.
        if tag is not None and self.root.tag == tag.lower():
            if predicate is None or predicate(self.root):
                results.insert(0, self.root)
        return results

    def get_element_by_id(self, element_id: str) -> Element | None:
        """Look up an element by its ``id`` attribute (index built lazily).

        The lazily built map invalidates itself when the tree mutates
        (``Element.set``/``append`` bump the root's ``tree_version``), so
        callers never observe stale lookups after a mutation.
        """
        if self._id_index is None or self._id_index_version != self.root.tree_version:
            version = self.root.tree_version
            index: dict[str, Element] = {}
            for element in self.root.iter():
                identifier = element.id
                if identifier and identifier not in index:
                    index[identifier] = element
            # Record the version only once the rebuild succeeded, so an
            # interrupted build can never leave a stale map marked fresh.
            self._id_index = index
            self._id_index_version = version
        return self._id_index.get(element_id)

    def labels_for(self, element_id: str) -> list[Element]:
        """All ``<label for=element_id>`` elements, in document order.

        This is the naive reference lookup (one traversal per call); the
        :class:`~repro.html.index.DocumentIndex` answers the same query from
        a prebuilt map.  An empty ``element_id`` matches nothing, mirroring
        ``get_element_by_id`` (which never indexes empty ids).
        """
        if not element_id:
            return []
        return self.root.find_all(
            "label", predicate=lambda label: label.get("for") == element_id)

    def index(self) -> "DocumentIndex":
        """The document's :class:`~repro.html.index.DocumentIndex`.

        Built on first use in a single traversal and cached; rebuilt
        automatically when the tree mutates.  Every consumer that asks the
        same document for its index shares one instance, which is how the
        pipeline's extraction and audit stages (and Kizuki's base-vs-extended
        double audit) end up traversing each page only once.
        """
        from repro.html.index import DocumentIndex

        if (self._document_index is None
                or self._document_index_version != self.root.tree_version):
            from repro import perf

            version = self.root.tree_version
            with perf.stage("index"):
                self._document_index = DocumentIndex(self)
            self._document_index_version = version
        return self._document_index

    def invalidate_indexes(self) -> None:
        """Drop cached indexes explicitly.

        Mutations through ``Element.set``/``append`` invalidate automatically;
        this remains for callers that mutate ``children``/``attributes``
        containers directly.
        """
        self._id_index = None
        self._id_index_version = -1
        self._document_index = None
        self._document_index_version = -1

    def to_html(self) -> str:
        """Serialize the whole document, including a doctype."""
        return "<!DOCTYPE html>" + self.root.to_html()


def new_document(lang: str | None = None, title: str | None = None,
                 url: str | None = None) -> Document:
    """Create an empty document with ``<head>`` and ``<body>`` scaffolding.

    Used by the test suite's DOM-building page oracle and by tests that
    build isolated single-element pages (the Appendix D experiment).
    """
    root = Element("html", {"lang": lang} if lang else None)
    head = Element("head")
    body = Element("body")
    root.append(head)
    root.append(body)
    if title is not None:
        title_el = Element("title")
        title_el.append_text(title)
        head.append(title_el)
    return Document(root=root, url=url)
