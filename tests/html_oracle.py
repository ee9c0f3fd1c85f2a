"""Reference HTML parser: the standard library's ``HTMLParser`` driving the
same tree-building rules as :func:`repro.html.parser.parse_html`.

The product parser tokenizes with one compiled regex.  This oracle keeps the
stdlib tokenizer it replaced, so the parity suite can check that both build
the same :class:`~repro.html.dom.Document` for every input the two
tokenizers read alike.  It is test-only and never imported from ``src/``.

:func:`dump` renders a tree as nested tuples — tag, attributes in order,
text nodes, nesting — and checks every parent link on the way, so parity
asserts compare whole structures rather than a lossy serialization.
"""

from __future__ import annotations

from html.parser import HTMLParser

from repro.html.dom import Document, Element, Node, TextNode, VOID_TAGS
from repro.html.parser import _SELF_CLOSING_SIBLINGS, _ensure_head_and_body


class _TreeBuilder(HTMLParser):
    """``HTMLParser`` subclass that builds an Element tree."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self._stack: list[Element] = [self.root]

    @property
    def _current(self) -> Element:
        return self._stack[-1]

    def _open(self, element: Element) -> None:
        self._current._append_raw(element)
        if element.tag not in VOID_TAGS:
            self._stack.append(element)

    def _close_until(self, tag: str) -> None:
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        attributes = ({name: (value if value is not None else "") for name, value in attrs}
                      if attrs else None)
        if tag == "html":
            # Attributes (notably ``lang``) merge onto the synthesised root.
            if attributes:
                for name, value in attributes.items():
                    self.root.set(name, value)
            return
        if tag in _SELF_CLOSING_SIBLINGS and self._current.tag == tag:
            self._stack.pop()
        self._open(Element(tag, attributes))

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        tag = tag.lower()
        if tag == "html":
            return
        attributes = ({name: (value if value is not None else "") for name, value in attrs}
                      if attrs else None)
        self._current._append_raw(Element(tag, attributes))

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "html" or tag in VOID_TAGS:
            return
        self._close_until(tag)

    def handle_data(self, data: str) -> None:
        if not data:
            return
        children = self._current.children
        if children and type(children[-1]) is TextNode:
            children[-1].text += data
            return
        self._current._append_raw(TextNode(data))

    def handle_comment(self, data: str) -> None:
        return

    def handle_decl(self, decl: str) -> None:
        return


def oracle_parse_html(markup: str, url: str | None = None) -> Document:
    """Parse ``markup`` with the stdlib tokenizer (reference path)."""
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    _ensure_head_and_body(builder.root)
    return Document(root=builder.root, url=url)


def dump(node: Node) -> tuple:
    """The structure under ``node`` as nested tuples; asserts parent links."""
    if isinstance(node, TextNode):
        return ("#text", node.text)
    assert isinstance(node, Element)
    for child in node.children:
        assert child.parent is node, f"broken parent link under <{node.tag}>"
    return (node.tag, tuple(node.attributes.items()),
            tuple(dump(child) for child in node.children))
