"""Error-tolerant HTML parsing into the :mod:`repro.html.dom` model.

One precompiled regex splits the markup into tokens and one loop builds the
tree.  Each match is one token:

* a text run; :func:`html.unescape` runs only on runs containing ``&``;
* a start tag with its attribute source (split by a second regex into
  lowercased names and quoted, bare or missing values), possibly ``/>``;
* a ``<script>``/``<style>`` start tag together with its raw content, taken
  verbatim up to ``</script``/``</style`` (any case) or the end of input;
* an end tag ``</name …>``;
* a comment (ends at ``-->``), ``<!…>``, ``<?…>`` or ``</`` + non-letter
  (each ends at ``>``) — dropped, and running to the end of input when
  unterminated;
* any other ``<`` is text: a bare ``<``, or a start tag that never parses,
  through its next ``>``.

Tags are read the way the standard library's ``html.parser`` reads them; a
stdlib-backed oracle in the test suite pins that.  Tree building follows a
small subset of the HTML5 rules: missing ``<html>``/``<head>``/``<body>`` are
synthesised and ``<html>`` attributes merge onto the root; an end tag closes
the nearest matching open element and everything opened after it, and is
ignored when nothing matches; a ``<p>``, ``<li>`` (or other
:data:`_SELF_CLOSING_SIBLINGS`) closes an open sibling of its own kind; void
elements and ``<tag/>`` never stay open; adjacent text runs coalesce.  The
parser is deterministic, dependency-free and never raises.
"""

from __future__ import annotations

import re
from html import unescape

from repro import perf
from repro.html.dom import Document, Element, TextNode, VOID_TAGS


#: Tags that implicitly close a previous unclosed sibling of the same tag.
_SELF_CLOSING_SIBLINGS = frozenset({"p", "li", "option", "tr", "td", "th", "dt", "dd"})

#: Head-only metadata that ``_ensure_head_and_body`` moves into ``<head>``.
_HEAD_ONLY_TAGS = frozenset({"title", "meta", "link", "base", "style"})

#: One attribute: a name, then optionally ``=`` and a single-quoted,
#: double-quoted or bare value.  A name must follow whitespace, ``/`` or a
#: closing quote.
_ATTRIBUTE = r"""(?<![^'"\s/])([^\s/>][^\s/=>]*)(?:\s*=+\s*(?:'([^']*)'|"([^"]*)"|(?!['"])([^>\s]*)))?"""

_ATTRIBUTE_PAIRS = re.compile(_ATTRIBUTE).findall

#: The token scanner.  Inside a start tag the attribute pattern recurs with
#: its groups made non-capturing, wrapped in ``(?=(...))\4``: that makes the
#: repetition atomic, so a tag that never closes is rejected in linear time
#: instead of by backtracking through every way to split its attributes.
_TOKEN = re.compile(
    r"""([^<]+)"""                                                     # 1 text
    r"""|<(?:((?i:script|style))|([a-zA-Z][^\t\n\r\f />\x00]*))"""     # 2 raw-text tag, 3 tag
    r"""(?![^\t\n\r\f />\x00])"""
    r"""(?=((?:\s|/(?!>)|""" + re.sub(r"\((?!\?)", "(?:", _ATTRIBUTE) + r""")*))\4"""  # 4 attributes
    r"""(/)?>"""                                                       # 5 self-closing
    r"""(?(5)|(?(2)(.*?)(?:</(?i:\2)(?=[\t\n\r\f />])[^>]*>|\Z)))"""   # 6 raw text
    r"""|</([a-zA-Z][^\t\n\r\f />\x00]*)[^>]*>"""                      # 7 end tag
    r"""|<!--(?:-?>|.*?(?:--!?>|\Z))"""                                # comment
    r"""|<(?:[!?]|/(?![a-zA-Z]))[^>]*>?"""                             # declaration, PI
    r"""|(<(?:[a-zA-Z][^>]*>)?)""",                                    # 8 other '<'
    re.DOTALL)


def _ensure_head_and_body(root: Element) -> None:
    """Normalise the tree so that ``<head>`` and ``<body>`` exist and wrap content.

    Content parsed directly under ``<html>`` is moved into ``<body>`` unless
    it is head-only metadata (``<title>``, ``<meta>``, ``<link>``, ...), which
    goes into ``<head>``.
    """
    head = next((el for el in root.child_elements() if el.tag == "head"), None)
    body = next((el for el in root.child_elements() if el.tag == "body"), None)

    if head is None:
        head = Element("head")
        head.parent = root
    if body is None:
        body = Element("body")
        body.parent = root

    for child in root.children:
        if child is head or child is body:
            continue
        if isinstance(child, Element) and child.tag in _HEAD_ONLY_TAGS:
            head._append_raw(child)
        else:
            body._append_raw(child)

    root.children = [head, body]


def _attributes(source: str) -> dict[str, str]:
    attributes: dict[str, str] = {}
    for name, single, double, bare in _ATTRIBUTE_PAIRS(source):
        value = single or double or bare
        if "&" in value:
            value = unescape(value)
        attributes[name.lower()] = value
    return attributes


def _build(markup: str) -> Element:
    """Tokenize ``markup`` and build the element tree under a synthetic root."""
    new_element = Element._parsed
    root = Element("html")
    stack = [root]
    current = root
    for (text, raw_tag, tag, attrs, slash, raw_text, end_tag,
         other) in _TOKEN.findall(markup):
        if text or other:
            text = text or other
            if "&" in text:
                text = unescape(text)
            children = current.children
            if children and type(children[-1]) is TextNode:
                children[-1].text += text
            else:
                current._append_raw(TextNode(text))
        elif tag or raw_tag:
            tag = (tag or raw_tag).lower()
            attributes = _attributes(attrs) if attrs else {}
            if tag == "html":
                if not slash:
                    for name, value in attributes.items():
                        root.set(name, value)
                continue
            if not slash and tag in _SELF_CLOSING_SIBLINGS and current.tag == tag:
                stack.pop()
                current = stack[-1]
            element = new_element(tag, attributes, current)
            if raw_text:
                # Raw text arrives with its start tag: the element is complete.
                element._append_raw(TextNode(raw_text))
            elif not (slash or raw_tag or tag in VOID_TAGS):
                stack.append(element)
                current = element
        elif end_tag:
            end_tag = end_tag.lower()
            for index in range(len(stack) - 1, 0, -1):
                if stack[index].tag == end_tag:
                    del stack[index:]
                    current = stack[-1]
                    break
    return root


def parse_html(markup: str, url: str | None = None) -> Document:
    """Parse ``markup`` into a :class:`~repro.html.dom.Document`.

    Args:
        markup: The HTML source.  Malformed input never raises; the parser
            recovers using the rules described in the module docstring.
        url: Optional source URL recorded on the document.

    Returns:
        The parsed document with guaranteed ``<head>`` and ``<body>``.
    """
    with perf.stage("parse"):
        perf.count("parse.documents")
        perf.count("parse.chars", len(markup))
        root = _build(markup)
        _ensure_head_and_body(root)
        return Document(root=root, url=url)
