"""Parity of the regex-scanner parser with the stdlib-backed oracle.

:func:`repro.html.parser.parse_html` must build the same tree as
``tests/html_oracle.py`` (the ``HTMLParser`` tokenizer it replaced, driving
the same tree-building rules).  Trees are compared as full structural dumps:
tag, attribute order and values, text nodes, nesting and parent links.

Inputs come from two sources: every page the synthetic web generates over a
seed sweep (all twelve countries, localized and global variants), and a
hypothesis grammar of well-formed and mis-nested markup.  The grammar stays
inside constructs that CPython 3.10-3.12 tokenize alike: no ``<title>`` or
``<textarea>`` (escapable raw text in newer releases), no ``<!--`` inside
raw text, ASCII whitespace only, and an entity without ``;`` inside an
attribute value only before whitespace or the value's end.  Malformed input
on which stdlib releases disagree is pinned with explicit expected trees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from html_oracle import dump, oracle_parse_html
from repro.html.parser import parse_html
from repro.webgen.profiles import all_country_codes
from repro.webgen.sitegen import GLOBAL, LOCALIZED, generate_country_sites


def assert_parity(markup: str) -> None:
    assert dump(parse_html(markup).root) == dump(oracle_parse_html(markup).root)


# -- the synthetic web -------------------------------------------------------


@pytest.mark.parametrize("country", all_country_codes())
def test_every_generated_page_parses_like_the_oracle(country: str) -> None:
    pages = 0
    for seed in (0, 1, 2):
        for site in generate_country_sites(country, 3, seed=seed):
            for path in site.page_paths:
                for variant in (LOCALIZED, GLOBAL):
                    assert_parity(site.page_html(path, variant))
                    pages += 1
    assert pages >= 18


# -- the grammar -------------------------------------------------------------

_WORDS = ("news", "Hello", "আজকের খবর", "สวัสดีครับ", "日本語のページ", "русский",
          "مرحبا", "a < b", "x > y", "1<2", "'quoted'", '"dq"', "  ", "\n")
_ENTITIES = ("&amp;", "&lt;", "&gt;", "&quot;", "&#65;", "&#x42;", "&nbsp;",
             "&copy;", "&amp", "&lt", "&copy", "&notin;", "&bogus;", "&")
_TAGS = ("div", "p", "span", "a", "li", "ul", "td", "tr", "table", "option",
         "select", "button", "label", "section", "nav", "h1", "form", "Div",
         "P", "SPAN", "custom-el")
_VOID = ("br", "img", "input", "hr", "meta", "link", "BR", "Img")
_ATTR_NAMES = ("class", "id", "alt", "aria-label", "title", "href", "hidden",
               "data-x", "lang", "ID", "Alt", "ARIA-LABEL")


def _text(draw, *, entities: bool = True) -> str:
    pieces = st.sampled_from(_WORDS + _ENTITIES) if entities else st.sampled_from(_WORDS)
    return "".join(draw(st.lists(pieces, max_size=4)))


@st.composite
def attribute(draw) -> str:
    name = draw(st.sampled_from(_ATTR_NAMES))
    form = draw(st.sampled_from(("double", "single", "bare", "valueless")))
    if form == "valueless":
        return name
    if form == "bare":
        value = draw(st.sampled_from(("x", "main-nav", "42", "a1b2", "আজ", "%E0",
                                      "&amp", "&amp;x")))
        return f"{name}={value}"
    value = "".join(draw(st.lists(st.sampled_from(
        ("photo", "a b", "আজকের", "ภาษา", "日本", ">", "<", "=", "/",
         "&amp;", "&lt;", "&#65;", "&quot;", "&copy ", " ")), max_size=4)))
    quote = '"' if form == "double" else "'"
    spacing = draw(st.sampled_from(("=", " = ", "=\n")))
    return f"{name}{spacing}{quote}{value.replace(quote, '')}{quote}"


@st.composite
def start_tag(draw, tag: str, *, self_closing: bool = False) -> str:
    attrs = draw(st.lists(attribute(), max_size=3))
    separator = draw(st.sampled_from((" ", "  ", "\n", "\t")))
    source = "".join(separator + item for item in attrs)
    end = draw(st.sampled_from(("/>", " />"))) if self_closing else ">"
    return f"<{tag}{source}{end}"


def _nodes(draw, depth: int) -> str:
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("text", "text", "element", "element", "void",
                                     "self-closing", "comment", "raw", "stray-end",
                                     "unclosed")))
        if kind == "text":
            out.append(_text(draw))
        elif kind == "element" and depth > 0:
            tag = draw(st.sampled_from(_TAGS))
            close = draw(st.sampled_from((tag, tag.lower(), tag.upper())))
            out.append(draw(start_tag(tag)) + _nodes(draw, depth - 1) + f"</{close}>")
        elif kind == "void":
            out.append(draw(start_tag(draw(st.sampled_from(_VOID)),
                                      self_closing=draw(st.booleans()))))
        elif kind == "self-closing":
            out.append(draw(start_tag(draw(st.sampled_from(_TAGS)), self_closing=True)))
        elif kind == "comment":
            out.append(f"<!--{_text(draw, entities=False).replace('-', '')}-->")
        elif kind == "raw":
            tag = draw(st.sampled_from(("script", "style", "SCRIPT", "Style")))
            body = "".join(draw(st.lists(st.sampled_from(
                ("var a = 1;", "if (a < b) {}", "<p>not markup</p>", "&amp;",
                 "'</'", "p { color: red }", "আজ", "\n")), max_size=4)))
            out.append(draw(start_tag(tag)) + body + f"</{tag.lower()}>")
        elif kind == "stray-end":
            out.append(f"</{draw(st.sampled_from(_TAGS + _VOID + ('html', 'body')))}>")
        elif kind == "unclosed" and depth > 0:
            out.append(draw(start_tag(draw(st.sampled_from(_TAGS)))) + _nodes(draw, depth - 1))
    return "".join(out)


@st.composite
def documents(draw) -> str:
    head = ""
    if draw(st.booleans()):
        head += "<!DOCTYPE html>"
    if draw(st.booleans()):
        head += draw(start_tag("html"))
    if draw(st.booleans()):
        head += "<head>" + _nodes(draw, 1) + "</head>"
    if draw(st.booleans()):
        return head + draw(start_tag("body")) + _nodes(draw, 3) + "</body></html>"
    return head + _nodes(draw, 3)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_grammar_documents_parse_like_the_oracle(markup: str) -> None:
    assert_parity(markup)


# -- malformed input, pinned -------------------------------------------------


def _body(markup: str) -> tuple:
    document = parse_html(markup)
    assert dump(document.head) == ("head", (), ())
    return dump(document.body)


@pytest.mark.parametrize("markup, body", [
    # An unterminated comment runs to the end of input.
    ("a<!-- b <p>c</p>", ("body", (), (("#text", "a"),))),
    ("a<!-->b", ("body", (), (("#text", "ab"),))),
    # A '<' that does not open a tag is text.
    ("1 < 2 <3", ("body", (), (("#text", "1 < 2 <3"),))),
    ("a<", ("body", (), (("#text", "a<"),))),
    # '</>' and other '</' not followed by a letter are dropped.
    ("a</>b", ("body", (), (("#text", "ab"),))),
    ("a</ p>b", ("body", (), (("#text", "ab"),))),
    # Declarations and processing instructions are dropped.
    ("a<! x>b", ("body", (), (("#text", "ab"),))),
    ("a<?pi>b", ("body", (), (("#text", "ab"),))),
    ("a<?pi", ("body", (), (("#text", "a"),))),
    # An unclosed raw-text element keeps the rest of the input as its text.
    ("<script>var a = '<p>'", ("body", (), (
        ("script", (), (("#text", "var a = '<p>'"),)),))),
    # The close tag of raw text is matched case-insensitively, with
    # trailing whitespace allowed.
    ("<script>x</SCRIPT >after", ("body", (), (
        ("script", (), (("#text", "x"),)), ("#text", "after")))),
    ("<script>a</scripts>b</script>", ("body", (), (
        ("script", (), (("#text", "a</scripts>b"),)),))),
    # A start tag whose quoted value never closes is text through its '>'.
    ('<a href="x>link', ("body", (), (("#text", '<a href="x>link'),))),
])
def test_malformed_input_is_pinned(markup: str, body: tuple) -> None:
    assert _body(markup) == body


def test_html_attributes_merge_onto_the_root() -> None:
    document = parse_html('<html LANG="bn" dir=ltr><p>x</p><html lang="th" class=c>')
    assert dump(document.root)[1] == (("lang", "th"), ("dir", "ltr"), ("class", "c"))


def test_attribute_rules() -> None:
    document = parse_html('<div ID=a Class="x" id=\'b\' hidden title="&amp;&lt" '
                          'alt=1&amp;2 data-v = "a>b" data-e=""></div>')
    div = document.body.children[0]
    assert list(div.attributes.items()) == [
        ("id", "b"), ("class", "x"), ("hidden", ""), ("title", "&<"),
        ("alt", "1&2"), ("data-v", "a>b"), ("data-e", "")]


def test_self_closing_and_void_elements_never_open() -> None:
    assert _body("<div/>a<br>b<img src=x/>c") == ("body", (), (
        ("div", (), ()), ("#text", "a"), ("br", (), ()), ("#text", "b"),
        ("img", (("src", "x/"),), ()), ("#text", "c")))
