"""Property tests: the DocumentIndex is a pure access-path change.

Random DOMs — nested containers, hidden subtrees, dangling and duplicate
ids, ``label[for]`` associations, ``aria-labelledby`` references, every
studied element type — are generated as markup and parsed; then every query
the index answers (selection, visibility, visible text, accessible names)
is compared against the naive-traversal reference implementation (the
``NaiveDocumentAccessor`` oracle in ``tests/document_index_oracle.py`` / the
module-level functions).  Text runs carry non-ASCII whitespace, hidden
blocks sit between them, and visible elements nest inside hidden ones, so
the index's slices of its one-walk text meet every separator and fallback
case.  A final end-to-end check rebuilds real pipeline records over the
naive accessor and asserts byte-identical serialization.
"""

from __future__ import annotations

import json
import re
import sys

from hypothesis import example, given, settings, strategies as st

from repro.audit.engine import AuditEngine
from repro.audit.rules import ALL_RULES
from repro.core.extraction import extract_page
from repro.core.pipeline import record_from_crawl
from repro.html.accessibility import accessible_name
from repro.html.dom import Element
from repro.html.parser import parse_html
from repro.html.visibility import extract_visible_text, is_visible

from document_index_oracle import NaiveDocumentAccessor, naive_documents

#: Small id pool so generated references collide, dangle and duplicate; the
#: empty id exercises the "never indexed" edge on every access path.
ID_POOL = tuple(f"id{i}" for i in range(5)) + ("",)

_HIDING = st.sampled_from([
    "",
    " hidden",
    " aria-hidden='true'",
    " aria-hidden='false'",
    " style='display:none'",
    " style='color:red'",
    " style='visibility:hidden'",
])

#: Whitespace that ``str.split`` and ``\s`` both collapse beyond the ASCII
#: space: tab, newline, no-break space, ideographic space, line separator
#: and the file separator control.
_SPACES = "\t\n\u00a0\u3000\u2028\x1c"

_WORDS = st.text(alphabet="abc xyzধন" + _SPACES, min_size=0, max_size=12)

_HIDDEN = st.sampled_from([" hidden", " aria-hidden='true'", " style='display:none'"])


@st.composite
def _leaf(draw) -> str:
    """One studied element (or plain text), with randomised attributes."""
    ident = draw(st.sampled_from(ID_POOL))
    word = draw(_WORDS)
    kind = draw(st.sampled_from([
        "text", "img", "img_plain", "a", "a_plain", "button", "role_button",
        "input_text", "input_submit", "input_image", "input_hidden",
        "textarea", "select", "label", "iframe", "frame", "object",
        "object_blank", "svg", "summary", "labelledby", "br",
        "hidden_block", "hidden_inline", "shown_in_hidden",
    ]))
    if kind == "text":
        return word
    if kind == "img":
        return f"<img src='x' alt='{word}'>"
    if kind == "img_plain":
        return "<img src='x'>"
    if kind == "a":
        return f"<a href='/x' id='{ident}'>{word}</a>"
    if kind == "a_plain":
        return f"<a>{word}</a>"
    if kind == "button":
        return f"<button id='{ident}'>{word}</button>"
    if kind == "role_button":
        return f"<span role='button' title='{word}'>{word}</span>"
    if kind == "input_text":
        return f"<input type='text' id='{ident}'>"
    if kind == "input_submit":
        return f"<input type='submit' value='{word}'>"
    if kind == "input_image":
        return f"<input type='image' alt='{word}'>"
    if kind == "input_hidden":
        return "<input type='hidden'>"
    if kind == "textarea":
        return f"<textarea id='{ident}'></textarea>"
    if kind == "select":
        return f"<select id='{ident}'><option>{word}</option></select>"
    if kind == "label":
        return f"<label for='{ident}'>{word}</label>"
    if kind == "iframe":
        return f"<iframe src='/f' title='{word}'></iframe>"
    if kind == "frame":
        return "<frame src='/f'>"
    if kind == "object":
        return f"<object data='/d'>{word}</object>"
    if kind == "object_blank":
        return "<object data='/d'>   </object>"
    if kind == "svg":
        return f"<svg><title>{word}</title><path d='M0 0'/></svg>"
    if kind == "summary":
        return f"<details><summary>{word}</summary><p>{word}</p></details>"
    if kind == "br":
        return f"{word}<br>{word}"
    if kind == "hidden_block":
        # A hidden block between two text runs: its parent still emits the
        # separators around it, so the runs do not join.
        block = draw(st.sampled_from(["div", "p", "li", "button", "label"]))
        return f"{word}<{block}{draw(_HIDDEN)}>{word}</{block}>{word}"
    if kind == "hidden_inline":
        return f"{word}<span{draw(_HIDDEN)}>{word}</span>{word}"
    if kind == "shown_in_hidden":
        # Visible elements whose only hidden part is an ancestor: their own
        # visible text still counts (the index's fallback path).
        return (f"<div{draw(_HIDDEN)}><section id='{ident}'>{word}<b>{word}</b>"
                f"<p>{word}</p></section><a href='/h'>{word}</a></div>")
    return f"<span aria-labelledby='{ident}'>{word}</span>"


@st.composite
def _fragment(draw, depth: int = 0) -> str:
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if depth < 2 and draw(st.booleans()):
            tag = draw(st.sampled_from(["div", "p", "section", "form"]))
            hiding = draw(_HIDING)
            inner = draw(_fragment(depth=depth + 1))
            pieces.append(f"<{tag}{hiding}>{inner}</{tag}>")
        else:
            pieces.append(draw(_leaf()))
    return "".join(pieces)


@st.composite
def random_pages(draw):
    body = draw(_fragment())
    title = draw(st.sampled_from(["<title>t</title>", "<title></title>", ""]))
    return parse_html(f"<html lang='bn'><head>{title}</head><body>{body}</body></html>")


_QUERY_TAGS = (None, "img", "a", "button", "input", "textarea", "select", "label",
               "iframe", "frame", "object", "svg", "summary", "div", "span", "html")


class TestIndexedQueriesMatchNaive:
    @settings(max_examples=60, deadline=None)
    @given(random_pages())
    def test_selection(self, document) -> None:
        index = document.index()
        reference = NaiveDocumentAccessor(document)
        for tag in _QUERY_TAGS:
            assert index.elements(tag) == reference.elements(tag)
        predicate = lambda el: el.has_attr("id")  # noqa: E731
        assert (index.elements("input", predicate=predicate)
                == reference.elements("input", predicate=predicate))
        # Multi-tag merges are document-ordered in both paths.
        assert (index.elements_of("iframe", "frame")
                == reference.elements_of("iframe", "frame"))
        assert (index.elements_of("input", "textarea")
                == reference.elements_of("input", "textarea"))
        # Repeated tags do not duplicate results on either path.
        assert index.elements_of("img", "img") == reference.elements_of("img", "img")
        assert index.elements_with_role("button") == reference.elements_with_role("button")
        for ident in ID_POOL:
            assert index.get_element_by_id(ident) is reference.get_element_by_id(ident)
            assert index.labels_for(ident) == reference.labels_for(ident)

    @settings(max_examples=60, deadline=None)
    @given(random_pages())
    def test_visibility(self, document) -> None:
        index = document.index()
        for node in document.root.iter_nodes():
            assert index.is_visible(node) == is_visible(node), node
            # The module-level function consults a supplied index.
            assert is_visible(node, index) == is_visible(node), node

    @settings(max_examples=40, deadline=None)
    @given(random_pages())
    # Fixed pages for the cases random pages reach only sometimes: hidden
    # block and inline siblings between text runs, visible elements inside
    # hidden ancestors, a self-hidden element and non-ASCII whitespace.
    @example(parse_html("<body>one<div hidden>x</div>two<span hidden>y</span>three</body>"))
    @example(parse_html("<body><div aria-hidden='true'><p>kept <b>text</b></p></div>"
                        "<p hidden>x <b>y</b></p>z</body>"))
    @example(parse_html("<body>\u3000a\u00a0\tb\u2028<p>c\x1c</p>\n</body>"))
    def test_visible_text(self, document) -> None:
        index = document.index()
        assert index.document_text() == extract_visible_text(document)
        assert extract_visible_text(document, index=index) == extract_visible_text(document)
        assert (index.visible_text(normalize=False)
                == extract_visible_text(document, normalize=False))
        for element in document.iter_elements():
            assert index.visible_text(element) == extract_visible_text(element)
            assert (index.visible_text(element, normalize=False)
                    == extract_visible_text(element, normalize=False))
            # A second read is stable, and the module-level function
            # consults a supplied index.
            assert index.visible_text(element) == extract_visible_text(element)
            assert (extract_visible_text(element, index=index)
                    == extract_visible_text(element))

    @settings(max_examples=60, deadline=None)
    @given(random_pages())
    def test_accessible_names(self, document) -> None:
        index = document.index()
        for element in document.iter_elements():
            assert index.accessible_name(element) == accessible_name(element, document)

    @settings(max_examples=40, deadline=None)
    @given(random_pages())
    def test_rule_results(self, document) -> None:
        reference = NaiveDocumentAccessor(document)
        index = document.index()
        for rule in ALL_RULES:
            assert rule.select_targets(index) == rule.select_targets(reference), rule.rule_id
            assert rule.evaluate(index) == rule.evaluate(reference), rule.rule_id

    @settings(max_examples=40, deadline=None)
    @given(random_pages())
    def test_extraction_and_audit_parity(self, document) -> None:
        reference = NaiveDocumentAccessor(document)
        assert extract_page(document) == extract_page(reference)
        engine = AuditEngine()
        indexed = engine.audit_document(document).to_dict()
        naive = engine.audit_document(reference).to_dict()
        assert indexed == naive
        # An index passed in directly takes the indexed path.
        assert engine.audit_document(document.index()).to_dict() == indexed


class TestWhitespaceNormalization:
    def test_split_join_equals_regex_collapse_on_every_code_point(self) -> None:
        """``" ".join(t.split())`` is the ``\\s+`` collapse plus strip."""
        whitespace = re.compile(r"\s+")
        # Every code point between two letters, in one string: a code point
        # one side treats as whitespace and the other does not splits it
        # differently.
        everything = "x".join(map(chr, range(sys.maxunicode + 1)))
        assert (" ".join(everything.split())
                == whitespace.sub(" ", everything).strip())
        spaces = [chr(cp) for cp in range(sys.maxunicode + 1)
                  if chr(cp).isspace() or whitespace.fullmatch(chr(cp))]
        assert len(spaces) == 29
        for space in spaces:
            text = f"{space}a{space}{space}b{space}"
            assert " ".join(text.split()) == whitespace.sub(" ", text).strip() == "a b"


class TestEndToEndByteParity:
    def test_pipeline_records_identical_indexed_vs_naive(self, small_pipeline_result) -> None:
        """Rebuilding every crawled record without the index is byte-identical."""
        engine = AuditEngine()
        compared = 0
        for outcome in small_pipeline_result.selection_outcomes.values():
            for selected in outcome.selected:
                indexed = record_from_crawl(selected.record, engine)
                naive = record_from_crawl(selected.record, engine,
                                          documents=naive_documents(selected.record))
                assert (json.dumps(indexed.to_dict(), ensure_ascii=False, sort_keys=True)
                        == json.dumps(naive.to_dict(), ensure_ascii=False, sort_keys=True))
                compared += 1
        assert compared > 0

    def test_dataset_bytes_identical_indexed_vs_naive(self, small_pipeline_result) -> None:
        indexed_lines = [json.dumps(record.to_dict(), ensure_ascii=False)
                         for record in small_pipeline_result.dataset.records]
        engine = AuditEngine()
        naive_records = []
        for outcome in small_pipeline_result.selection_outcomes.values():
            naive_records.extend(
                record_from_crawl(selected.record, engine,
                                  documents=naive_documents(selected.record))
                for selected in outcome.selected)
        naive_lines = [json.dumps(record.to_dict(), ensure_ascii=False)
                       for record in naive_records]
        assert indexed_lines == naive_lines


class TestIndexCacheLifecycle:
    def test_index_shared_until_mutation(self) -> None:
        document = parse_html("<body><p id='a'>x</p></body>")
        first = document.index()
        assert document.index() is first
        element = document.get_element_by_id("a")
        assert element is not None
        element.set("class", "changed")
        assert document.index() is not first

    def test_stale_elements_not_served_after_mutation(self) -> None:
        document = parse_html("<body><div id='host'></div></body>")
        assert document.index().get_element_by_id("late") is None
        host = document.get_element_by_id("host")
        assert host is not None
        late = Element("span", {"id": "late"})
        host.append(late)
        assert document.index().get_element_by_id("late") is late
