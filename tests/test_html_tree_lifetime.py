"""Parsed DOM trees are freed by reference counting, not by the cycle collector.

Parent links are weak and a :class:`~repro.html.index.DocumentIndex` does not
point back at the document that caches it, so no page forms a reference
cycle.  Each test runs with the cyclic collector disabled: whatever is not
freed by reference counting stays visible.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.audit.engine import AuditEngine
from repro.core.extraction import extract_page
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from repro.html.dom import Document, Element, TextNode
from repro.html.index import DocumentIndex
from repro.html.parser import parse_html
from repro.webgen.sitegen import LOCALIZED, generate_country_sites

_DOM_TYPES = (Element, TextNode, Document, DocumentIndex)


@pytest.fixture
def no_cycle_collection():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _generated_page() -> tuple[str, str]:
    site = generate_country_sites("bd", 1, seed=5)[0]
    return site.page_html("/", LOCALIZED), site.url


def test_dropped_page_is_freed_at_once(no_cycle_collection) -> None:
    markup, url = _generated_page()
    document = parse_html(markup, url=url)
    index = document.index()
    extraction = extract_page(document)
    report = AuditEngine().audit_document(document)
    assert extraction.observations and report.results
    body = document.body
    assert body is not None and body.parent is document.root
    document_ref = weakref.ref(document)
    root_ref = weakref.ref(document.root)
    index_ref = weakref.ref(index)

    del document, index
    assert document_ref() is None
    assert root_ref() is None
    assert index_ref() is None
    # A kept element outlives its tree, but its link upward is gone.
    assert body.parent is None


def test_build_leaves_no_dom_objects_behind(no_cycle_collection) -> None:
    before = [obj for obj in gc.get_objects() if isinstance(obj, _DOM_TYPES)]
    known = {id(obj) for obj in before}
    config = PipelineConfig(countries=("bd", "th"), sites_per_country=3, seed=7)
    result = LangCrUXPipeline(config).run()
    assert result.dataset.records
    leaked = [obj for obj in gc.get_objects()
              if isinstance(obj, _DOM_TYPES) and id(obj) not in known]
    assert not leaked, f"{len(leaked)} DOM objects outlived the build: {leaked[:3]}"
