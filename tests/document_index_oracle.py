"""The naive reference access path for :class:`~repro.html.index.DocumentIndex`.

:class:`NaiveDocumentAccessor` has the index's query surface but no index
and no caching: every query delegates to the naive traversal APIs on
:class:`~repro.html.dom.Document` and the module-level visibility /
accessibility functions.  The pipeline entry points (``extract_page``,
``AuditEngine.audit_document``, ``record_from_crawl``) accept it in place
of a document, so ``tests/test_property_document_index.py`` compares both
paths on random DOMs and ``benchmarks/bench_document_index.py`` measures the
throughput gap between them.
"""

from __future__ import annotations

from typing import Callable

from repro.crawler.records import CrawlRecord
from repro.html.accessibility import AccessibleNameResult, accessible_name
from repro.html.dom import Document, Element, Node
from repro.html.parser import parse_html
from repro.html.visibility import extract_visible_text, is_visible


class NaiveDocumentAccessor:
    """The reference access path: same interface, no index, no caching."""

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


def naive_documents(crawl_record: CrawlRecord) -> list[NaiveDocumentAccessor]:
    """The record's pages parsed as ``record_from_crawl`` parses them, each
    behind a naive accessor (one per ``ok`` HTML page, in page order)."""
    return [NaiveDocumentAccessor(parse_html(page.html, url=page.final_url))
            for page in crawl_record.pages if page.ok and page.html]
