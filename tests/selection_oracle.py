"""A reference implementation of the paper's site selection, for tests.

The plainest reading of Section 2: for each country, walk its ranking in
rank order; crawl each candidate, measure the native share of its visible
text, accept it when the crawl succeeded and the share reaches the
threshold, otherwise move on to the next candidate; stop when the quota is
filled.  Then build one site record per accepted origin.

No windows, no speculation, no executors: one candidate at a time.  The
pipeline's windowed walk must produce the same JSONL bytes for every
executor and window size.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.pipeline import (
    PipelineConfig,
    build_web_for_config,
    crawler_for_country,
    record_from_crawl,
)
from repro.html.index import ensure_index
from repro.html.parser import parse_html
from repro.langid.detector import ScriptDetector
from repro.langid.languages import get_pair


def native_share(record, language_code: str) -> float:
    """The native share of a crawled origin's visible text (0 when empty)."""
    texts = [ensure_index(parse_html(page.html, url=page.final_url)).document_text()
             for page in record.pages if page.ok and page.html]
    if not texts:
        return 0.0
    return ScriptDetector(language_code).share(" ".join(texts)).native


def select_country(config: PipelineConfig, country_code: str, web, crux) -> list:
    """The crawl records of the origins the sequential walk accepts."""
    language_code = get_pair(country_code).language.code
    crawler = crawler_for_country(config, country_code, web)
    accepted = []
    try:
        for entry in crux.iter_ranked(country_code):
            if len(accepted) >= config.sites_per_country:
                break
            record = asyncio.run(crawler.crawl_origin(entry, language_code))
            if not record.succeeded:
                continue  # replaced: the origin could not be crawled
            if native_share(record, language_code) < config.language_threshold:
                continue  # replaced: too little text in the country's language
            accepted.append(record)
    finally:
        crawler.session.close()
    return accepted


def oracle_jsonl(config: PipelineConfig) -> bytes:
    """The dataset JSONL of ``config``, built by the sequential walk."""
    web, crux = build_web_for_config(config)
    lines = []
    for country_code in config.countries:
        for record in select_country(config, country_code, web, crux):
            site = record_from_crawl(record)
            lines.append(json.dumps(site.to_dict(), ensure_ascii=False) + "\n")
    return "".join(lines).encode("utf-8")
