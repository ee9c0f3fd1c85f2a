"""Parity: the string-emitting page generator against the DOM-building oracle.

:class:`~repro.webgen.pagegen.PageGenerator` writes markup directly;
:class:`webgen_oracle.DomPageGenerator` builds the same page as an element
tree and serializes it.  Every page of the synthetic web must come out of
both byte for byte, including texts that need escaping.
"""

from __future__ import annotations

import random

import pytest

from repro.html.parser import parse_html
from repro.langid.languages import langcrux_country_codes
from repro.webgen.lexicon import Lexicon
from repro.webgen.pagegen import PageGenerator, PageSpec
from repro.webgen.profiles import get_profile
from repro.webgen.sitegen import GLOBAL, LOCALIZED, generate_country_sites, stable_seed

from webgen_oracle import DomPageGenerator

SITES_PER_COUNTRY = 4


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("country", langcrux_country_codes())
def test_generated_pages_match_oracle(country: str, seed: int) -> None:
    profile = get_profile(country)
    pages = 0
    for site in generate_country_sites(country, SITES_PER_COUNTRY, seed=seed):
        for path in site.page_paths:
            for variant in (LOCALIZED, GLOBAL):
                spec = site._spec_for_variant(variant, profile)
                page_seed = stable_seed(site.seed, path, variant)
                url = f"https://{site.domain}{path}"
                expected = DomPageGenerator(spec, random.Random(page_seed)).generate_html(url)
                assert site.page_html(path, variant) == expected, (site.domain, path, variant)
                pages += 1
    assert pages >= 2 * SITES_PER_COUNTRY


#: Every text slot of this lexicon needs escaping in text and in attributes.
_AWKWARD = Lexicon(
    language_code="xx",
    words=('a&b', '<w>', 'say "hi"', "it's"),
    ui_terms=('Log <in>', 'Q&A', '"Go"'),
    phrases=('Fish & chips <fresh> "daily"', 'x > y & y < z'),
    generic_actions=('<close>',),
    placeholders=('"image"',),
)


def _awkward_pair(seed: int) -> tuple[PageGenerator, DomPageGenerator]:
    profile = get_profile("bd")
    spec = PageSpec(
        language_code="bn",
        visible_native_share=0.5,
        a11y_language_weights={"native": 0.4, "english": 0.4, "mixed": 0.2},
        uninformative_rate=0.3,
        discard_mix=dict(profile.discard_mix),
        declare_lang='en" data-x="<&>',
        extreme_alt_rate=0.05,
    )
    generators = (PageGenerator(spec, random.Random(seed)),
                  DomPageGenerator(spec, random.Random(seed)))
    for generator in generators:
        generator.native = generator.english = _AWKWARD
    return generators  # type: ignore[return-value]


@pytest.mark.parametrize("seed", range(6))
def test_escaping_matches_oracle(seed: int) -> None:
    product, oracle = _awkward_pair(seed)
    markup = product.generate_html()
    assert markup == oracle.generate_html()
    for entity in ("&amp;", "&lt;", "&gt;", "&quot;"):
        assert entity in markup
    # The escaped page reads back to the raw texts.
    document = parse_html(markup)
    assert document.html_lang == 'en" data-x="<&>'
    texts = document.root.text_content()
    assert 'Fish & chips <fresh> "daily"' in texts or 'x > y & y < z' in texts


def test_generate_document_parses_generated_html() -> None:
    product, oracle = _awkward_pair(3)
    url = "https://example.com.bd/"
    document = product.generate_document(url=url)
    assert document.url == url
    assert document.to_html() == oracle.generate_document(url=url).to_html()
