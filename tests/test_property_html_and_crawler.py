"""Property-based tests for the HTML parser and URL handling."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.crawler.http import URL
from repro.html.parser import parse_html
from repro.html.visibility import extract_visible_text

# -- HTML parser robustness ---------------------------------------------------

markup_fragments = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),  # any non-surrogate text
    max_size=300,
)

tag_names = st.sampled_from(["p", "div", "img", "a", "button", "span", "li", "iframe"])


@st.composite
def nested_markup(draw) -> str:
    """Generate small well-formed-ish documents with random nesting."""
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        tag = draw(tag_names)
        text = draw(st.text(max_size=30))
        if tag == "img":
            pieces.append(f"<img alt='{text}'>")
        else:
            pieces.append(f"<{tag}>{text}</{tag}>")
    return "".join(pieces)


class TestParserProperties:
    @settings(max_examples=80)
    @given(markup_fragments)
    def test_parser_never_raises(self, markup: str) -> None:
        document = parse_html(markup)
        assert document.root.tag == "html"
        assert document.body is not None

    @settings(max_examples=80)
    @given(markup_fragments)
    def test_visible_text_extraction_never_raises(self, markup: str) -> None:
        text = extract_visible_text(parse_html(markup))
        assert isinstance(text, str)

    @settings(max_examples=60)
    @given(nested_markup())
    def test_structured_markup_round_trips_through_serializer(self, markup: str) -> None:
        document = parse_html(markup)
        reparsed = parse_html(document.root.to_html())
        # Element counts per tag are stable across a parse/serialize cycle.
        for tag in ("p", "div", "img", "a", "button"):
            assert len(document.root.find_all(tag)) == len(reparsed.root.find_all(tag))


# -- URL properties ---------------------------------------------------------------

hostnames = st.from_regex(r"[a-z]([a-z0-9-]{0,20}[a-z0-9])?(\.[a-z]{2,6}){1,2}", fullmatch=True)
# Path segments are non-empty so a generated reference can never start with
# "//" (which would be a protocol-relative, cross-host reference).
paths = st.from_regex(r"(/[a-z0-9._-]{1,10}){0,4}", fullmatch=True)


class TestURLProperties:
    @settings(max_examples=80)
    @given(hostnames, paths)
    def test_parse_str_round_trip(self, host: str, path: str) -> None:
        url = URL.parse(f"https://{host}{path}")
        assert URL.parse(str(url)) == url
        assert url.host == host

    @settings(max_examples=80)
    @given(hostnames, paths, paths)
    def test_join_stays_on_host_for_relative_references(self, host: str, base: str,
                                                        reference: str) -> None:
        base_url = URL.parse(f"https://{host}{base or '/'}")
        joined = URL.join(base_url, reference or "/")
        assert joined.host == host

