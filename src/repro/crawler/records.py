"""Crawl records.

A crawl produces one :class:`CrawlRecord` per origin visited, containing one
:class:`PageSnapshot` per fetched page.  Records are the interface between
the crawling layer and the measurement layer: everything the analyses need
(HTML, final URL, served variant, fetch outcome, rank, country) is captured
here, so analyses can be re-run without re-crawling.

Records round-trip through plain dicts (:meth:`CrawlRecord.to_dict` /
:meth:`CrawlRecord.from_dict`), which is how distributed window results
carry them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class PageSnapshot:
    """One fetched page.

    Attributes:
        url: The requested URL.
        final_url: The URL after redirects (equals ``url`` when none).
        status: Final HTTP status code (0 when the fetch raised).
        html: Page HTML ("" for non-HTML or failed fetches).
        served_variant: The variant label reported by the synthetic origin
            (``localized``/``global``), ``None`` for real origins or errors.
        elapsed_ms: Simulated fetch latency.
        error: Error description when the fetch failed, else ``None``.
    """

    url: str
    final_url: str
    status: int
    html: str = ""
    served_variant: str | None = None
    elapsed_ms: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.error is None


@dataclass
class CrawlRecord:
    """All pages fetched from one origin during a crawl.

    Attributes:
        domain: The origin's host name.
        country_code: The country list this origin belongs to.
        language_code: The country's target language.
        rank: CrUX-style rank of the origin.
        vantage_country: The VPN exit country used ("" for a cloud vantage).
        via_vpn: Whether the crawl used a VPN exit.
        pages: Snapshots of the fetched pages (the homepage first).
    """

    domain: str
    country_code: str
    language_code: str
    rank: int
    vantage_country: str = ""
    via_vpn: bool = True
    pages: list[PageSnapshot] = field(default_factory=list)

    @property
    def homepage(self) -> PageSnapshot | None:
        return self.pages[0] if self.pages else None

    @property
    def succeeded(self) -> bool:
        """Whether at least the homepage was fetched successfully."""
        home = self.homepage
        return home is not None and home.ok and bool(home.html)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CrawlRecord":
        pages = [PageSnapshot(**page) for page in payload.get("pages", [])]
        fields = {key: value for key, value in payload.items() if key != "pages"}
        return cls(pages=pages, **fields)
