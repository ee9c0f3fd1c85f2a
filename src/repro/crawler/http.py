"""HTTP primitives for the crawler.

The crawler talks to the (synthetic) web through a small, explicit HTTP
model: :class:`URL`, :class:`Headers`, :class:`Request` and
:class:`Response`.  Keeping these types independent of the transport means a
real ``urllib``/``httpx`` transport could be dropped in without touching any
measurement code — only :mod:`repro.crawler.fetcher` adapts between
transports and these types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping
from urllib.parse import urljoin, urlsplit, urlunsplit


class Headers:
    """Case-insensitive HTTP header collection.

    Header names are stored lowercased; lookups accept any casing.  Multiple
    values per name are not needed by this crawler and are not supported.
    """

    def __init__(self, items: Mapping[str, str] | None = None) -> None:
        self._items: dict[str, str] = {}
        for name, value in (items or {}).items():
            self[name] = value

    def __setitem__(self, name: str, value: str) -> None:
        self._items[name.lower()] = value

    def __getitem__(self, name: str) -> str:
        return self._items[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._items

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items.items())

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Headers):
            return self._items == other._items
        return NotImplemented

    def get(self, name: str, default: str | None = None) -> str | None:
        return self._items.get(name.lower(), default)

    def as_dict(self) -> dict[str, str]:
        return dict(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Headers({self._items!r})"


@dataclass(frozen=True)
class URL:
    """A parsed absolute URL.

    Only the components the crawler needs are modelled: scheme, host, port,
    path and query.  Fragments are dropped at parse time because they never
    reach the server and would otherwise defeat the crawler's URL deduplication.
    """

    scheme: str
    host: str
    path: str = "/"
    query: str = ""
    port: int | None = None

    @classmethod
    def parse(cls, raw: str) -> "URL":
        """Parse an absolute URL string.

        Raises:
            ValueError: When the URL is relative, has no host, or uses a
                scheme other than http/https.
        """
        parts = urlsplit(raw.strip())
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported or missing scheme in URL {raw!r}")
        if not parts.hostname:
            raise ValueError(f"URL has no host: {raw!r}")
        return cls(
            scheme=parts.scheme,
            host=parts.hostname.lower(),
            path=parts.path or "/",
            query=parts.query,
            port=parts.port,
        )

    @classmethod
    def join(cls, base: "URL", reference: str) -> "URL":
        """Resolve ``reference`` (possibly relative) against ``base``."""
        return cls.parse(urljoin(str(base), reference))

    @property
    def origin(self) -> str:
        """Scheme plus host (plus explicit port), e.g. ``https://example.com``."""
        port = f":{self.port}" if self.port else ""
        return f"{self.scheme}://{self.host}{port}"

    def with_path(self, path: str, query: str = "") -> "URL":
        return URL(scheme=self.scheme, host=self.host, path=path or "/", query=query, port=self.port)

    def __str__(self) -> str:
        netloc = self.host if self.port is None else f"{self.host}:{self.port}"
        return urlunsplit((self.scheme, netloc, self.path, self.query, ""))


@dataclass(frozen=True)
class Request:
    """An outgoing HTTP request."""

    url: URL
    method: str = "GET"
    headers: Headers = field(default_factory=Headers)
    client_country: str | None = None
    via_vpn: bool = False

    def with_url(self, url: URL) -> "Request":
        """A copy of this request pointing at ``url`` (used for redirects)."""
        return Request(url=url, method=self.method, headers=self.headers,
                       client_country=self.client_country, via_vpn=self.via_vpn)


@dataclass(frozen=True)
class Response:
    """An HTTP response as returned by a transport."""

    url: URL
    status: int
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    elapsed_ms: float = 0.0
    served_variant: str | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308) and "location" in self.headers

    @property
    def content_type(self) -> str:
        return (self.headers.get("content-type") or "").split(";")[0].strip().lower()

    @property
    def is_html(self) -> bool:
        return self.content_type in ("text/html", "application/xhtml+xml")

    def redirect_target(self) -> URL | None:
        """The absolute redirect target, or ``None`` when not a redirect."""
        if not self.is_redirect:
            return None
        location = self.headers.get("location")
        if not location:
            return None
        try:
            return URL.join(self.url, location)
        except ValueError:
            return None


#: Status codes the fetcher treats as transient and retries.
RETRYABLE_STATUS_CODES = frozenset({429, 500, 502, 503, 504})


# -- wire-level conventions ----------------------------------------------------------
#
# Real HTTP has no notion of the crawl metadata the measurement layer rides
# on (which country the client appears from, whether the hop is VPN traffic,
# which variant the origin chose to serve).  When the crawler talks to a
# live :class:`repro.webgen.server.LocalSiteServer` over loopback, that
# metadata travels in private headers; real origins simply never see or set
# them, so the same transport works against both.

#: Request header carrying the vantage country (``Request.client_country``).
CLIENT_COUNTRY_HEADER = "x-langcrux-client-country"

#: Request header flagging VPN/proxy traffic (``Request.via_vpn``), "1"/"0".
VIA_VPN_HEADER = "x-langcrux-via-vpn"

#: Response header reporting which variant the synthetic origin served.
SERVED_VARIANT_HEADER = "x-langcrux-served-variant"


def parse_charset(content_type: str | None, default: str = "utf-8") -> str:
    """The ``charset`` parameter of a Content-Type header value.

    Used by wire transports to decode response bodies; falls back to
    ``default`` when the header is absent, has no charset parameter, or the
    parameter is malformed.
    """
    if not content_type:
        return default
    for part in content_type.split(";")[1:]:
        name, _, value = part.strip().partition("=")
        if name.strip().lower() == "charset":
            charset = value.strip().strip('"').strip("'")
            return charset or default
    return default
