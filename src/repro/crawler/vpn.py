"""VPN vantage points.

The paper routes all crawler traffic through VPN servers physically hosted in
the studied country, selecting the provider per country because "not all VPN
providers have servers in every target country".  This module models exactly
that decision problem:

* a :class:`VPNProvider` advertises exit countries;
* a :class:`VantagePoint` is a concrete exit (provider + country) a crawl
  session binds to;
* the :class:`VPNManager` picks a provider for each requested country,
  preferring the configured provider order, and reports countries with no
  coverage so that callers can fall back to a cloud vantage explicitly
  instead of silently crawling the wrong variant.

The simulated transport attaches the vantage's country and a ``via_vpn`` flag
to each request; geo-localizing origins use the former, VPN-blocking origins
the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.langid.languages import langcrux_country_codes


class VPNCoverageError(LookupError):
    """Raised when no configured provider has an exit in a requested country."""


@dataclass(frozen=True)
class VPNProvider:
    """A VPN provider and the countries it has exit servers in."""

    name: str
    exit_countries: frozenset[str]

    def covers(self, country_code: str) -> bool:
        return country_code in self.exit_countries


@dataclass(frozen=True)
class VantagePoint:
    """A concrete crawl vantage.

    Attributes:
        country_code: The exit country (``None`` for a generic cloud vantage).
        provider: The provider name, or ``"cloud"`` for the non-VPN vantage.
        via_vpn: Whether the traffic is VPN/proxy traffic (cloud vantages are
            not, which matters for VPN-blocking origins).
    """

    country_code: str | None
    provider: str
    via_vpn: bool = True

    @classmethod
    def cloud(cls) -> "VantagePoint":
        """A generic cloud-hosted vantage outside every studied country.

        This is the baseline the paper argues against: crawling from generic
        cloud IPs "risks accessing global or English-dominant versions of
        websites".  The vantage-point ablation benchmark uses it.
        """
        return cls(country_code=None, provider="cloud", via_vpn=False)

    @property
    def is_localized(self) -> bool:
        return self.country_code is not None


#: Default provider set.  Coverage is modelled after the paper's setup: one
#: provider covers most of the studied countries, the second fills the gaps,
#: so per-country provider selection is actually exercised.
DEFAULT_PROVIDERS: tuple[VPNProvider, ...] = (
    VPNProvider("proton", frozenset({"bd", "dz", "eg", "gr", "il", "in", "jp", "kr", "ru", "th"})),
    VPNProvider("hotspot-shield", frozenset({"cn", "hk", "in", "jp", "kr", "th", "gr", "ru"})),
)


class VPNManager:
    """Selects VPN exits per country and hands out vantage points."""

    def __init__(self, providers: Sequence[VPNProvider] = DEFAULT_PROVIDERS) -> None:
        if not providers:
            raise ValueError("VPNManager requires at least one provider")
        self.providers = tuple(providers)

    def provider_for(self, country_code: str) -> VPNProvider:
        """The first configured provider with an exit in ``country_code``.

        Raises:
            VPNCoverageError: When no provider covers the country.
        """
        for provider in self.providers:
            if provider.covers(country_code):
                return provider
        raise VPNCoverageError(f"no VPN provider has an exit in {country_code!r}")

    def vantage_for(self, country_code: str) -> VantagePoint:
        """A vantage point inside ``country_code``."""
        provider = self.provider_for(country_code)
        return VantagePoint(country_code=country_code, provider=provider.name)

    def coverage_report(self, country_codes: Iterable[str] | None = None) -> dict[str, str | None]:
        """Map each country to the provider serving it (``None`` = uncovered)."""
        codes = tuple(country_codes) if country_codes is not None else langcrux_country_codes()
        report: dict[str, str | None] = {}
        for code in codes:
            try:
                report[code] = self.provider_for(code).name
            except VPNCoverageError:
                report[code] = None
        return report

    def uncovered(self, country_codes: Iterable[str] | None = None) -> tuple[str, ...]:
        """Countries with no VPN coverage under the current provider set."""
        return tuple(code for code, provider in self.coverage_report(country_codes).items()
                     if provider is None)
