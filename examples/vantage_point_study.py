"""Why crawl through in-country VPNs?  A vantage-point comparison.

The paper routes all crawler traffic through VPN exits inside each studied
country because many sites serve a global, English-leaning variant to foreign
IP addresses.  This example crawls the same Thai candidate list from three
vantages — a Thai VPN exit, a generic cloud vantage, and a Thai exit from a
provider that the site's bot protection blocks — and compares what the
measurement pipeline would conclude in each case.

Run with::

    python examples/vantage_point_study.py
"""

from __future__ import annotations

import asyncio
import random

from repro.core.extraction import extract_page
from repro.crawler.fetcher import Fetcher, SimulatedTransport
from repro.crawler.http import URL
from repro.crawler.vpn import VantagePoint, VPNManager
from repro.langid.detector import ScriptDetector
from repro.webgen.profiles import get_profile
from repro.webgen.server import SyntheticWeb
from repro.webgen.sitegen import SiteGenerator


def crawl_homepages(web: SyntheticWeb, domains: list[str], vantage: VantagePoint):
    """Fetch each homepage from the given vantage and measure its language."""
    fetcher = Fetcher(SimulatedTransport(web, rng=random.Random(1)))
    responses = asyncio.run(fetcher.fetch_many(
        [URL.parse(f"https://{domain}/") for domain in domains],
        client_country=vantage.country_code, via_vpn=vantage.via_vpn, max_in_flight=1))
    detector = ScriptDetector("th")
    measurements = []
    for domain, response in zip(domains, responses):
        if not response.ok:
            measurements.append((domain, None, response.status))
            continue
        extraction = extract_page(response.body, url=str(response.url))
        share = detector.share(extraction.visible_text)
        measurements.append((domain, share.native, response.status))
    return measurements


def summarize(label: str, measurements) -> None:
    reachable = [native for _, native, _ in measurements if native is not None]
    blocked = sum(1 for _, native, status in measurements if native is None)
    qualifying = sum(1 for native in reachable if native >= 0.5)
    mean_native = sum(reachable) / len(reachable) if reachable else 0.0
    print(f"{label}")
    print(f"  reachable sites       : {len(reachable)}/{len(measurements)} "
          f"({blocked} blocked or failing)")
    print(f"  mean native share     : {mean_native * 100:.1f}%")
    print(f"  pass the 50% criterion: {qualifying}")
    print()


def main() -> None:
    sites = SiteGenerator(get_profile("th"), seed=99).generate_sites(30)
    web = SyntheticWeb(sites)
    domains = [site.domain for site in sites]

    manager = VPNManager()
    print(f"Provider coverage for Thailand: {manager.coverage_report(['th'])['th']}\n")

    summarize("Thai VPN exit (the paper's setup):",
              crawl_homepages(web, domains, manager.vantage_for("th")))
    summarize("Generic cloud vantage (no localization):",
              crawl_homepages(web, domains, VantagePoint.cloud()))

    print("The cloud vantage sees the English-leaning global variants that many sites")
    print("serve to foreign IPs, so it under-measures native-language content and")
    print("would bias every downstream accessibility statistic — the reason the paper")
    print("insists on country-local VPN exits.")


if __name__ == "__main__":
    main()
