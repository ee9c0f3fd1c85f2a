"""Tests for crawl records and their dict round trip (repro.crawler.records)."""

from __future__ import annotations

from repro.crawler.records import CrawlRecord, PageSnapshot


def _record(domain: str = "a.example.bd", ok: bool = True) -> CrawlRecord:
    page = PageSnapshot(
        url=f"https://{domain}/",
        final_url=f"https://{domain}/home",
        status=200 if ok else 403,
        html="<html lang='bn'><body><p>খবর</p></body></html>" if ok else "",
        served_variant="localized" if ok else None,
        elapsed_ms=123.4,
        error=None if ok else "HTTP 403",
    )
    return CrawlRecord(domain=domain, country_code="bd", language_code="bn", rank=42,
                       vantage_country="bd", via_vpn=True, pages=[page])


class TestRecordModel:
    def test_homepage_accessor(self) -> None:
        record = _record()
        assert record.homepage is not None
        assert record.homepage.final_url.endswith("/home")
        assert CrawlRecord(domain="x", country_code="bd", language_code="bn", rank=1).homepage is None

    def test_succeeded(self) -> None:
        assert _record(ok=True).succeeded
        assert not _record(ok=False).succeeded

    def test_snapshot_ok(self) -> None:
        assert _record().pages[0].ok
        assert not _record(ok=False).pages[0].ok

    def test_dict_round_trip(self) -> None:
        record = _record()
        assert CrawlRecord.from_dict(record.to_dict()) == record
