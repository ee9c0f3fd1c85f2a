"""Tests for the production transport subsystem (repro.crawler.transport)."""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import pickle
import shutil
import threading
import tracemalloc

import pytest

from repro.crawler.fetcher import Fetcher, FetcherConfig, FetchError, SimulatedTransport
from repro.crawler.http import Headers, Request, Response, URL
from repro.crawler.metrics import TransportMetrics
from repro.crawler.transport import (
    CachingTransport,
    HttpAsyncTransport,
    InstrumentedTransport,
    PoliteTransport,
    TransportStack,
    build_transport_stack,
    parse_netloc,
)
from repro.webgen.profiles import get_profile
from repro.webgen.server import LocalSiteServer, SyntheticWeb
from repro.webgen.sitegen import SiteGenerator


@pytest.fixture(scope="module")
def synthetic_web() -> SyntheticWeb:
    # Seed 19 yields a web whose 8 origins include a root-redirecting one,
    # so the redirect-passthrough tests always have a subject.
    sites = SiteGenerator(get_profile("bd"), seed=19).generate_sites(8)
    return SyntheticWeb(sites)


@pytest.fixture(scope="module")
def live_server(synthetic_web: SyntheticWeb):
    with LocalSiteServer(synthetic_web) as server:
        yield server


def _send(transport, request: Request) -> Response:
    return asyncio.run(transport.send(request))


def _request(domain: str, path: str = "/", *, country: str | None = "bd",
             via_vpn: bool = True) -> Request:
    return Request(url=URL.parse(f"https://{domain}{path}"),
                   client_country=country, via_vpn=via_vpn)


class ScriptedTransport:
    """An async transport answering from a per-URL script of responses."""

    def __init__(self, script: dict[str, list[Response]] | None = None,
                 default_status: int = 200) -> None:
        self.script = script or {}
        self.default_status = default_status
        self.sent: list[Request] = []

    async def send(self, request: Request) -> Response:
        self.sent.append(request)
        queued = self.script.get(str(request.url))
        if queued:
            response = queued.pop(0)
            if isinstance(response, Exception):
                raise response
            return response
        return Response(url=request.url, status=self.default_status,
                        headers=Headers({"content-type": "text/html"}),
                        body=f"body of {request.url}")


class TestParseNetloc:
    def test_parses_host_and_port(self) -> None:
        assert parse_netloc("127.0.0.1:8321") == ("127.0.0.1", 8321)

    @pytest.mark.parametrize("bad", ["localhost", ":80", "host:", "host:port"])
    def test_rejects_malformed(self, bad: str) -> None:
        with pytest.raises(ValueError):
            parse_netloc(bad)


class TestHttpAsyncTransport:
    def test_fetches_real_bytes_identical_to_in_memory(self, synthetic_web,
                                                       live_server) -> None:
        domain = synthetic_web.domains()[0]
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        try:
            response = _send(transport, _request(domain))
        finally:
            transport.close()
        reference = synthetic_web.request(domain, "/", client_country="bd",
                                          via_vpn=True)
        # A synthetic origin may redirect "/" → follow-up is the fetcher's
        # job; compare whichever the in-memory dispatch returned.
        assert response.status == reference.status
        assert response.body == reference.body
        assert response.served_variant == reference.served_variant

    def test_vantage_headers_select_the_variant(self, synthetic_web,
                                                live_server) -> None:
        localizing = next(domain for domain in synthetic_web.domains()
                          if synthetic_web.site(domain).localizes_by_ip
                          and not synthetic_web.site(domain).blocks_vpn)
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        try:
            local = _send(transport, _request(localizing, country="bd"))
            foreign = _send(transport, _request(localizing, country="jp"))
        finally:
            transport.close()
        assert local.served_variant == "localized"
        assert foreign.served_variant == "global"
        assert local.body != foreign.body

    def test_unknown_host_answers_502(self, live_server) -> None:
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        try:
            response = _send(transport, _request("nosuch.example"))
        finally:
            transport.close()
        assert response.status == 502

    def test_unknown_path_answers_404(self, synthetic_web, live_server) -> None:
        domain = synthetic_web.domains()[0]
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        try:
            response = _send(transport, _request(domain, "/no/such/page"))
        finally:
            transport.close()
        assert response.status == 404
        assert not response.is_html

    def test_connections_are_pooled_and_reused(self, synthetic_web,
                                               live_server) -> None:
        metrics = TransportMetrics()
        transport = HttpAsyncTransport(gateway=live_server.gateway, metrics=metrics)
        try:
            for domain in synthetic_web.domains()[:4]:
                _send(transport, _request(domain))
        finally:
            transport.close()
        assert metrics.connections_opened == 1
        assert metrics.connections_reused == 3

    def test_redirects_pass_through_untouched(self, synthetic_web,
                                              live_server) -> None:
        redirecting = next(domain for domain in synthetic_web.domains()
                           if synthetic_web.request(domain, "/").is_redirect)
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        try:
            response = _send(transport, _request(redirecting))
        finally:
            transport.close()
        assert response.is_redirect
        assert response.redirect_target() is not None

    def test_fetcher_over_live_transport_follows_redirects(self, synthetic_web,
                                                           live_server) -> None:
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        fetcher = Fetcher(transport)
        try:
            for domain in synthetic_web.domains():
                response = asyncio.run(fetcher.fetch(
                    f"https://{domain}/", client_country="bd", via_vpn=True))
                assert not response.is_redirect
        finally:
            transport.close()

    def test_connection_refused_raises_fetch_error(self) -> None:
        transport = HttpAsyncTransport(gateway="127.0.0.1:1", timeout_s=0.5)
        try:
            with pytest.raises(FetchError):
                _send(transport, _request("any.example"))
        finally:
            transport.close()

    def test_closed_transport_refuses_sends(self, live_server) -> None:
        transport = HttpAsyncTransport(gateway=live_server.gateway)
        transport.close()
        with pytest.raises(FetchError):
            _send(transport, _request("any.example"))


class TestPoliteTransport:
    def test_rate_limit_spaces_requests(self) -> None:
        clock = {"now": 0.0}
        waits: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            waits.append(seconds)
            clock["now"] += seconds

        inner = ScriptedTransport()
        polite = PoliteTransport(inner, rate_per_host=2.0,
                                 clock=lambda: clock["now"], sleep=fake_sleep)
        for _ in range(3):
            _send(polite, _request("one.example"))
        # First request spends the burst token; the next two wait 0.5s each.
        assert waits == pytest.approx([0.5, 0.5])

    def test_rate_limit_is_per_host(self) -> None:
        clock = {"now": 0.0}
        waits: list[float] = []

        async def fake_sleep(seconds: float) -> None:
            waits.append(seconds)
            clock["now"] += seconds

        polite = PoliteTransport(ScriptedTransport(), rate_per_host=1.0,
                                 clock=lambda: clock["now"], sleep=fake_sleep)
        _send(polite, _request("one.example"))
        _send(polite, _request("two.example"))  # different host: its own bucket
        assert waits == []

    def test_rate_limit_wait_is_metered(self) -> None:
        clock = {"now": 0.0}

        async def fake_sleep(seconds: float) -> None:
            clock["now"] += seconds

        metrics = TransportMetrics()
        polite = PoliteTransport(ScriptedTransport(), rate_per_host=4.0,
                                 metrics=metrics, clock=lambda: clock["now"],
                                 sleep=fake_sleep)
        for _ in range(5):
            _send(polite, _request("one.example"))
        assert metrics.rate_limit_wait_s == pytest.approx(1.0)

    def test_max_per_host_caps_concurrency(self) -> None:
        peak = {"now": 0, "max": 0}
        lock = threading.Lock()

        class SlowTransport:
            async def send(self, request: Request) -> Response:
                with lock:
                    peak["now"] += 1
                    peak["max"] = max(peak["max"], peak["now"])
                await asyncio.sleep(0.01)
                with lock:
                    peak["now"] -= 1
                return Response(url=request.url, status=200)

        polite = PoliteTransport(SlowTransport(), max_per_host=2)
        url = URL.parse("https://one.example/")

        async def burst() -> None:
            await asyncio.gather(*(polite.send(Request(url=url)) for _ in range(8)))

        asyncio.run(burst())
        assert peak["max"] <= 2

    def test_semaphores_stay_bounded_across_event_loops(self) -> None:
        # Every crawl window runs its own event loop; per-host entries are
        # rebuilt for the current loop, never accumulated per loop.
        polite = PoliteTransport(ScriptedTransport(), max_per_host=2)
        for _ in range(20):
            _send(polite, _request("one.example"))
            _send(polite, _request("two.example"))
        assert len(polite._semaphores) == 2


class TestRetryingTransport:
    """Retries over a transport stack; the Fetcher is the one retry layer."""

    def test_retries_transient_status_then_succeeds(self) -> None:
        url = "https://one.example/"
        flaky = [Response(url=URL.parse(url), status=503),
                 Response(url=URL.parse(url), status=200, body="ok")]
        inner = ScriptedTransport({url: flaky})
        fetcher = Fetcher(inner)
        response = asyncio.run(fetcher.fetch(url, client_country="bd"))
        assert response.status == 200
        assert fetcher.stats["retries"] == 1
        assert len(inner.sent) == 2

    def test_exhausted_retries_return_last_response(self) -> None:
        url = "https://one.example/"
        inner = ScriptedTransport(
            {url: [Response(url=URL.parse(url), status=503) for _ in range(10)]})
        fetcher = Fetcher(inner, FetcherConfig(max_retries=2))
        assert asyncio.run(fetcher.fetch(url)).status == 503
        assert len(inner.sent) == 3  # initial + 2 retries


class TestCachingTransport:
    def test_miss_stores_then_hit_replays(self, tmp_path) -> None:
        inner = ScriptedTransport()
        metrics = TransportMetrics()
        caching = CachingTransport(inner, tmp_path, metrics=metrics)
        first = _send(caching, _request("one.example"))
        second = _send(caching, _request("one.example"))
        caching.close()
        assert (first.status, first.body) == (second.status, second.body)
        assert len(inner.sent) == 1
        assert (metrics.cache_misses, metrics.cache_hits,
                metrics.cache_stores) == (1, 1, 1)

    def test_cache_persists_across_instances(self, tmp_path) -> None:
        writer_inner = ScriptedTransport()
        writer = CachingTransport(writer_inner, tmp_path)
        response = _send(writer, _request("one.example"))
        writer.close()

        # shared_index=False forces a fresh manifest load from disk — this
        # is the cross-process persistence path, exercised in-process.
        reader_inner = ScriptedTransport(default_status=500)
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        replayed = _send(reader, _request("one.example"))
        reader.close()
        assert replayed.body == response.body
        assert reader_inner.sent == []  # pure replay, no network

    def test_key_includes_vantage(self, tmp_path) -> None:
        inner = ScriptedTransport()
        caching = CachingTransport(inner, tmp_path)
        _send(caching, _request("one.example", country="bd"))
        _send(caching, _request("one.example", country="jp"))
        _send(caching, _request("one.example", country="bd", via_vpn=False))
        caching.close()
        assert len(inner.sent) == 3  # three distinct cache keys

    def test_transient_statuses_are_not_cached(self, tmp_path) -> None:
        url = "https://one.example/"
        inner = ScriptedTransport(
            {url: [Response(url=URL.parse(url), status=503),
                   Response(url=URL.parse(url), status=200, body="ok")]})
        caching = CachingTransport(inner, tmp_path)
        assert _send(caching, _request("one.example")).status == 503
        assert _send(caching, _request("one.example")).status == 200
        assert _send(caching, _request("one.example")).status == 200  # hit
        caching.close()
        assert len(inner.sent) == 2

    def test_torn_manifest_lines_are_skipped(self, tmp_path) -> None:
        writer = CachingTransport(ScriptedTransport(), tmp_path)
        _send(writer, _request("one.example"))
        writer.close()
        manifest = next(tmp_path.glob("manifest-*.jsonl"))
        with manifest.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "truncated entr')  # crash mid-append
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        assert _send(reader, _request("one.example")).status == 200
        assert reader_inner.sent == []  # the intact entry survived
        _send(reader, _request("two.example"))  # the torn one is just a miss
        reader.close()

    def test_missing_body_object_degrades_to_miss(self, tmp_path) -> None:
        # A deleted pack and a pack truncated short of the body's extent are
        # both misses: the body is re-fetched, never a crash, and stored
        # whole again so the next reader hits.
        for damage in ("delete", "truncate"):
            cache = tmp_path / damage
            writer = CachingTransport(ScriptedTransport(), cache)
            _send(writer, _request("one.example"))
            writer.close()
            pack = next(cache.glob("pack-*.bin"))
            if damage == "delete":
                pack.unlink()
            else:
                os.truncate(pack, pack.stat().st_size - 1)
            reader_inner = ScriptedTransport()
            reader = CachingTransport(reader_inner, cache, shared_index=False)
            assert _send(reader, _request("one.example")).status == 200
            reader.close()
            assert len(reader_inner.sent) == 1  # re-fetched, not crashed
            again_inner = ScriptedTransport()
            again = CachingTransport(again_inner, cache, shared_index=False)
            assert _send(again, _request("one.example")).body == \
                "body of https://one.example/"
            again.close()
            assert again_inner.sent == []

    def test_extent_past_the_pack_end_is_a_miss(self, tmp_path) -> None:
        writer = CachingTransport(ScriptedTransport(), tmp_path)
        _send(writer, _request("one.example"))
        writer.close()
        manifest = next(tmp_path.glob("manifest-*.jsonl"))
        entry = json.loads(manifest.read_text(encoding="utf-8"))
        entry["offset"] = next(tmp_path.glob("pack-*.bin")).stat().st_size - 1
        manifest.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        assert _send(reader, _request("one.example")).body == \
            "body of https://one.example/"
        reader.close()
        assert len(reader_inner.sent) == 1

    def test_identical_bodies_share_one_extent(self, tmp_path) -> None:
        # robots.txt bodies repeat across origins: the second writer's line
        # points at the first writer's extent and it creates no pack.
        def same_body(domain: str) -> ScriptedTransport:
            url = f"https://{domain}/robots.txt"
            return ScriptedTransport({url: [Response(url=URL.parse(url), status=200,
                                                     body="User-agent: *\n")]})

        first = CachingTransport(same_body("one.example"), tmp_path)
        _send(first, _request("one.example", "/robots.txt"))
        second = CachingTransport(same_body("two.example"), tmp_path)
        _send(second, _request("two.example", "/robots.txt"))
        first.close()
        second.close()
        entries = [json.loads(line) for manifest in tmp_path.glob("manifest-*.jsonl")
                   for line in manifest.read_text(encoding="utf-8").splitlines()]
        extents = {(entry["pack"], entry["offset"], entry["length"]) for entry in entries}
        assert len(entries) == 2 and len(extents) == 1
        pack = next(tmp_path.glob("pack-*.bin"))
        assert len(list(tmp_path.glob("pack-*.bin"))) == 1
        assert pack.read_bytes() == b"User-agent: *\n"
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        for domain in ("one.example", "two.example"):
            assert _send(reader, _request(domain, "/robots.txt")).body == "User-agent: *\n"
        reader.close()
        assert reader_inner.sent == []

    def test_entry_fsync_syncs_the_pack_before_the_manifest(self, tmp_path,
                                                           monkeypatch) -> None:
        synced: list[int] = []  # inodes, in fsync order
        real_fsync = os.fsync

        def recording_fsync(descriptor: int) -> None:
            synced.append(os.fstat(descriptor).st_ino)
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        caching = CachingTransport(ScriptedTransport(), tmp_path, fsync="entry",
                                   shared_index=False)
        _send(caching, _request("one.example"))
        _send(caching, _request("two.example"))
        caching.close()
        pack = next(tmp_path.glob("pack-*.bin")).stat().st_ino
        manifest = next(tmp_path.glob("manifest-*.jsonl")).stat().st_ino
        assert synced == [pack, manifest] * 3  # two stores, then close

    def test_legacy_objects_entry_is_a_miss(self, tmp_path) -> None:
        # A cache of the body-per-file layout: the entry has no extent.  Its
        # manifest sorts after any new one, yet the re-fetched entry wins.
        from repro.crawler.transport import _cache_key

        request = _request("one.example")
        body = b"legacy body"
        body_sha = hashlib.sha256(body).hexdigest()
        legacy = tmp_path / "objects" / body_sha[:2] / body_sha
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes(body)
        entry = {"key": _cache_key(request), "url": str(request.url), "status": 200,
                 "headers": {}, "body_sha": body_sha, "elapsed_ms": 1.0,
                 "served_variant": None}
        (tmp_path / "manifest-~legacy.jsonl").write_text(json.dumps(entry) + "\n",
                                                         encoding="utf-8")
        for sends in (1, 0):
            reader_inner = ScriptedTransport()
            reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
            assert _send(reader, request).body == "body of https://one.example/"
            reader.close()
            assert len(reader_inner.sent) == sends

    def test_concurrent_writers_share_one_directory(self, tmp_path) -> None:
        first = CachingTransport(ScriptedTransport(), tmp_path)
        second = CachingTransport(ScriptedTransport(), tmp_path)
        _send(first, _request("one.example"))
        _send(second, _request("two.example"))
        first.close()
        second.close()
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        _send(reader, _request("one.example"))
        _send(reader, _request("two.example"))
        reader.close()
        assert reader_inner.sent == []  # both manifests were merged

    def test_shared_index_loads_manifests_once_per_directory(self, tmp_path,
                                                             monkeypatch) -> None:
        from repro.crawler.transport import _ManifestIndex

        writer = CachingTransport(ScriptedTransport(), tmp_path)
        _send(writer, _request("one.example"))
        writer.close()
        scans = {"count": 0}
        original = _ManifestIndex._scan_locked

        def counting_scan(self):
            scans["count"] += 1
            return original(self)

        monkeypatch.setattr(_ManifestIndex, "_scan_locked", counting_scan)
        # Many instances over one directory — the sub-sharded pipeline's
        # shape — must not re-parse the manifests per instance, and a cache
        # *hit* must not trigger a rescan either.
        for _ in range(5):
            reader = CachingTransport(ScriptedTransport(), tmp_path)
            assert _send(reader, _request("one.example")).status == 200
            reader.close()
        assert scans["count"] == 0  # the writer's load populated the share

    def test_shared_index_observes_manifests_appended_by_other_writers(
            self, tmp_path) -> None:
        # Two transports over one cache directory: the first send populates
        # the per-process shared index for the directory; a manifest that
        # appears *afterwards* (here written externally, as another worker
        # process would) must be picked up before declaring a miss.
        first = CachingTransport(ScriptedTransport(), tmp_path)
        _send(first, _request("one.example"))
        first.close()
        foreign_inner = ScriptedTransport(script={"https://two.example/": [
            Response(url=URL.parse("https://two.example/"), status=200,
                     headers=Headers({"content-type": "text/html"}),
                     body="<html>foreign</html>")]})
        foreign = CachingTransport(foreign_inner, tmp_path, shared_index=False)
        _send(foreign, _request("two.example"))
        foreign.close()
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path)
        response = _send(reader, _request("two.example"))
        reader.close()
        assert response.status == 200
        assert "foreign" in response.body
        assert reader_inner.sent == []  # served from the rescanned manifest

    def test_rescan_picks_up_lines_appended_to_an_existing_manifest(
            self, tmp_path) -> None:
        # Growth of an already-scanned manifest file (append, not a new
        # file) must be observed too — directory mtime alone would miss it.
        writer = CachingTransport(ScriptedTransport(), tmp_path)
        _send(writer, _request("one.example"))
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        assert _send(reader, _request("one.example")).status == 200
        _send(writer, _request("two.example"))  # appends to the same manifest
        writer.close()
        assert _send(reader, _request("two.example")).status == 200
        reader.close()
        assert reader_inner.sent == []

    def test_manifest_fsync_policies(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            CachingTransport(ScriptedTransport(), tmp_path, fsync="always")
        entry_synced = CachingTransport(ScriptedTransport(), tmp_path,
                                        fsync="entry", shared_index=False)
        _send(entry_synced, _request("one.example"))
        # The line must be durable (at least flushed) before close.
        manifests = list(tmp_path.glob("manifest-*.jsonl"))
        assert len(manifests) == 1
        assert "one.example" in manifests[0].read_text(encoding="utf-8")
        entry_synced.close()

    def test_compact_cache_folds_manifests_and_sweeps_orphans(self, tmp_path) -> None:
        from repro.crawler.transport import COMPACTED_MANIFEST, compact_cache

        domains = ("one.example", "two.example", "three.example")
        for domain in domains:
            writer = CachingTransport(ScriptedTransport(), tmp_path,
                                      shared_index=False)
            _send(writer, _request(domain))
            writer.close()
        assert len(list(tmp_path.glob("manifest-*.jsonl"))) == 3
        # Orphans: pack bytes no manifest line references — what a crash
        # between a body append and its manifest append leaves behind — and
        # a body file of the old objects/ layout.
        with sorted(tmp_path.glob("pack-*.bin"))[0].open("ab") as handle:
            handle.write(b"orphaned body")
        legacy = tmp_path / "objects" / "ff" / ("ff" + "0" * 62)
        legacy.parent.mkdir(parents=True)
        legacy.write_text("legacy body", encoding="utf-8")
        # A shared index loaded before compaction must not outlive it.
        CachingTransport(ScriptedTransport(), tmp_path).close()

        stats = compact_cache(tmp_path)
        assert stats.manifests_folded == 3
        assert stats.entries == 3
        assert stats.entries_dropped == 0
        assert stats.files_removed == 4  # three writer packs, one legacy body
        assert stats.bytes_reclaimed == len("orphaned body") + len("legacy body")
        assert not (tmp_path / "objects").exists()
        manifests = list(tmp_path.glob("manifest-*.jsonl"))
        assert [path.name for path in manifests] == [COMPACTED_MANIFEST]
        packs = list(tmp_path.glob("pack-*.bin"))
        assert len(packs) == 1
        assert packs[0].stat().st_size == \
            sum(len(f"body of https://{domain}/") for domain in domains)

        # The compacted cache still serves every entry, from disk, through
        # a fresh index and through the process's shared one.
        for shared_index in (False, True):
            reader_inner = ScriptedTransport()
            reader = CachingTransport(reader_inner, tmp_path,
                                      shared_index=shared_index)
            for domain in domains:
                assert _send(reader, _request(domain)).body == \
                    f"body of https://{domain}/"
            reader.close()
            assert reader_inner.sent == []

        # Compaction is idempotent (and keeps serving after a second pass).
        again = compact_cache(tmp_path)
        assert again.manifests_folded == 1
        assert again.entries == 3
        assert again.files_removed == 0
        assert again.bytes_reclaimed == 0
        assert list(tmp_path.glob("pack-*.bin")) == packs
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path)
        for domain in domains:
            assert _send(reader, _request(domain)).status == 200
        reader.close()
        assert reader_inner.sent == []

    def test_compaction_drops_entries_whose_body_is_unreadable(self, tmp_path) -> None:
        from repro.crawler.transport import compact_cache

        writer = CachingTransport(ScriptedTransport(), tmp_path, shared_index=False)
        _send(writer, _request("one.example"))
        _send(writer, _request("two.example"))
        writer.close()
        pack = next(tmp_path.glob("pack-*.bin"))
        os.truncate(pack, len("body of https://one.example/"))
        stats = compact_cache(tmp_path)
        assert (stats.entries, stats.entries_dropped) == (1, 1)
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, tmp_path, shared_index=False)
        _send(reader, _request("one.example"))
        _send(reader, _request("two.example"))
        reader.close()
        assert [str(request.url) for request in reader_inner.sent] == \
            ["https://two.example/"]


class TestSharedIndexEviction:
    """Shared manifest indexes live only as long as their directories."""

    def test_deleted_directory_index_is_dropped(self, tmp_path) -> None:
        gone = tmp_path / "gone"
        writer = CachingTransport(ScriptedTransport(), gone)
        _send(writer, _request("one.example"))
        writer.close()
        shutil.rmtree(gone)
        CachingTransport(ScriptedTransport(), tmp_path / "other").close()
        assert gone.resolve() not in CachingTransport._SHARED_INDEXES

    def test_replaced_directory_gets_a_fresh_index(self, tmp_path) -> None:
        cache = tmp_path / "cache"
        writer = CachingTransport(ScriptedTransport(), cache)
        _send(writer, _request("one.example"))
        writer.close()
        # Moved away, not deleted, so the new directory cannot reuse its inode.
        cache.rename(tmp_path / "moved")
        reader_inner = ScriptedTransport()
        reader = CachingTransport(reader_inner, cache)
        _send(reader, _request("two.example"))
        reader.close()
        assert [entry["url"] for entry in reader._manifests.snapshot().values()] == \
            ["https://two.example/"]

    def test_builds_on_deleted_caches_leave_the_heap_flat(self, tmp_path) -> None:
        from repro.core.pipeline import LangCrUXPipeline, PipelineConfig

        def build(index: int) -> None:
            cache = tmp_path / f"cache-{index}"
            LangCrUXPipeline(PipelineConfig(countries=("bd",), sites_per_country=4,
                                            seed=11, crawl_cache=str(cache))).run()
            shutil.rmtree(cache)

        tracemalloc.start()
        try:
            for index in range(2):  # warm every lazily filled process cache
                build(index)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for index in range(2, 10):
                build(index)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Keeping each deleted cache's manifest index grows the heap by
        # ~16 KiB per build here; a flat heap moves by a few KiB at most.
        assert growth < 48 * 1024


class TestComposition:
    def test_build_transport_stack_counts_network_requests(self, tmp_path) -> None:
        stack = build_transport_stack(ScriptedTransport(), cache_dir=tmp_path,
                                      rate_per_host=None)
        _send(stack.transport, _request("one.example"))
        _send(stack.transport, _request("one.example"))
        stack.close()
        assert stack.metrics.network_requests == 1
        assert stack.metrics.cache_hits == 1

    def test_sync_adapter_drives_the_async_stack(self) -> None:
        # Synchronous code drives the stack through one event loop.
        stack = build_transport_stack(ScriptedTransport())
        response = _send(stack.transport, _request("one.example"))
        assert response.status == 200
        assert stack.metrics.network_requests == 1

    def test_stack_over_simulated_transport(self, synthetic_web, tmp_path) -> None:
        base = SimulatedTransport(synthetic_web)
        stack = build_transport_stack(base, cache_dir=tmp_path)
        domain = synthetic_web.domains()[0]
        cold = _send(stack.transport, _request(domain))
        warm = _send(stack.transport, _request(domain))
        stack.close()
        assert cold.body == warm.body
        assert stack.metrics.network_requests == 1

    def test_close_is_idempotent(self, tmp_path) -> None:
        stack = build_transport_stack(ScriptedTransport(), cache_dir=tmp_path)
        stack.close()
        stack.close()


class TestTransportMetrics:
    def test_merge_sums_counters(self) -> None:
        one, two = TransportMetrics(), TransportMetrics()
        one.add("network_requests")
        one.add("rate_limit_wait_s", 1.5)
        two.add("network_requests", 2)
        two.add("cache_hits", 3)
        one.merge(two)
        assert one.network_requests == 3
        assert one.cache_hits == 3
        assert one.rate_limit_wait_s == pytest.approx(1.5)

    def test_pickles_across_process_boundaries(self) -> None:
        metrics = TransportMetrics()
        metrics.add("network_requests", 7)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.network_requests == 7
        clone.add("network_requests")  # the lock was rebuilt
        assert clone.network_requests == 8

    def test_summary_lines_mention_cache(self) -> None:
        metrics = TransportMetrics()
        metrics.add("cache_hits", 5)
        assert any("5 hits" in line for line in metrics.summary_lines())
