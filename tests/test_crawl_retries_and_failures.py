"""One retry loop, counted once; a crawl with no responses fails cleanly.

* The :class:`~repro.crawler.fetcher.Fetcher` is the only retry loop, above
  the crawl cache: over HTTP a transient 503 is retried through the cache,
  never stored in it, and a warm rerun touches no network.
* The fetchers' retries reach the run's transport metrics on every
  transport-stack build, the simulated ``--crawl-cache`` one included.
* A build in which every network request raised exits non-zero and leaves
  no output file, for ``build`` and ``dist-build`` alike.
"""

from __future__ import annotations

import json
import socket
import threading

from repro.cli import main
from repro.core import pipeline as pipeline_module
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, build_web_for_config
from repro.crawler.fetcher import Fetcher, FetchError, SimulatedTransport
from repro.crawler.http import Request, Response
from repro.webgen.server import LocalSiteServer, OriginResponse

BASE = dict(countries=("bd", "th"), sites_per_country=4, seed=29)


def _refusing_gateway() -> str:
    """A loopback address whose port was just freed, so connections are refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    return f"127.0.0.1:{port}"


class _FirstRequestFails:
    """A web that answers the first request for each (host, path) with 503."""

    def __init__(self, web) -> None:
        self.web = web
        self._seen: set[tuple[str, str]] = set()
        self._lock = threading.Lock()

    def request(self, host: str, path: str, **kwargs) -> OriginResponse:
        with self._lock:
            first = (host, path) not in self._seen
            self._seen.add((host, path))
        if first:
            return OriginResponse(status=503, body="try again",
                                  headers={"content-type": "text/plain"})
        return self.web.request(host, path, **kwargs)


def _dataset_bytes(result, path) -> bytes:
    result.dataset.save_jsonl(path)
    return path.read_bytes()


class TestHttpRetryAboveTheCache:
    def test_transient_503s_are_retried_and_never_cached(self, tmp_path) -> None:
        reference = _dataset_bytes(
            LangCrUXPipeline(PipelineConfig(**BASE, transport_failure_rate=0.0)).run(),
            tmp_path / "simulated.jsonl")
        web, _crux = build_web_for_config(PipelineConfig(**BASE))
        cache = tmp_path / "cache"
        with LocalSiteServer(_FirstRequestFails(web)) as server:
            config = PipelineConfig(**BASE, transport="http",
                                    http_gateway=server.gateway, crawl_cache=str(cache))
            cold = LangCrUXPipeline(config).run()
            assert _dataset_bytes(cold, tmp_path / "cold.jsonl") == reference
            # Every distinct URL failed once, so every one was retried once.
            assert cold.transport_metrics.retries == cold.transport_metrics.cache_stores > 0
            warm = LangCrUXPipeline(config).run()
        assert _dataset_bytes(warm, tmp_path / "warm.jsonl") == reference
        assert warm.transport_metrics.network_requests == 0
        entries = [json.loads(line) for manifest in cache.glob("manifest-*.jsonl")
                   for line in manifest.read_text(encoding="utf-8").splitlines()]
        assert entries
        assert all(entry["status"] != 503 for entry in entries)


class TestRetriesAreReported:
    def test_cached_simulated_build_reports_the_fetchers_retries(
            self, tmp_path, monkeypatch) -> None:
        fetchers: list[Fetcher] = []

        class RecordingFetcher(Fetcher):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                fetchers.append(self)

        monkeypatch.setattr(pipeline_module, "Fetcher", RecordingFetcher)
        config = PipelineConfig(**BASE, transport_failure_rate=0.2,
                                crawl_cache=str(tmp_path / "cache"))
        result = LangCrUXPipeline(config).run()
        retries = sum(fetcher.stats["retries"] for fetcher in fetchers)
        assert retries > 0
        assert result.transport_metrics.retries == retries
        summary = result.transport_metrics.summary_lines()
        assert f"retries {retries}" in summary


class TestNoResponseFailsCleanly:
    ARGS = ["--transport", "http", "--countries", "il",
            "--sites-per-country", "3", "--seed", "31"]

    def test_build_exits_non_zero_without_output(self, tmp_path) -> None:
        output = tmp_path / "out.jsonl"
        exit_code = main(["build", "--output", str(output),
                          "--http-gateway", _refusing_gateway(), *self.ARGS])
        assert exit_code != 0
        assert not output.exists()

    def test_streaming_build_exits_non_zero_without_output(self, tmp_path) -> None:
        output = tmp_path / "out.jsonl"
        exit_code = main(["build", "--stream-output", str(output),
                          "--http-gateway", _refusing_gateway(), *self.ARGS])
        assert exit_code != 0
        assert not output.exists()

    def test_dist_build_exits_non_zero_without_output(self, tmp_path) -> None:
        output = tmp_path / "out.jsonl"
        exit_code = main(["dist-build", "--queue-dir", str(tmp_path / "queue"),
                          "--workers", "1", "--output", str(output),
                          "--http-gateway", _refusing_gateway(), *self.ARGS])
        assert exit_code != 0
        assert not output.exists()

    def test_a_run_with_some_responses_still_publishes(self, tmp_path,
                                                        monkeypatch) -> None:
        # Every robots.txt fetch raises on the wire, but every page
        # answers: only a run with no response at all fails.
        web, _crux = build_web_for_config(PipelineConfig(**BASE))

        class RobotsUnreachable:
            def __init__(self, gateway=None, *, timeout_s: float = 10.0) -> None:
                self.inner = SimulatedTransport(web)

            async def send(self, request: Request) -> Response:
                if request.url.path == "/robots.txt":
                    raise FetchError("connection refused")
                return await self.inner.send(request)

        monkeypatch.setattr(pipeline_module, "HttpAsyncTransport", RobotsUnreachable)
        output = tmp_path / "out.jsonl"
        result = LangCrUXPipeline(PipelineConfig(**BASE, transport="http")).run(
            stream_to=output, keep_in_memory=False)
        metrics = result.transport_metrics
        assert 0 < metrics.network_errors < metrics.network_requests
        assert result.streamed_records > 0
        assert len(output.read_bytes().splitlines()) == result.streamed_records
