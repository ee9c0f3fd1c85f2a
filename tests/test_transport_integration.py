"""Live-server integration suite: the full pipeline over real HTTP.

The acceptance contract of the transport subsystem, end to end and
hermetically (loopback only, no external network):

* a pipeline run whose fetches travel through
  :class:`~repro.crawler.transport.HttpAsyncTransport` against a live
  :class:`~repro.webgen.server.LocalSiteServer` produces a dataset
  **byte-identical** to the :class:`~repro.crawler.fetcher.SimulatedTransport`
  run of the same site profiles — on every executor backend;
* a second run with ``--crawl-cache`` replays every fetch from disk (zero
  network requests, pinned through the transport metrics) and still yields
  byte-identical JSONL — even with the server gone.
"""

from __future__ import annotations

import pytest

from repro.core.dataset import LangCrUXDataset
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, build_web_for_config
from repro.webgen.server import LocalSiteServer

COUNTRIES = ("bd", "th")
SITES = 4
SEED = 29

#: The simulated-vs-http parity contract requires no injected failures: the
#: loopback wire does not fail, so the simulated reference must not either.
BASE = dict(countries=COUNTRIES, sites_per_country=SITES, seed=SEED,
            transport_failure_rate=0.0)


@pytest.fixture(scope="module")
def live_server():
    web, _crux = build_web_for_config(PipelineConfig(**BASE))
    with LocalSiteServer(web) as server:
        yield server


@pytest.fixture(scope="module")
def simulated_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("sim") / "langcrux.jsonl"
    result = LangCrUXPipeline(PipelineConfig(**BASE)).run()
    result.dataset.save_jsonl(path)
    return path.read_bytes()


def _http_config(live_server, **overrides) -> PipelineConfig:
    return PipelineConfig(**BASE, transport="http",
                          http_gateway=live_server.gateway, **overrides)


def _build_bytes(config: PipelineConfig, tmp_path, name: str) -> bytes:
    result = LangCrUXPipeline(config).run()
    path = tmp_path / name
    result.dataset.save_jsonl(path)
    return path.read_bytes()


class TestLiveParity:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("process", 4),
    ])
    def test_http_run_matches_simulated_bytes(self, live_server, simulated_bytes,
                                              tmp_path, executor, workers) -> None:
        config = _http_config(live_server, executor=executor, workers=workers)
        assert _build_bytes(config, tmp_path, f"{executor}.jsonl") == simulated_bytes

    def test_batched_subsharded_http_run_matches(self, live_server,
                                                 simulated_bytes, tmp_path) -> None:
        config = _http_config(live_server, executor="process", workers=2,
                              sub_shard_size=3, max_in_flight=4)
        assert _build_bytes(config, tmp_path, "subsharded.jsonl") == simulated_bytes

    def test_streamed_http_run_matches(self, live_server, simulated_bytes,
                                       tmp_path) -> None:
        config = _http_config(live_server)
        path = tmp_path / "streamed.jsonl"
        result = LangCrUXPipeline(config).run(stream_to=path, keep_in_memory=False)
        assert result.streamed_records == len(COUNTRIES) * SITES
        assert path.read_bytes() == simulated_bytes

    def test_http_transport_metrics_reach_the_result(self, live_server) -> None:
        result = LangCrUXPipeline(_http_config(live_server)).run()
        metrics = result.transport_metrics
        assert metrics is not None
        assert metrics.network_requests > 0
        assert metrics.connections_opened >= 1
        assert metrics.connections_reused > 0  # keep-alive pooling engaged


class TestCrawlCache:
    def test_warm_rerun_is_network_free_and_byte_identical(self, live_server,
                                                           simulated_bytes,
                                                           tmp_path) -> None:
        cache_dir = tmp_path / "cache"
        config = _http_config(live_server, crawl_cache=str(cache_dir))

        cold = LangCrUXPipeline(config).run()
        assert cold.transport_metrics.network_requests > 0
        assert cold.transport_metrics.cache_stores > 0

        warm = LangCrUXPipeline(config).run()
        assert warm.transport_metrics.network_requests == 0, \
            "a warm cache must absorb every fetch"
        assert warm.transport_metrics.cache_hits > 0
        assert warm.transport_metrics.cache_misses == 0

        cold_path, warm_path = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
        cold.dataset.save_jsonl(cold_path)
        warm.dataset.save_jsonl(warm_path)
        assert cold_path.read_bytes() == warm_path.read_bytes() == simulated_bytes

    def test_warm_cache_replays_with_the_server_gone(self, live_server,
                                                     simulated_bytes,
                                                     tmp_path) -> None:
        cache_dir = tmp_path / "cache"
        LangCrUXPipeline(_http_config(live_server,
                                      crawl_cache=str(cache_dir))).run()
        # Point the gateway at a dead port: only the cache can answer now.
        offline = PipelineConfig(**BASE, transport="http",
                                 http_gateway="127.0.0.1:1",
                                 crawl_cache=str(cache_dir))
        result = LangCrUXPipeline(offline).run()
        assert result.transport_metrics.network_requests == 0
        path = tmp_path / "offline.jsonl"
        result.dataset.save_jsonl(path)
        assert path.read_bytes() == simulated_bytes

    def test_warm_cache_on_process_backend(self, live_server, simulated_bytes,
                                           tmp_path) -> None:
        cache_dir = tmp_path / "cache"
        config = _http_config(live_server, crawl_cache=str(cache_dir),
                              executor="process", workers=2)
        LangCrUXPipeline(config).run()
        warm = LangCrUXPipeline(config).run()
        assert warm.transport_metrics.network_requests == 0
        path = tmp_path / "warm-process.jsonl"
        warm.dataset.save_jsonl(path)
        assert path.read_bytes() == simulated_bytes

    def test_simulated_transport_rides_the_same_cache(self, simulated_bytes,
                                                      tmp_path) -> None:
        cache_dir = tmp_path / "cache"
        config = PipelineConfig(**BASE, crawl_cache=str(cache_dir))
        cold = LangCrUXPipeline(config).run()
        warm = LangCrUXPipeline(config).run()
        assert cold.transport_metrics.network_requests > 0
        assert warm.transport_metrics.network_requests == 0
        path = tmp_path / "sim-warm.jsonl"
        warm.dataset.save_jsonl(path)
        assert path.read_bytes() == simulated_bytes


class TestPolitenessEndToEnd:
    def test_rate_limited_http_run_is_still_byte_identical(self, live_server,
                                                           simulated_bytes,
                                                           tmp_path) -> None:
        config = _http_config(live_server, rate_limit=500.0, max_per_host=2,
                              max_in_flight=4)
        assert _build_bytes(config, tmp_path, "polite.jsonl") == simulated_bytes

    def test_dataset_loads_back_from_every_path(self, live_server,
                                                tmp_path) -> None:
        config = _http_config(live_server)
        path = tmp_path / "roundtrip.jsonl"
        LangCrUXPipeline(config).run(stream_to=path)
        dataset = LangCrUXDataset.load_jsonl(path)
        assert len(dataset) == len(COUNTRIES) * SITES
        assert set(dataset.countries()) == set(COUNTRIES)
