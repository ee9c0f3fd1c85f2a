"""One event loop per unit of crawl work.

The crawl layer is async from one entry point, the selection window:
every window enters the loop once in ``SiteSelector.evaluate_window``,
whether it spans a whole country or a sub-shard of its ranking.  No fetch,
robots lookup or cache replay may start a loop of its own, so these tests
count every loop ``asyncio`` creates during a build.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from repro.core.site_selection import SiteSelector

BASE = dict(countries=("bd",), sites_per_country=6, seed=11)


@pytest.fixture
def loop_count(monkeypatch) -> list[int]:
    """A one-element counter of the event loops created while it is active."""
    count = [0]
    original = asyncio.events.new_event_loop

    def counting_new_event_loop():
        count[0] += 1
        return original()

    monkeypatch.setattr(asyncio.events, "new_event_loop", counting_new_event_loop)
    return count


@pytest.fixture
def window_count(monkeypatch) -> list[int]:
    """A one-element counter of ``SiteSelector.evaluate_window`` calls."""
    count = [0]
    original = SiteSelector.evaluate_window

    def counting_evaluate_window(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SiteSelector, "evaluate_window", counting_evaluate_window)
    return count


def _run(config: PipelineConfig):
    result = LangCrUXPipeline(config).run()
    assert result.dataset.records
    return result


class TestOneLoopPerWindow:
    @pytest.mark.parametrize("max_in_flight", [1, 4])
    def test_cold_country_build_creates_one_loop(self, loop_count, max_in_flight) -> None:
        _run(PipelineConfig(**BASE, max_in_flight=max_in_flight))
        assert loop_count[0] == 1

    def test_warm_cache_country_build_creates_one_loop(self, loop_count, tmp_path) -> None:
        cache = str(tmp_path / "cache")
        _run(PipelineConfig(**BASE, crawl_cache=cache))  # fills the cache
        loop_count[0] = 0
        result = _run(PipelineConfig(**BASE, crawl_cache=cache))
        assert result.transport_metrics.network_requests == 0
        assert result.transport_metrics.cache_hits > 1
        assert loop_count[0] == 1

    def test_subsharded_serial_build_creates_one_loop_per_window(
            self, loop_count, window_count) -> None:
        _run(PipelineConfig(**BASE, executor="serial", sub_shard_size=2))
        assert window_count[0] > 1
        assert loop_count[0] == window_count[0]
