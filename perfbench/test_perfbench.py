"""Self-tests of the benchmark's arithmetic: normalization and self time.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import asyncio
import types

import pytest

from ruler import RULER_REF_S, HostRuler, UnitClock, scale
from tracing import Span, Tracer, self_times


class FakeRuler:
    """Returns the given reads in order."""

    def __init__(self, reads):
        self.reads = list(reads)

    def read(self):
        return self.reads.pop(0)


def test_scale_is_one_at_reference_speed():
    assert scale(RULER_REF_S, RULER_REF_S) == pytest.approx(1.0)


def test_scale_uses_the_mean_of_the_bracketing_reads():
    # A host at half speed reads the ruler at twice the reference time, so
    # two raw seconds are one second at reference speed.
    assert scale(RULER_REF_S, 3 * RULER_REF_S) == pytest.approx(0.5)
    assert 2.0 * scale(2 * RULER_REF_S, 2 * RULER_REF_S) == pytest.approx(1.0)


def test_scale_rejects_non_positive_reads():
    with pytest.raises(ValueError):
        scale(0.0, RULER_REF_S)


def test_host_ruler_reads_positive_durations_and_stops_its_helper():
    ruler = HostRuler(loops=1000)
    try:
        reads = [ruler.read() for _ in range(3)]
    finally:
        ruler.close()
    assert all(read > 0 for read in reads)
    assert ruler._process.returncode == 0
    ruler.close()  # idempotent


def test_unit_clock_shares_each_read_between_neighbouring_units():
    reads = [RULER_REF_S, 2 * RULER_REF_S, 4 * RULER_REF_S]
    clock = UnitClock(FakeRuler(reads))
    clock.begin()
    clock.end("first")
    clock.begin()
    clock.end("second")
    assert len(clock.units) == 1  # the second unit waits for its closing read
    clock.finish()
    (_, first_scale, first_tag), (_, second_scale, second_tag) = clock.units
    assert (first_tag, second_tag) == ("first", "second")
    assert first_scale == pytest.approx(1 / 1.5)
    assert second_scale == pytest.approx(1 / 3.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 1, 0.0, 10.0),
        Span("middle", 1, 1.0, 6.0),
        Span("inner", 1, 2.0, 3.0),
        Span("inner", 1, 4.0, 5.5),
        Span("sibling", 1, 7.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx(
        {"outer": 10.0 - 5.0 - 2.0, "middle": 5.0 - 1.0 - 1.5,
         "inner": 2.5, "sibling": 2.0})


def test_self_time_is_per_thread():
    # An overlapping span on another thread is not a child.
    spans = [Span("a", 1, 0.0, 4.0), Span("b", 2, 1.0, 2.0)]
    assert self_times(spans) == pytest.approx({"a": 4.0, "b": 1.0})


def test_server_spans_are_subtracted_from_the_client_span_they_serve():
    spans = [
        Span("fetch", 1, 0.0, 10.0),
        Span("http", 1, 1.0, 9.0),          # client request on thread 1
        Span("server", 2, 2.0, 7.0),        # handler on the server thread
        Span("webgen", 2, 3.0, 6.0),        # work inside the handler
        Span("server", 2, 9.5, 9.8),        # outside any client span
    ]
    totals = self_times(spans, clients=("http",))
    assert totals == pytest.approx({"fetch": 2.0, "http": 3.0,
                                    "server": 2.0 + 0.3, "webgen": 3.0})
    # The layers' self times add up to the busy wall time of the client
    # thread plus the server work that ran outside it.
    assert sum(totals.values()) == pytest.approx(10.0 + 0.3)


def test_a_handler_epilogue_past_the_client_span_is_not_counted_twice():
    spans = [
        Span("fetch", 1, 0.0, 10.0),
        Span("http", 1, 1.0, 5.0),
        Span("server", 2, 2.0, 6.0),        # ends after the client got its reply
        Span("webgen", 2, 2.5, 4.5),
    ]
    totals = self_times(spans, clients=("http",))
    assert totals == pytest.approx({"fetch": 6.0, "http": 1.0,
                                    "server": 1.0, "webgen": 2.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_only_client_layers_absorb_foreign_spans():
    spans = [Span("fetch", 1, 0.0, 10.0), Span("server", 2, 2.0, 7.0)]
    assert self_times(spans, clients=("http",)) == pytest.approx(
        {"fetch": 10.0, "server": 5.0})


def test_tracer_wraps_restores_and_records_nested_calls():
    module = types.SimpleNamespace()

    class Layer:
        def outer(self):
            return module.inner() + 1

        async def fetch(self):
            return 5

    module.inner = lambda: 41
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", counter="outer.calls")
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(Layer, "fetch", "fetch",
                observe=lambda t, args, result, before: t.count("fetched", result))
    original_inner = module.inner
    tracer.install()
    try:
        assert Layer().outer() == 42
        assert asyncio.run(Layer().fetch()) == 5
    finally:
        tracer.uninstall()
    assert module.inner is original_inner
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    spans, counts = tracer.drain()
    assert sorted(span.layer for span in spans) == ["fetch", "inner", "outer"]
    assert counts == {"outer.calls": 1, "fetched": 5}
    totals = self_times(spans)
    outer = next(span for span in spans if span.layer == "outer")
    assert totals["outer"] + totals["inner"] == pytest.approx(outer.duration)
    assert tracer.drain() == ([], {})
