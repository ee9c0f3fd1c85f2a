"""Crawl metrics.

Large crawls need operational visibility: how many requests hit the
network (and how many of them failed), how much the crawl cache absorbed,
how often retries and rate limiting kicked in.  :class:`TransportMetrics`
carries those counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


@dataclass
class TransportMetrics:
    """Operational counters of a transport stack.

    Every layer of :mod:`repro.crawler.transport` increments the shared
    instance it was built with, so one object answers the questions a crawl
    operator asks: how many requests actually hit the network and how many
    of those raised, how much was served from the crawl cache, how often
    rate limiting kicked in.  ``retries`` is the fetcher's retry count,
    folded in when the crawl session's window closes.  Increments are
    lock-protected because wire transports dispatch sends from worker
    threads.

    Instances are plain picklable data, so shard workers can snapshot and
    ship them back to the parent, which merges them via :meth:`merge`.
    """

    network_requests: int = 0
    network_errors: int = 0
    connections_opened: int = 0
    connections_reused: int = 0
    retries: int = 0
    rate_limit_wait_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    cache_rescans: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return self.as_dict()

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._lock = threading.Lock()

    def add(self, counter: str, amount: float = 1) -> None:
        """Increment ``counter`` by ``amount`` (thread-safe)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def merge(self, other: "TransportMetrics") -> None:
        """Fold another stack's counters into this one."""
        with self._lock:
            for spec in fields(self):
                setattr(self, spec.name,
                        getattr(self, spec.name) + getattr(other, spec.name))

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def summary_lines(self) -> list[str]:
        """Human-readable one-liners (used by the CLI build report)."""
        lines = [f"network requests {self.network_requests}"
                 f" (connections opened {self.connections_opened},"
                 f" reused {self.connections_reused})"
                 + (f", {self.network_errors} failed" if self.network_errors else "")]
        if self.cache_hits or self.cache_misses:
            lines.append(f"crawl cache: {self.cache_hits} hits,"
                         f" {self.cache_misses} misses,"
                         f" {self.cache_stores} stored")
        if self.retries:
            lines.append(f"retries {self.retries}")
        return lines
