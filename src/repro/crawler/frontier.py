"""URL frontier with deduplication and per-host politeness.

The frontier holds URLs awaiting a visit.  It guarantees that

* a URL is handed out at most once per crawl (dedup on the normalised URL);
* requests to the same host are spaced by at least the host's politeness
  delay (a default, overridable by robots ``Crawl-delay``);
* higher-priority entries (better CrUX rank) are dispatched first among the
  hosts that are currently allowed to be contacted.

Time is injected as a callable so that tests and the simulated crawl can run
on a virtual clock instead of sleeping.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable

from repro.crawler.http import URL


@dataclass(frozen=True)
class FrontierEntry:
    """A URL scheduled for crawling.

    Attributes:
        url: The URL to fetch.
        priority: Smaller is more urgent (CrUX rank is used directly).
        country_code: The country list this URL was scheduled for.
        depth: Link depth from the seed (0 = the seed itself).
    """

    url: URL
    priority: int = 0
    country_code: str | None = None
    depth: int = 0


class Frontier:
    """Priority frontier with per-host politeness.

    Args:
        default_delay: Minimum seconds between two requests to one host.
        clock: Callable returning the current time in seconds.  The crawler
            passes a virtual clock; the default is a monotonically increasing
            counter so that the frontier works standalone in tests.
    """

    def __init__(self, default_delay: float = 1.0,
                 clock: Callable[[], float] | None = None) -> None:
        self.default_delay = default_delay
        self._clock = clock or _StepClock()
        self._heap: list[tuple[int, int, FrontierEntry]] = []
        self._counter = itertools.count()
        self._seen: set[str] = set()
        self._next_allowed: dict[str, float] = {}
        self._host_delays: dict[str, float] = {}

    # -- scheduling ----------------------------------------------------------

    def add(self, entry: FrontierEntry) -> bool:
        """Schedule ``entry``; returns ``False`` when the URL was seen before."""
        key = str(entry.url)
        if key in self._seen:
            return False
        self._seen.add(key)
        heapq.heappush(self._heap, (entry.priority, next(self._counter), entry))
        return True

    def add_url(self, url: URL | str, *, priority: int = 0, country_code: str | None = None,
                depth: int = 0) -> bool:
        parsed = url if isinstance(url, URL) else URL.parse(url)
        return self.add(FrontierEntry(url=parsed, priority=priority,
                                      country_code=country_code, depth=depth))

    def set_host_delay(self, host: str, delay: float) -> None:
        """Override the politeness delay for one host (robots Crawl-delay)."""
        self._host_delays[host] = delay

    # -- retrieval -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def seen_count(self) -> int:
        return len(self._seen)

    def _delay_for(self, host: str) -> float:
        return self._host_delays.get(host, self.default_delay)

    def pop(self) -> FrontierEntry | None:
        """Next entry whose host is allowed to be contacted now.

        Entries whose host is still inside its politeness window are skipped
        over (and re-queued) in favour of the next eligible entry; when no
        entry is eligible the earliest-allowed one is returned anyway and the
        caller is expected to wait (the simulated crawler advances its clock
        instead).  Returns ``None`` when the frontier is empty.
        """
        if not self._heap:
            return None
        now = self._clock()
        deferred: list[tuple[int, int, FrontierEntry]] = []
        chosen: FrontierEntry | None = None
        while self._heap:
            priority, counter, entry = heapq.heappop(self._heap)
            allowed_at = self._next_allowed.get(entry.url.host, 0.0)
            if allowed_at <= now:
                chosen = entry
                break
            deferred.append((priority, counter, entry))
        if chosen is None:
            # Everything is throttled; hand out the overall best entry.
            deferred.sort()
            priority, counter, chosen = deferred.pop(0)
        for item in deferred:
            heapq.heappush(self._heap, item)
        self._next_allowed[chosen.url.host] = max(now, self._next_allowed.get(chosen.url.host, 0.0)) \
            + self._delay_for(chosen.url.host)
        return chosen

    def drain(self) -> list[FrontierEntry]:
        """Pop every remaining entry, in dispatch order (used by tests)."""
        entries = []
        while len(self) > 0:
            entry = self.pop()
            if entry is None:
                break
            entries.append(entry)
        return entries


class _StepClock:
    """A fallback clock that advances by one second per reading."""

    def __init__(self) -> None:
        self._now = 0.0

    def __call__(self) -> float:
        self._now += 1.0
        return self._now
