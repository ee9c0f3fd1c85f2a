"""A test-only executor whose results arrive out of order.

:class:`ShuffledExecutor` evaluates every work unit eagerly, in process, the
moment its stream is first pulled, then yields the results in a seeded
shuffled order.  That makes it the in-process source of the two schedules
a parallel backend produces and a merge must survive:

* out-of-order completions, which ``run_ordered``'s reorder buffer puts
  back in submission order;
* discarded speculation: because the whole source is consumed before any
  result is merged, every window of a country that fills early still runs,
  and its results arrive after the country has finalized.

Runs are deterministic for a given seed, unlike a real pool's schedule.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Iterable, Iterator

from repro.core.executor import ExecutorError, PipelineExecutor, ShardResult


class ShuffledExecutor(PipelineExecutor):
    """Eager, in-process, seeded out-of-order completion."""

    name = "shuffled"

    def __init__(self, seed: int = 0, workers: int = 4) -> None:
        self.seed = seed
        self.workers = workers

    def run(self, fn: Callable[[Any], Any],
            shards: Iterable[Any]) -> Iterator[ShardResult]:
        results = []
        for index, shard in enumerate(shards):
            started = time.perf_counter()
            try:
                value = fn(shard)
            except Exception as error:
                raise ExecutorError(f"shard {shard!r} failed: {error}",
                                    shard=shard) from error
            results.append(ShardResult(index=index, shard=shard, value=value,
                                       duration_s=time.perf_counter() - started))
        random.Random(self.seed).shuffle(results)
        yield from results
