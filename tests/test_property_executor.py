"""Property-based tests for the execution subsystem.

Two layers of invariants:

* **Executor algebra** — for arbitrary shard payloads, ``run_ordered`` is
  exactly ``map`` (same values, same order) however the backend's
  completions are ordered; the seeded out-of-order
  :class:`~shuffled_executor.ShuffledExecutor` drives the reorder buffer.
* **Pipeline invariance** — for random seeds and quotas, the selection
  results (``qualifying_site_counts()`` and the selected domains) do not
  depend on the completion order of the windows, which is the statistical
  core of the byte-identity guarantee pinned in ``test_core_executor.py``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.executor import SerialExecutor
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from shuffled_executor import ShuffledExecutor

payloads = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=30)
shuffle_seeds = st.integers(min_value=0, max_value=2**16)


class TestExecutorAlgebraProperties:
    @given(payloads, shuffle_seeds)
    @settings(max_examples=30, deadline=None)
    def test_shuffled_run_ordered_is_map(self, items: list[int], seed: int) -> None:
        executor = ShuffledExecutor(seed)
        results = list(executor.run_ordered(lambda x: x * 2 + 1, items))
        assert [r.value for r in results] == [x * 2 + 1 for x in items]
        assert [r.index for r in results] == list(range(len(items)))
        assert [r.shard for r in results] == items

    @given(payloads, shuffle_seeds)
    @settings(max_examples=30, deadline=None)
    def test_serial_matches_shuffled(self, items: list[int], seed: int) -> None:
        serial = [r.value for r in SerialExecutor().run_ordered(str, items)]
        shuffled = [r.value for r in ShuffledExecutor(seed).run_ordered(str, items)]
        assert serial == shuffled

    @given(payloads, shuffle_seeds)
    @settings(max_examples=30, deadline=None)
    def test_unordered_run_is_a_permutation(self, items: list[int], seed: int) -> None:
        results = list(ShuffledExecutor(seed).run(lambda x: x, items))
        assert sorted(r.index for r in results) == list(range(len(items)))
        assert sorted(r.value for r in results) == sorted(items)


class TestPipelineInvarianceProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        quota=st.integers(min_value=2, max_value=5),
        shuffle=shuffle_seeds,
        failure_rate=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=8, deadline=None)
    def test_qualifying_counts_invariant_across_backends(self, seed: int, quota: int,
                                                         shuffle: int,
                                                         failure_rate: float) -> None:
        base = dict(countries=("bd", "jp"), sites_per_country=quota, seed=seed,
                    transport_failure_rate=failure_rate)
        sequential = LangCrUXPipeline(PipelineConfig(**base)).run()
        parallel = LangCrUXPipeline(PipelineConfig(**base, sub_shard_size=2)).run(
            executor=ShuffledExecutor(shuffle))
        assert sequential.qualifying_site_counts() == parallel.qualifying_site_counts()
        assert [r.domain for r in sequential.dataset] == \
            [r.domain for r in parallel.dataset]
        assert [r.visible_native_share for r in sequential.dataset] == \
            [r.visible_native_share for r in parallel.dataset]
