"""The windowed selection walk against the plain sequential oracle.

``tests/selection_oracle.py`` selects sites one candidate at a time with no
windows, speculation or executors.  Every pipeline configuration must
write exactly its JSONL bytes, and a whole-country build must crawl no
candidate the sequential walk would not.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import LangCrUXPipeline, PipelineConfig
from repro.core.site_selection import SiteSelector
from repro.langid.detector import ScriptDetector

from selection_oracle import oracle_jsonl

# At this seed and failure rate every country replaces origins: bd and th
# for fetch failures, jp for pages below the language threshold.
CONFIG = dict(countries=("bd", "th", "jp"), sites_per_country=8, seed=7,
              transport_failure_rate=0.3)


@pytest.fixture(scope="module")
def expected() -> bytes:
    data = oracle_jsonl(PipelineConfig(**CONFIG))
    assert data.count(b"\n") == 24
    return data


@pytest.mark.parametrize("sub_shard_size", [None, 3], ids=["whole-country", "windows-3"])
@pytest.mark.parametrize("executor", [dict(executor="serial"),
                                      dict(executor="process", workers=2)],
                         ids=["serial", "process"])
def test_pipeline_matches_the_sequential_oracle(expected, tmp_path, executor,
                                                sub_shard_size) -> None:
    config = PipelineConfig(**CONFIG, **executor, sub_shard_size=sub_shard_size)
    output = tmp_path / "dataset.jsonl"
    LangCrUXPipeline(config).run(stream_to=output, keep_in_memory=False)
    assert output.read_bytes() == expected


def test_whole_country_walk_stops_at_the_quota(monkeypatch) -> None:
    """At ``max_in_flight=1`` every crawled candidate is one the committer examines.

    A window that walked past the batch in which its quota filled would
    evaluate more candidates than ``candidates_examined`` counts.
    """
    calls = [0]
    original = SiteSelector.evaluate

    async def counting_evaluate(self, entry):
        calls[0] += 1
        return await original(self, entry)

    monkeypatch.setattr(SiteSelector, "evaluate", counting_evaluate)
    result = LangCrUXPipeline(PipelineConfig(**CONFIG, executor="serial")).run()
    examined = sum(outcome.candidates_examined
                   for outcome in result.selection_outcomes.values())
    assert all(outcome.filled for outcome in result.selection_outcomes.values())
    assert all(outcome.replacement_count
               for outcome in result.selection_outcomes.values())
    assert calls[0] == examined


def test_language_share_is_measured_once_per_crawled_candidate(monkeypatch) -> None:
    """Records reuse the share selection measured; nothing measures it twice.

    ``ScriptDetector.share`` runs once per evaluated candidate with at least
    one parsed page, and record building adds no call of its own.
    """
    with_pages = [0]
    shares = [0]
    original_evaluate = SiteSelector.evaluate
    original_share = ScriptDetector.share

    async def counting_evaluate(self, entry):
        evaluation = await original_evaluate(self, entry)
        with_pages[0] += bool(evaluation.documents)
        return evaluation

    def counting_share(self, text):
        shares[0] += 1
        return original_share(self, text)

    monkeypatch.setattr(SiteSelector, "evaluate", counting_evaluate)
    monkeypatch.setattr(ScriptDetector, "share", counting_share)
    result = LangCrUXPipeline(PipelineConfig(**CONFIG, executor="serial")).run()
    assert len(result.dataset) == 24
    assert with_pages[0] > 0
    assert shares[0] == with_pages[0]
