"""Shared fixtures for the test suite.

The expensive artifact — a small LangCrUX dataset built end-to-end over the
synthetic web — is session-scoped so that the many analysis tests reuse one
build instead of re-crawling per test.

The pipeline fixtures honour three environment knobs so CI can run the very
same assertions over the parallel execution paths (the pipeline's output is
byte-identical for every combination, so every downstream check must hold
unchanged):

* ``LANGCRUX_TEST_EXECUTOR`` — executor backend (``serial``/``process``);
* ``LANGCRUX_TEST_WORKERS`` — worker count;
* ``LANGCRUX_TEST_SUB_SHARD_SIZE`` — intra-country sub-shard size.
"""

from __future__ import annotations

import os

import pytest

from repro.core.dataset import LangCrUXDataset
from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, PipelineResult
from repro.html.dom import Document
from repro.html.parser import parse_html
from repro.webgen.sitegen import SiteGenerator, SyntheticSite
from repro.webgen.profiles import get_profile


SAMPLE_HTML = """
<!DOCTYPE html>
<html lang="bn">
  <head><title>দৈনিক সংবাদ</title></head>
  <body>
    <h1>আজকের প্রধান খবর</h1>
    <p>শিক্ষার্থীদের জন্য নতুন বৃত্তির ঘোষণা করা হয়েছে।</p>
    <img src="/a.jpg" alt="Students attending the annual ceremony">
    <img src="/b.jpg" alt="">
    <img src="/c.jpg">
    <button aria-label="Search">🔍</button>
    <button>অনুসন্ধান</button>
    <a href="/news">আরও পড়ুন</a>
    <a href="/about"></a>
    <iframe src="https://embed.example.com/x" title="Weather widget"></iframe>
    <form>
      <label for="q">নাম</label>
      <input type="text" id="q" name="q">
      <input type="text" name="unlabelled">
      <select name="city" aria-label="City"></select>
      <input type="submit" value="জমা দিন">
      <input type="image" src="/go.png" alt="go">
    </form>
    <details><summary>বিস্তারিত</summary><p>তথ্য</p></details>
    <svg role="img" aria-label="Company logo"><path d="M0 0"/></svg>
    <object data="/doc.pdf">Annual report</object>
    <div style="display:none">hidden text that must not count</div>
    <script>var x = "script text";</script>
  </body>
</html>
"""


@pytest.fixture(scope="session")
def sample_document() -> Document:
    """A hand-written multilingual page exercising every studied element."""
    return parse_html(SAMPLE_HTML, url="https://example.com.bd/")


def _execution_overrides() -> dict:
    """Executor/worker/sub-shard overrides from the environment (see module
    docstring); empty in a default run."""
    overrides: dict = {}
    executor = os.environ.get("LANGCRUX_TEST_EXECUTOR")
    if executor:
        overrides["executor"] = executor
    workers = os.environ.get("LANGCRUX_TEST_WORKERS")
    if workers:
        overrides["workers"] = int(workers)
    sub_shard_size = os.environ.get("LANGCRUX_TEST_SUB_SHARD_SIZE")
    if sub_shard_size:
        overrides["sub_shard_size"] = int(sub_shard_size)
    return overrides


@pytest.fixture(scope="session")
def pipeline_result() -> PipelineResult:
    """A small but complete pipeline run over four representative countries."""
    config = PipelineConfig(
        countries=("bd", "th", "jp", "il"),
        sites_per_country=12,
        seed=11,
        transport_failure_rate=0.05,
        **_execution_overrides(),
    )
    return LangCrUXPipeline(config).run()


@pytest.fixture(scope="session")
def small_pipeline_result() -> PipelineResult:
    """The cheapest complete pipeline run: two countries, five sites each.

    Tests that only need *a* built dataset — or only the Bangladesh/Thailand
    shapes — use this instead of the four-country ``pipeline_result`` so
    their share of the suite's wall-clock stays minimal.
    """
    config = PipelineConfig(
        countries=("bd", "th"),
        sites_per_country=5,
        seed=11,
        transport_failure_rate=0.05,
        **_execution_overrides(),
    )
    return LangCrUXPipeline(config).run()


@pytest.fixture(scope="session")
def small_dataset(pipeline_result: PipelineResult) -> LangCrUXDataset:
    return pipeline_result.dataset


@pytest.fixture(scope="session")
def bd_sites() -> list[SyntheticSite]:
    """A deterministic batch of Bangladeshi candidate sites."""
    return SiteGenerator(get_profile("bd"), seed=5).generate_sites(20)


# -- analytics API (see tests/apiserver.py) -------------------------------------


@pytest.fixture(scope="session")
def api_dataset_path(tmp_path_factory, small_pipeline_result: PipelineResult):
    """The small pipeline dataset saved as JSONL for the serving-layer suite."""
    path = tmp_path_factory.mktemp("api") / "langcrux.jsonl"
    small_pipeline_result.dataset.save_jsonl(path)
    return path


@pytest.fixture(scope="session")
def api_server(api_dataset_path):
    """One analytics server shared by the read-only API tests.

    Tests that mutate serving state (reload-on-change, corrupt datasets,
    disconnects against a single worker) boot their own server via
    ``apiserver.serve`` instead.
    """
    import apiserver

    with apiserver.serve(api_dataset_path, max_workers=4) as server:
        yield server


@pytest.fixture
def api_client(api_server):
    """A fresh keep-alive client against the shared server."""
    import apiserver

    with apiserver.ApiClient(api_server.gateway) as client:
        yield client
