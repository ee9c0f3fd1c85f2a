"""Hot paths — memoised script scoring, table-driven n-gram scoring, profiling overhead.

PR 7 rewrote the three CPU-heaviest post-index primitives around
precomputed state: ``script_histogram``/``textual_length`` classify each
*distinct* character once through a codepoint→script memo instead of
bisecting per character (and, since, classify a whole text with one
``str.translate`` over script-code tables kept with that memo),
``extract_ngrams`` memoises per-token gram dicts,
and ``NGramModel.score`` folds the Laplace smoothing into a precomputed
log-probability table so scoring is one dict lookup per gram.  Every fast
path keeps its naive reference implementation (in ``tests/langid_oracle.py``),
and the parity suites (``tests/test_langid_hot_paths.py``) pin them equal on
arbitrary inputs.

This harness measures what the rewrites bought:

* script scoring — characters/second through ``script_histogram`` +
  ``textual_length``, fast vs naive, on mixed-script text;
* n-gram scoring — texts/second through ``NGramModel.score`` vs
  the oracle's ``score_naive`` across a trained classifier's models;
* parse+audit — records/second through the full per-page stage with and
  without an active :mod:`repro.perf` collector, to bound the profiling
  overhead; the collected counters ship in the JSON payload.

Set ``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to demote the throughput targets to
report-only lines (CI does this: shared runners are too noisy for
wall-clock gates) — result parity is always asserted.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro import perf
from repro.audit.engine import AuditEngine
from repro.core.extraction import extract_page
from repro.html.parser import parse_html
from repro.langid.ngram import NGramClassifier
from repro.langid.scripts import script_histogram, textual_length

# The naive references are test oracles, kept next to their parity suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from langid_oracle import (  # noqa: E402
    score_naive,
    script_histogram_naive,
    textual_length_naive,
)

#: Minimum fast/naive throughput ratio for the langid hot paths (the PR's
#: acceptance floor is 2x on scoring; measured locally well above that, the
#: margin absorbs machine noise).
TARGET_SPEEDUP = 2.0

#: Mixed-script corpus shaped like real accessibility texts: short strings,
#: several scripts, emoji and digits.  Repetition is realistic — crawled
#: pages reuse the same alt/label phrases — and exercises the memo hit path.
SCRIPT_TEXTS = [
    "স্বাগতম আমাদের সাইটে welcome to our site",
    "ไทยกข เมนูหลัก main menu 012",
    "汉字テキスト mixed with Latin text and 😀 emoji",
    "اردو متن کے ساتھ with some English",
    "ছবি: একটি নদীর দৃশ্য 🚀",
    "search অনুসন্ধান ค้นหา suche",
] * 40

NGRAM_TRAINING = {
    "en": ["the quick brown fox jumps over the lazy dog",
           "sign in register search menu home news contact"],
    "de": ["der schnelle braune fuchs springt über den faulen hund",
           "anmelden registrieren suche menü startseite neuigkeiten"],
    "th": ["เมนูหลัก ค้นหา หน้าแรก ข่าว ติดต่อเรา",
           "ลงชื่อเข้าใช้ สมัครสมาชิก"],
}

NGRAM_TEXTS = [
    "sign in to read the news",
    "registrieren und anmelden",
    "ค้นหาข่าวจากหน้าแรก",
    "the startseite menu ข่าว mixed",
] * 60


def _page_markup(groups: int) -> str:
    parts = ["<html lang='bn'><head><title>হট পাথ</title></head><body>"]
    for i in range(groups):
        parts.append(f"<p>অনুচ্ছেদ {i} with mixed বাংলা and English text</p>")
        parts.append(f"<img src='/i{i}.jpg' alt='ছবির বিবরণ {i}'>")
        parts.append(f"<label for='f{i}'>ক্ষেত্র {i}</label>"
                     f"<input type='text' id='f{i}'>")
        parts.append(f"<a href='/p{i}'>লিংক {i}</a>")
    parts.append("</body></html>")
    return "".join(parts)


def _time_script_pass(histogram, length, repeats: int) -> tuple[float, list]:
    results = []
    started = time.perf_counter()
    for _ in range(repeats):
        for text in SCRIPT_TEXTS:
            results.append((histogram(text, textual_only=True), length(text)))
    return time.perf_counter() - started, results


def _time_ngram_pass(classifier: NGramClassifier, naive: bool,
                     repeats: int) -> tuple[float, list]:
    models = classifier._models
    results = []
    started = time.perf_counter()
    for _ in range(repeats):
        for text in NGRAM_TEXTS:
            if naive:
                results.append({code: score_naive(model, text)
                                for code, model in models.items()})
            else:
                results.append(classifier.scores(text))
    return time.perf_counter() - started, results


def _time_parse_audit(markup: str, engine: AuditEngine, repeats: int,
                      collector: perf.PerfCounters | None) -> tuple[float, list]:
    results = []
    started = time.perf_counter()
    with perf.collecting(collector):
        for _ in range(repeats):
            document = parse_html(markup, url="https://bench.example.bd/")
            extraction = extract_page(document)
            report = engine.audit_document(document)
            results.append((extraction, report.to_dict()))
    return time.perf_counter() - started, results


def test_script_scoring_throughput(reporter) -> None:
    repeats = 6
    chars = sum(len(text) for text in SCRIPT_TEXTS) * repeats
    naive_s, naive_results = _time_script_pass(
        script_histogram_naive, textual_length_naive, repeats)
    fast_s, fast_results = _time_script_pass(
        script_histogram, textual_length, repeats)

    # The memo is a pure access-path change: identical outputs.
    assert fast_results == naive_results

    naive_cps, fast_cps = chars / naive_s, chars / fast_s
    speedup = fast_cps / naive_cps
    reporter("Hot paths — script scoring (memoised codepoint→script)", [
        f"naive {naive_cps:,.0f} chars/s, fast {fast_cps:,.0f} chars/s "
        f"(speedup {speedup:.2f}x)",
        f"target: >= {TARGET_SPEEDUP:.0f}x script-scoring throughput",
    ], data={
        "config": {"texts": len(SCRIPT_TEXTS), "repeats": repeats},
        "script_naive_cps": naive_cps,
        "script_fast_cps": fast_cps,
        "script_speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
    })
    if os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0":
        assert speedup >= TARGET_SPEEDUP, (
            f"memoised script scoring reached {speedup:.2f}x, "
            f"expected >= {TARGET_SPEEDUP}x")


def test_ngram_scoring_throughput(reporter) -> None:
    classifier = NGramClassifier.train(NGRAM_TRAINING)
    repeats = 4
    texts = len(NGRAM_TEXTS) * repeats
    naive_s, naive_results = _time_ngram_pass(classifier, True, repeats)
    fast_s, fast_results = _time_ngram_pass(classifier, False, repeats)

    # Precomputed log tables evaluate the same expressions in the same
    # order: exact float equality, not approximate.
    assert fast_results == naive_results

    naive_tps, fast_tps = texts / naive_s, texts / fast_s
    speedup = fast_tps / naive_tps
    reporter("Hot paths — n-gram scoring (precomputed log tables)", [
        f"naive {naive_tps:,.0f} texts/s, fast {fast_tps:,.0f} texts/s "
        f"(speedup {speedup:.2f}x) across {len(NGRAM_TRAINING)} models",
        f"target: >= {TARGET_SPEEDUP:.0f}x n-gram scoring throughput",
    ], data={
        "config": {"texts": len(NGRAM_TEXTS), "repeats": repeats,
                   "models": sorted(NGRAM_TRAINING)},
        "ngram_naive_tps": naive_tps,
        "ngram_fast_tps": fast_tps,
        "ngram_speedup": speedup,
        "target_speedup": TARGET_SPEEDUP,
    })
    if os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0":
        assert speedup >= TARGET_SPEEDUP, (
            f"table-driven n-gram scoring reached {speedup:.2f}x, "
            f"expected >= {TARGET_SPEEDUP}x")


def test_profiling_overhead(reporter) -> None:
    import gc

    engine = AuditEngine()
    markup = _page_markup(60)
    repeats = 15
    _time_parse_audit(markup, engine, 2, None)  # warm-up
    # Interleave the two modes and keep the best of each: back-to-back single
    # passes conflate the timer overhead with GC pressure from the first
    # pass's accumulated results and with machine noise.
    plain_s = profiled_s = float("inf")
    collector = perf.PerfCounters()
    plain_results = profiled_results = None
    for _ in range(3):
        gc.collect()
        seconds, profiled_results = _time_parse_audit(markup, engine, repeats,
                                                      collector)
        profiled_s = min(profiled_s, seconds)
        gc.collect()
        seconds, plain_results = _time_parse_audit(markup, engine, repeats, None)
        plain_s = min(plain_s, seconds)

    # Profiling observes the run; it must not change any result.
    assert profiled_results == plain_results
    assert collector.counters["parse.documents"] == 3 * repeats
    assert collector.stages["audit"].calls == 3 * repeats

    plain_rps, profiled_rps = repeats / plain_s, repeats / profiled_s
    overhead_pct = (plain_s and (profiled_s / plain_s - 1.0) * 100.0)
    reporter("Hot paths — profiling overhead on parse+extract+audit", [
        f"unprofiled {plain_rps:.1f} rec/s, profiled {profiled_rps:.1f} rec/s "
        f"(overhead {overhead_pct:+.1f}%)",
        f"collected: {collector.summary_line()}",
    ], data={
        "config": {"groups": 60, "repeats": repeats},
        "unprofiled_rps": plain_rps,
        "profiled_rps": profiled_rps,
        "profile_overhead_pct": overhead_pct,
        "perf": collector.as_dict(),
    })
