"""Scaling — single-pass DocumentIndex vs naive per-rule traversal.

Auditing and extracting one page used to cost ~25 full DOM walks: every
audit rule re-ran ``find_all`` over the whole tree, accessible-name
computation rescanned every ``<label>`` per form control (O(n²) on
form-heavy pages), and extraction repeated the same walks again.  The
:class:`~repro.html.index.DocumentIndex` collapses all of that into one
depth-first pass per page plus bucket lookups and memo hits.

This harness builds synthetic pages of increasing size (with the
label-per-control shape that triggers the quadratic path), then runs the
full per-page audit+extraction stage — the pipeline's CPU-bound inner loop —
through both access paths and reports records-per-second.  The naive path
is the ``NaiveDocumentAccessor`` test oracle (``tests/document_index_oracle.py``),
handed to the same entry points in place of the document.  Results must be
identical; the indexed path must be at least ``TARGET_SPEEDUP`` times faster
on the large page.

Set ``LANGCRUX_BENCH_ASSERT_SPEEDUP=0`` to demote the throughput target to a
report-only line (CI does this: shared runners are too noisy for a
wall-clock gate) — result parity is always asserted.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.audit.engine import AuditEngine
from repro.core.extraction import extract_page
from repro.html.parser import parse_html

# The naive reference is a test oracle, kept next to its parity suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from document_index_oracle import NaiveDocumentAccessor  # noqa: E402

#: (name, element groups) — each group adds a paragraph, an image, a link,
#: a labelled input and a button, so page size scales linearly while the
#: label/control ratio (the quadratic trigger) stays constant.
PAGE_SIZES = (("small", 10), ("medium", 60), ("large", 200))

#: Minimum indexed/naive audit+extraction throughput ratio on the large
#: page (the acceptance floor for this refactor is 3x; measured locally at
#: well above that, the margin absorbs machine noise).
TARGET_SPEEDUP = 3.0


def _page_markup(groups: int) -> str:
    parts = ["<html lang='th'><head><title>benchmark page</title></head><body>"]
    for i in range(groups):
        parts.append(f"<p>ข้อความจำนวน {i} paragraph text with several words</p>")
        parts.append(f"<img src='/i{i}.jpg' alt='คำอธิบายภาพ {i}'>")
        parts.append(f"<a href='/page{i}'>ลิงก์ {i}</a>")
        parts.append(f"<label for='field{i}'>ช่อง {i}</label>"
                     f"<input type='text' id='field{i}' name='field{i}'>")
        parts.append(f"<button aria-labelledby='field{i}'>ปุ่ม</button>")
    parts.append("</body></html>")
    return "".join(parts)


def _run_stage(markup: str, engine: AuditEngine, use_index: bool,
               repeats: int) -> tuple[float, list]:
    """Time ``repeats`` full audit+extraction passes; return (seconds, results)."""
    results = []
    started = time.perf_counter()
    for _ in range(repeats):
        document = parse_html(markup, url="https://bench.example.th/")
        context = document if use_index else NaiveDocumentAccessor(document)
        extraction = extract_page(context)
        report = engine.audit_document(context)
        results.append((extraction, report.to_dict()))
    return time.perf_counter() - started, results


def test_document_index_throughput(reporter) -> None:
    engine = AuditEngine()
    lines = []
    large_speedup = 0.0
    for name, groups in PAGE_SIZES:
        markup = _page_markup(groups)
        # Keep total wall-clock bounded: fewer repeats on bigger pages.
        repeats = max(2, 60 // groups + 1)
        naive_s, naive_results = _run_stage(markup, engine, False, repeats)
        indexed_s, indexed_results = _run_stage(markup, engine, True, repeats)

        # The index is a pure access-path change: identical outputs.
        assert indexed_results == naive_results

        naive_rps = repeats / naive_s
        indexed_rps = repeats / indexed_s
        speedup = indexed_rps / naive_rps
        if name == "large":
            large_speedup = speedup
        lines.append(
            f"{name} ({groups * 6 + 4} elements): naive {naive_rps:.1f} rec/s, "
            f"indexed {indexed_rps:.1f} rec/s (speedup {speedup:.2f}x)")
    lines.append(f"target: >= {TARGET_SPEEDUP:.0f}x audit+extraction records/s "
                 f"on the large page")
    reporter("Scaling — naive vs indexed audit+extraction", lines, data={
        "config": {"page_sizes": [name for name, _ in PAGE_SIZES]},
        "large_page_speedup": large_speedup,
        "target_speedup": TARGET_SPEEDUP,
    })

    if os.environ.get("LANGCRUX_BENCH_ASSERT_SPEEDUP", "1") != "0":
        assert large_speedup >= TARGET_SPEEDUP, (
            f"indexed audit+extraction reached {large_speedup:.2f}x on the "
            f"large page, expected >= {TARGET_SPEEDUP}x")
