"""Window-result payloads: what a worker ships and a coordinator merges.

A result file carries everything the coordinator's rank-ordered merge
needs and nothing it does not:

* per-candidate evaluation facts (entry, native share, fetch verdict) and
  the *slimmed* crawl record (page HTML stripped — the committer never
  reads it, and the resulting :class:`SelectedSite`\\ s match what a
  single-host streaming run retains after
  :func:`~repro.core.pipeline.slim_selection_outcome`);
* for every would-qualify candidate, the site record **pre-serialized to
  its exact JSONL line** (``json.dumps(record.to_dict(),
  ensure_ascii=False)`` — byte-identical to what
  :meth:`~repro.core.dataset.StreamingDatasetWriter.write` emits), so the
  coordinator streams accepted lines verbatim and the distributed file is
  byte-identical to the single-host one without ever rebuilding a
  :class:`~repro.core.dataset.SiteRecord`;
* the window's transport metrics and (under ``profile=True``) perf
  counters, with the worker's peak-memory gauges folded in so the
  coordinator's ``max``-merge surfaces the hungriest worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from repro import perf
from repro.core.pipeline import SelectionSubShard, SelectionSubShardResult
from repro.core.site_selection import CandidateEvaluation
from repro.crawler.metrics import TransportMetrics
from repro.crawler.records import CrawlRecord
from repro.webgen.crux import CruxEntry


def encode_window_result(result: SelectionSubShardResult, *, worker: str,
                         duration_s: float) -> dict:
    """Serialize one window's evaluation for its result file."""
    evaluations = []
    for evaluation, record in zip(result.evaluations, result.records):
        crawl = evaluation.record
        if any(page.html for page in crawl.pages):
            crawl = replace(crawl, pages=[replace(page, html="")
                                          for page in crawl.pages])
        evaluations.append({
            "entry": {"origin": evaluation.entry.origin,
                      "rank": evaluation.entry.rank,
                      "country_code": evaluation.entry.country_code},
            "native_share": evaluation.native_share,
            "fetch_succeeded": bool(evaluation.fetch_succeeded),
            "crawl": crawl.to_dict(),
            "record_line": (json.dumps(record.to_dict(), ensure_ascii=False)
                            if record is not None else None),
        })
    transport = result.transport_metrics
    counters = result.perf_metrics
    return {
        "window": {"country_code": result.spec.country_code,
                   "chunk_index": result.spec.chunk_index,
                   "start": result.spec.start, "stop": result.spec.stop},
        "worker": worker,
        "duration_s": duration_s,
        "evaluations": evaluations,
        "transport_metrics": transport.as_dict() if transport is not None else None,
        "perf_metrics": counters.as_dict() if counters is not None else None,
        # The window span's identity (trace/span/parent ids) when the
        # worker traced the evaluation — the coordinator and `langcrux
        # trace` use it to join worker spans into the build's tree.
        "trace_span": result.trace_span,
    }


@dataclass
class DecodedWindowResult(SelectionSubShardResult):
    """A result file rebuilt for the merge.

    ``records`` holds each would-qualify candidate's serialized record
    line (``None`` for the others), which the merge writes verbatim.
    """

    worker: str = ""
    duration_s: float = 0.0


def decode_window_result(payload: dict) -> DecodedWindowResult:
    """Rebuild a :func:`encode_window_result` payload."""
    window = payload["window"]
    spec = SelectionSubShard(country_code=window["country_code"],
                             chunk_index=window["chunk_index"],
                             start=window["start"], stop=window["stop"])
    evaluations: list[CandidateEvaluation] = []
    record_lines: list[str | None] = []
    for item in payload["evaluations"]:
        entry = CruxEntry(origin=item["entry"]["origin"],
                          rank=item["entry"]["rank"],
                          country_code=item["entry"]["country_code"])
        evaluations.append(CandidateEvaluation(
            entry=entry,
            record=CrawlRecord.from_dict(item["crawl"]),
            native_share=item["native_share"],
            fetch_succeeded=item["fetch_succeeded"]))
        record_lines.append(item["record_line"])
    transport = payload.get("transport_metrics")
    transport_metrics = None
    if transport is not None:
        transport_metrics = TransportMetrics()
        for name, value in transport.items():
            if hasattr(transport_metrics, name):
                setattr(transport_metrics, name, value)
    counters = payload.get("perf_metrics")
    return DecodedWindowResult(
        spec=spec,
        worker=payload.get("worker", ""),
        duration_s=payload.get("duration_s", 0.0),
        evaluations=evaluations,
        records=record_lines,
        transport_metrics=transport_metrics,
        perf_metrics=(perf.PerfCounters.from_dict(counters)
                      if counters is not None else None),
        trace_span=payload.get("trace_span"),
    )
