"""Command-line interface.

Four subcommands cover the common workflows:

``langcrux build``
    Run the full pipeline over the synthetic web and write the dataset as
    JSON Lines.

``langcrux analyze``
    Print the Table 2 element statistics and the per-country filtering and
    language-mix breakdowns for an existing dataset file.

``langcrux mismatch``
    Print the per-country mismatch summary (Figure 5 headline numbers) and a
    few concrete Table 5 style examples.

``langcrux kizuki``
    Re-score sites with the language-aware image-alt audit and print the
    before/after distribution summary (Figure 6).

``langcrux report``
    Render the full set of figures (text charts) and Tables 1–2 for a dataset
    into a report file.

``langcrux export``
    Export per-country and per-site summaries as JSON — the data layer of the
    paper's interactive dataset explorer.

``langcrux serve``
    Serve the synthetic web over real HTTP on a loopback socket
    (:class:`~repro.webgen.server.LocalSiteServer`), so a separate
    ``langcrux build --transport http --http-gateway HOST:PORT`` crawls it
    through genuine sockets — the live-server demo of the transport
    subsystem.

``langcrux dist-build``
    Build a dataset with a file-based work-queue coordinator and N
    independent worker processes sharing one crawl cache
    (:mod:`repro.dist`).  The default role plans the build, spawns
    ``--workers`` local workers and merges their window results in rank
    order — byte-identical output to a single-host ``build``; ``--role
    worker`` joins an existing queue directory (multi-host mode: start
    workers on any machine that shares the queue and cache directories).

``langcrux cache-compact``
    Fold a crawl cache's accumulated per-writer manifests into one
    compacted manifest and sweep orphaned body files.

``langcrux api``
    Serve a built dataset as a JSON analytics API
    (:class:`~repro.api.server.AnalyticsServer`): the dataset is streamed
    once into in-memory aggregates and ``/analyze``, ``/mismatch``,
    ``/kizuki`` and the explorer endpoints answer from them — with response
    caching, ETag revalidation, bounded worker concurrency, structured
    access logs and a Prometheus ``/metrics`` exposition.

``langcrux trace``
    Reassemble the per-process trace files a traced run (``build
    --trace-dir`` / ``dist-build --trace``) wrote into one span tree —
    coordinator and workers joined by trace-id propagation — and print it
    with per-span durations plus the critical path (:mod:`repro.obs.tree`).

``langcrux status``
    Read the heartbeat snapshots the participants of a (possibly still
    running) build drop next to their queue/trace directory and print a
    fleet table: liveness by snapshot age, windows claimed/committed,
    records streamed, cache hit rate, peak RSS (:mod:`repro.obs.status`).

The ``analyze`` / ``mismatch`` / ``kizuki`` subcommands also take ``--json``
to emit the exact JSON document the API serves for the same dataset; the
parity test suite pins the two byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro import perf
from repro.core.analysis import (
    element_statistics,
    uninformative_rate_by_country,
)
from repro.core.dataset import LangCrUXDataset
from repro.core.executor import EXECUTOR_KINDS
from repro.core.kizuki import rescore_dataset
from repro.core.language_mix import classify_texts
from repro.core.mismatch import mismatch_examples, mismatch_summary
from repro.core.pipeline import (
    CrawlFailedError,
    LangCrUXPipeline,
    PipelineConfig,
    TRANSPORT_KINDS,
    build_web_for_config,
)
from repro.langid.languages import langcrux_country_codes
from repro.obs.log import get_logger

LOG = get_logger("cli")


def _positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return count


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return number


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langcrux",
        description="LangCrUX + Kizuki reproduction pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build = subparsers.add_parser("build", help="build a dataset over the synthetic web")
    build.add_argument("--output", type=Path, default=Path("langcrux.jsonl"),
                       help="output JSONL path (default: langcrux.jsonl)")
    build.add_argument("--sites-per-country", type=int, default=30,
                       help="selection quota per country (default: 30)")
    build.add_argument("--countries", nargs="*", default=None,
                       help="country codes to include (default: all twelve)")
    build.add_argument("--seed", type=int, default=7, help="synthetic web seed")
    build.add_argument("--no-vpn", action="store_true",
                       help="crawl from a cloud vantage instead of country VPN exits")
    build.add_argument("--workers", type=_positive_int, default=1,
                       help="selection windows evaluated concurrently (a country "
                            "is one window unless --sub-shard-size splits it); "
                            "any worker count produces byte-identical output "
                            "(default: 1)")
    build.add_argument("--executor", choices=EXECUTOR_KINDS, default="auto",
                       help="execution backend: 'auto' picks serial for one worker "
                            "and a process pool otherwise (default: auto)")
    build.add_argument("--max-in-flight", type=_positive_int, default=1,
                       help="concurrent candidate fetches per country shard via the "
                            "async batched fetch layer; any value produces "
                            "byte-identical output (default: 1)")
    build.add_argument("--sub-shard-size", type=_positive_int, default=None,
                       help="split each country's candidate walk into windows of "
                            "this many candidates so one country can use every "
                            "worker; windows are evaluated speculatively but "
                            "committed in rank order, so any value produces "
                            "byte-identical output (default: one window per country)")
    build.add_argument("--stream-output", type=Path, default=None,
                       help="stream records to this JSONL as windows commit instead "
                            "of writing --output after the run; the file is "
                            "committed atomically and is byte-identical to the "
                            "in-memory write")
    build.add_argument("--transport", choices=TRANSPORT_KINDS, default="simulated",
                       help="'simulated' crawls the in-memory synthetic web; 'http' "
                            "crawls over real sockets — point --http-gateway at a "
                            "'langcrux serve' instance; both produce byte-identical "
                            "datasets for the same web (default: simulated)")
    build.add_argument("--http-gateway", default=None, metavar="HOST:PORT",
                       help="address every origin resolves to with --transport http "
                            "(a live LocalSiteServer); omit to connect to each "
                            "origin's own host")
    build.add_argument("--crawl-cache", type=Path, default=None, metavar="DIR",
                       help="on-disk crawl cache directory: a re-run replays every "
                            "already-fetched response from disk (zero network "
                            "fetches on a warm cache) and yields identical output")
    build.add_argument("--rate-limit", type=_positive_float, default=None,
                       metavar="REQ_PER_S",
                       help="per-host request rate enforced by the politeness layer")
    build.add_argument("--max-per-host", type=_positive_int, default=None,
                       help="per-host concurrent-request cap of the politeness layer")
    build.add_argument("--profile", action="store_true",
                       help="collect per-stage timings and op counters in every "
                            "shard worker and print the per-stage table after the "
                            "build; the dataset bytes are identical either way")
    build.add_argument("--profile-dump", type=Path, default=None, metavar="PATH",
                       help="additionally run the build under cProfile and dump "
                            "the stats to PATH (inspect with pstats or snakeviz); "
                            "implies --profile")
    build.add_argument("--trace-dir", type=Path, default=None, metavar="DIR",
                       help="write structured span/event trace files (one JSONL "
                            "per process) and live status snapshots under DIR; "
                            "inspect with 'langcrux trace DIR'; the dataset "
                            "bytes are identical either way")

    dist = subparsers.add_parser(
        "dist-build",
        help="build a dataset with a work-queue coordinator + worker processes")
    dist.add_argument("--queue-dir", type=Path, required=True, metavar="DIR",
                      help="shared queue directory (the only coordination "
                           "channel; put it on a shared mount for multi-host)")
    dist.add_argument("--role", choices=("coordinator", "worker"),
                      default="coordinator",
                      help="'coordinator' plans, spawns --workers local workers "
                           "and merges; 'worker' joins an existing queue "
                           "(default: coordinator)")
    dist.add_argument("--output", type=Path, default=Path("langcrux.jsonl"),
                      help="output JSONL path (default: langcrux.jsonl)")
    dist.add_argument("--workers", type=int, default=2,
                      help="local worker processes to spawn; 0 spawns none — "
                           "start workers elsewhere with --role worker "
                           "(default: 2)")
    dist.add_argument("--sites-per-country", type=int, default=30,
                      help="selection quota per country (default: 30)")
    dist.add_argument("--countries", nargs="*", default=None,
                      help="country codes to include (default: all twelve)")
    dist.add_argument("--seed", type=int, default=7, help="synthetic web seed")
    dist.add_argument("--no-vpn", action="store_true",
                      help="crawl from a cloud vantage instead of country VPN exits")
    dist.add_argument("--sub-shard-size", type=_positive_int, default=10,
                      help="candidates per window — the unit of distribution "
                           "(default: 10)")
    dist.add_argument("--max-in-flight", type=_positive_int, default=1,
                      help="concurrent candidate fetches within each window "
                           "(default: 1)")
    dist.add_argument("--transport", choices=TRANSPORT_KINDS, default="simulated",
                      help="'simulated' or 'http' (see 'build'; default: simulated)")
    dist.add_argument("--http-gateway", default=None, metavar="HOST:PORT",
                      help="address every origin resolves to with --transport http")
    dist.add_argument("--crawl-cache", type=Path, default=None, metavar="DIR",
                      help="shared crawl-cache directory; re-issued windows "
                           "replay completed fetches from it "
                           "(default: QUEUE_DIR/crawl-cache)")
    dist.add_argument("--lease-timeout", type=_positive_float, default=10.0,
                      metavar="SECONDS",
                      help="heartbeat age after which a worker's window lease "
                           "is considered dead and re-issued (default: 10)")
    dist.add_argument("--profile", action="store_true",
                      help="collect per-worker stage timings/counters and "
                           "coordinator queue counters; print the merged table")
    dist.add_argument("--trace", action="store_true",
                      help="trace the build: the coordinator stamps a trace id "
                           "into build.json, every worker joins it, and "
                           "QUEUE_DIR/trace holds one span file per process "
                           "(see 'langcrux trace')")
    dist.add_argument("--trace-dir", type=Path, default=None, metavar="DIR",
                      help="where traced runs write their span files "
                           "(default: QUEUE_DIR/trace; implies --trace)")

    trace = subparsers.add_parser(
        "trace", help="reassemble a traced run's span files into one tree")
    trace.add_argument("trace_dir", type=Path, metavar="DIR",
                       help="a trace directory, or a directory containing one "
                            "(e.g. a dist-build --trace queue dir)")
    trace.add_argument("--min-ms", type=float, default=0.0,
                       help="hide non-root spans shorter than this many "
                            "milliseconds (default: 0, show everything)")
    trace.add_argument("--depth", type=int, default=None,
                       help="maximum tree depth to print (default: unlimited)")

    status = subparsers.add_parser(
        "status", help="show live heartbeat status of a (running) build")
    status.add_argument("--queue-dir", type=Path, required=True, metavar="DIR",
                        help="the run's queue or trace directory (wherever its "
                             "status/ snapshots land)")

    compact = subparsers.add_parser(
        "cache-compact",
        help="fold a crawl cache's manifests into one and sweep orphaned bodies")
    compact.add_argument("cache_dir", type=Path, metavar="DIR",
                         help="crawl-cache directory to compact (no readers or "
                              "writers may be active)")
    compact.add_argument("--no-sweep", action="store_true",
                         help="fold manifests only; keep unreferenced body files")

    analyze = subparsers.add_parser("analyze", help="print Table 2 style statistics")
    analyze.add_argument("dataset", type=Path, help="dataset JSONL produced by 'build'")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON (byte-identical to the API's "
                              "/analyze endpoint)")

    mismatch = subparsers.add_parser("mismatch", help="print the mismatch summary and examples")
    mismatch.add_argument("dataset", type=Path)
    mismatch.add_argument("--examples", type=int, default=5, help="number of examples to print")
    mismatch.add_argument("--json", action="store_true",
                          help="emit the report as JSON (byte-identical to the API's "
                               "/mismatch endpoint)")

    kizuki = subparsers.add_parser("kizuki", help="re-score with the language-aware audit")
    kizuki.add_argument("dataset", type=Path)
    kizuki.add_argument("--countries", nargs="*", default=["bd", "th"],
                        help="countries to re-score (default: bd th)")
    kizuki.add_argument("--json", action="store_true",
                        help="emit the report as JSON (byte-identical to the API's "
                             "/kizuki endpoint)")

    report = subparsers.add_parser("report", help="render tables and figures to a text report")
    report.add_argument("dataset", type=Path)
    report.add_argument("--output", type=Path, default=Path("langcrux_report.txt"),
                        help="report path (default: langcrux_report.txt)")

    export = subparsers.add_parser("export", help="export explorer JSON summaries")
    export.add_argument("dataset", type=Path)
    export.add_argument("--output", type=Path, default=Path("langcrux_summary.json"),
                        help="JSON path (default: langcrux_summary.json)")
    export.add_argument("--no-sites", action="store_true",
                        help="omit per-site rows, keep country aggregates only")

    serve = subparsers.add_parser(
        "serve", help="serve the synthetic web over real loopback HTTP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1; keep it loopback)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to bind; 0 picks a free ephemeral port (default: 0)")
    serve.add_argument("--seed", type=int, default=7, help="synthetic web seed")
    serve.add_argument("--countries", nargs="*", default=None,
                       help="country codes to include (default: all twelve)")
    serve.add_argument("--sites-per-country", type=int, default=30,
                       help="selection quota the served candidate pool is sized for "
                            "(match the build you will run against it; default: 30)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds then exit (default: until "
                            "interrupted)")

    api = subparsers.add_parser(
        "api", help="serve a built dataset as a JSON analytics API")
    api.add_argument("dataset", type=Path, help="dataset JSONL produced by 'build'")
    api.add_argument("--host", default="127.0.0.1",
                     help="interface to bind (default: 127.0.0.1; keep it loopback)")
    api.add_argument("--port", type=int, default=0,
                     help="port to bind; 0 picks a free ephemeral port (default: 0)")
    api.add_argument("--max-workers", type=_positive_int, default=8,
                     help="concurrently handled requests (default: 8)")
    api.add_argument("--cache-size", type=_positive_int, default=256,
                     help="response cache entries (default: 256)")
    api.add_argument("--skip-corrupt", action="store_true",
                     help="skip corrupt dataset lines at load instead of failing")
    api.add_argument("--no-reload", action="store_true",
                     help="don't watch the dataset file for changes")
    api.add_argument("--duration", type=float, default=None,
                     help="serve for this many seconds then exit (default: until "
                          "interrupted)")

    return parser


def _cmd_build(args: argparse.Namespace) -> int:
    countries = tuple(args.countries) if args.countries else langcrux_country_codes()
    config = PipelineConfig(
        countries=countries,
        sites_per_country=args.sites_per_country,
        seed=args.seed,
        use_vpn=not args.no_vpn,
        workers=args.workers,
        executor=args.executor,
        max_in_flight=args.max_in_flight,
        sub_shard_size=args.sub_shard_size,
        transport=args.transport,
        http_gateway=args.http_gateway,
        crawl_cache=str(args.crawl_cache) if args.crawl_cache is not None else None,
        rate_limit=args.rate_limit,
        max_per_host=args.max_per_host,
        profile=args.profile or args.profile_dump is not None,
        trace_dir=str(args.trace_dir) if args.trace_dir is not None else None,
    )

    def _run():
        if args.stream_output is not None:
            # Streaming builds don't retain records in memory: the streamed
            # file is the dataset, and the analysis subcommands load from
            # disk anyway.
            return LangCrUXPipeline(config).run(stream_to=args.stream_output,
                                                keep_in_memory=False)
        return LangCrUXPipeline(config).run()

    try:
        if args.profile_dump is not None:
            import cProfile

            profiler = cProfile.Profile()
            result = profiler.runcall(_run)
            profiler.dump_stats(args.profile_dump)
        else:
            result = _run()
    except CrawlFailedError as error:
        LOG.error(f"build failed: {error}")
        return 1
    if args.stream_output is not None:
        print(f"streamed {result.streamed_records} site records to {args.stream_output}")
        memory = perf.memory_gauges()
        peak_rss_kb = memory.get("mem.peak_rss_kb")
        if peak_rss_kb is not None:
            print(f"  peak RSS: {peak_rss_kb / 1024.0:.1f} MiB")
        if result.time_to_first_record_s is not None:
            print(f"  first record on disk after {result.time_to_first_record_s:.3f}s"
                  f" (record-buffer high-water {result.record_buffer_peak})")
    else:
        count = result.dataset.save_jsonl(args.output)
        print(f"wrote {count} site records to {args.output}")
    for country, outcome in sorted(result.selection_outcomes.items()):
        print(f"  {country}: selected {len(outcome.selected)}/{outcome.quota}"
              f" (replaced {outcome.replacement_count}, examined {outcome.candidates_examined})")
    if args.workers > 1:
        shards = len(result.shard_metrics)
        sub_shards = sum(metric.sub_shards for metric in result.shard_metrics.values())
        shard_note = (f" {shards} shards ({sub_shards} sub-shards)"
                      if args.sub_shard_size is not None else f" {shards} shards")
        print(f"  shard wall-clock: {result.total_shard_seconds():.2f}s across"
              f"{shard_note}"
              f" ({result.executor_workers} workers, {result.executor_name} executor)")
    if result.transport_metrics is not None:
        for line in result.transport_metrics.summary_lines():
            print(f"  transport: {line}")
    if result.perf_metrics is not None:
        print(f"  perf: {result.perf_metrics.summary_line()}")
        for line in result.perf_metrics.table_lines():
            print(f"  {line}")
    if args.profile_dump is not None:
        print(f"  wrote cProfile stats to {args.profile_dump}")
    if args.trace_dir is not None:
        print(f"  trace written under {args.trace_dir}"
              f" (inspect with: langcrux trace {args.trace_dir})")
    return 0


def _cmd_dist_build(args: argparse.Namespace) -> int:
    from repro.dist import Coordinator, CrawlWorker, DistBuildError

    if args.role == "worker":
        stats = CrawlWorker(str(args.queue_dir)).run()
        print(f"worker {stats.worker}: {stats.windows_executed} windows"
              f" ({stats.claim_conflicts} claim conflicts,"
              f" {stats.idle_s:.1f}s idle)")
        return 0
    if args.workers < 0:
        LOG.error("--workers must be >= 0", workers=args.workers)
        return 2
    countries = tuple(args.countries) if args.countries else langcrux_country_codes()
    crawl_cache = args.crawl_cache if args.crawl_cache is not None \
        else args.queue_dir / "crawl-cache"
    trace_dir = args.trace_dir
    if trace_dir is None and args.trace:
        trace_dir = args.queue_dir / "trace"
    config = PipelineConfig(
        countries=countries,
        sites_per_country=args.sites_per_country,
        seed=args.seed,
        use_vpn=not args.no_vpn,
        max_in_flight=args.max_in_flight,
        sub_shard_size=args.sub_shard_size,
        transport=args.transport,
        http_gateway=args.http_gateway,
        crawl_cache=str(crawl_cache),
        profile=args.profile,
        trace_dir=str(trace_dir) if trace_dir is not None else None,
    )
    coordinator = Coordinator(config, args.queue_dir, args.output,
                              workers=args.workers,
                              lease_timeout_s=args.lease_timeout)
    try:
        result = coordinator.run()
    except (DistBuildError, CrawlFailedError) as error:
        LOG.error(f"distributed build failed: {error}")
        return 1
    print(f"streamed {result.streamed_records} site records to {args.output}")
    for country, outcome in sorted(result.selection_outcomes.items()):
        print(f"  {country}: selected {len(outcome.selected)}/{outcome.quota}"
              f" (replaced {outcome.replacement_count},"
              f" examined {outcome.candidates_examined})")
    print(f"  windows: {result.windows_merged}/{result.windows_planned} merged,"
          f" {result.windows_reissued} re-issued, {result.results_torn} torn"
          f" ({result.workers_spawned} workers spawned,"
          f" {result.worker_restarts} restarts)")
    if result.transport_metrics is not None:
        for line in result.transport_metrics.summary_lines():
            print(f"  transport: {line}")
    if result.perf_metrics is not None:
        for line in result.perf_metrics.table_lines():
            print(f"  {line}")
    return 0


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    from repro.crawler.transport import compact_cache

    if not args.cache_dir.is_dir():
        LOG.error(f"{args.cache_dir} is not a directory")
        return 2
    stats = compact_cache(args.cache_dir, sweep_orphans=not args.no_sweep)
    for line in stats.summary_lines():
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.webgen.server import LocalSiteServer

    countries = tuple(args.countries) if args.countries else langcrux_country_codes()
    config = PipelineConfig(countries=countries,
                            sites_per_country=args.sites_per_country,
                            seed=args.seed)
    web, _crux = build_web_for_config(config)
    with LocalSiteServer(web, host=args.host, port=args.port) as server:
        print(f"serving {len(web)} synthetic origins on http://{server.gateway}")
        print(f"crawl it with: langcrux build --transport http "
              f"--http-gateway {server.gateway} --seed {args.seed}"
              f" --sites-per-country {args.sites_per_country}"
              + (f" --countries {' '.join(countries)}" if args.countries else ""))
        try:
            if args.duration is not None:
                _time.sleep(args.duration)
            else:  # pragma: no cover - interactive mode
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    return 0


def _load_aggregates(path: Path):
    """Load a dataset into API aggregates, exiting 2 on a corrupt file."""
    from repro.api.aggregates import DatasetAggregates, DatasetLoadError

    try:
        return DatasetAggregates.load(path)
    except DatasetLoadError as error:
        LOG.error(str(error))
        raise SystemExit(2)


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.json:
        from repro.api.aggregates import render_json

        print(render_json(_load_aggregates(args.dataset).analyze_payload()))
        return 0
    dataset = LangCrUXDataset.load_jsonl(args.dataset)
    print(f"dataset: {len(dataset)} sites across {len(dataset.countries())} countries")
    print()
    print(f"{'element':<20}{'missing%':>10}{'empty%':>10}{'len':>8}{'words':>8}")
    for element_id, row in element_statistics(dataset).items():
        print(f"{element_id:<20}{row.missing_pct.mean:>10.2f}{row.empty_pct.mean:>10.2f}"
              f"{row.text_length.mean:>8.1f}{row.word_count.mean:>8.2f}")
    print()
    print("uninformative accessibility text share per country:")
    for country, rate in sorted(uninformative_rate_by_country(dataset).items()):
        print(f"  {country}: {rate * 100:.1f}%")
    print()
    print("language mix of informative accessibility texts per country:")
    for country in dataset.countries():
        texts: list[str] = []
        language = None
        for record in dataset.for_country(country):
            texts.extend(record.informative_texts())
            language = record.language_code
        if not texts or language is None:
            continue
        mix = classify_texts(texts, language).proportions()
        print(f"  {country}: native {mix['native'] * 100:.1f}%  english {mix['english'] * 100:.1f}%"
              f"  mixed {mix['mixed'] * 100:.1f}%")
    return 0


def _cmd_mismatch(args: argparse.Namespace) -> int:
    if args.json:
        from repro.api.aggregates import render_json

        print(render_json(_load_aggregates(args.dataset)
                          .mismatch_payload(examples=args.examples)))
        return 0
    dataset = LangCrUXDataset.load_jsonl(args.dataset)
    print("fraction of sites with <10% native accessibility text:")
    for country, fraction in sorted(mismatch_summary(dataset).items()):
        print(f"  {country}: {fraction * 100:.1f}%")
    examples = mismatch_examples(dataset, limit=args.examples)
    if examples:
        print()
        print("examples (native visible content, English accessibility text):")
        for example in examples:
            print(f"  {example.domain} [{example.country_code}] visible native"
                  f" {example.visible_native_pct:.0f}%, accessibility native"
                  f" {example.accessibility_native_pct:.0f}%")
            for text in example.sample_alt_texts:
                preview = text if len(text) <= 80 else text[:77] + "..."
                print(f"    alt: {preview}")
    return 0


def _cmd_kizuki(args: argparse.Namespace) -> int:
    if args.json:
        from repro.api.aggregates import render_json

        payload = _load_aggregates(args.dataset).kizuki_payload(tuple(args.countries))
        print(render_json(payload))
        return 0 if payload["sites"] else 1
    dataset = LangCrUXDataset.load_jsonl(args.dataset)
    summary = rescore_dataset(dataset, tuple(args.countries))
    if summary.sites == 0:
        print("no eligible sites (all fail the original image-alt audit)")
        return 1
    print(f"re-scored {summary.sites} sites from {', '.join(args.countries)}")
    print(f"  score > 90:  {summary.fraction_above(90, new=False) * 100:5.1f}%  ->"
          f"  {summary.fraction_above(90, new=True) * 100:5.1f}%")
    print(f"  score = 100: {summary.fraction_perfect(new=False) * 100:5.1f}%  ->"
          f"  {summary.fraction_perfect(new=True) * 100:5.1f}%")
    return 0


def _cmd_api(args: argparse.Namespace) -> int:
    import time as _time

    from repro.api.aggregates import DatasetLoadError
    from repro.api.server import AnalyticsServer

    try:
        server = AnalyticsServer(args.dataset, host=args.host, port=args.port,
                                 max_workers=args.max_workers,
                                 cache_size=args.cache_size,
                                 skip_corrupt=args.skip_corrupt,
                                 auto_reload=not args.no_reload)
    except DatasetLoadError as error:
        LOG.error(str(error))
        return 2
    with server:
        aggregates = server.service.aggregates
        print(f"serving {aggregates.site_count} sites"
              f" ({len(aggregates.countries())} countries)"
              f" from {args.dataset} on http://{server.gateway}")
        if aggregates.skipped_records:
            print(f"  skipped {aggregates.skipped_records} corrupt records at load")
        print(f"  try: curl http://{server.gateway}/analyze")
        try:
            if args.duration is not None:
                _time.sleep(args.duration)
            else:  # pragma: no cover - interactive mode
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tree import assemble_trace, load_trace_records

    if not args.trace_dir.is_dir():
        LOG.error(f"{args.trace_dir} is not a directory")
        return 2
    records = load_trace_records(args.trace_dir)
    tree = assemble_trace(records)
    if tree is None or tree.span_count == 0:
        LOG.error(f"no trace records under {args.trace_dir}"
                  " (was the run started with --trace / --trace-dir?)")
        return 1
    for line in tree.render_lines(min_duration_s=args.min_ms / 1000.0,
                                  max_depth=args.depth):
        print(line)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.obs.status import queue_progress, read_statuses, render_status_lines

    if not args.queue_dir.is_dir():
        LOG.error(f"{args.queue_dir} is not a directory")
        return 2
    snapshots = read_statuses(args.queue_dir)
    progress = queue_progress(args.queue_dir)
    for line in render_status_lines(snapshots, progress=progress):
        print(line)
    return 0 if snapshots or progress is not None else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report.figures import render_all_figures
    from repro.report.tables import render_table1, render_table2

    dataset = LangCrUXDataset.load_jsonl(args.dataset)
    sections = [render_table1(), render_table2(dataset), render_all_figures(dataset)]
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text("\n\n\n".join(sections), encoding="utf-8")
    print(f"wrote report for {len(dataset)} sites to {args.output}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.report.export import write_dataset_summary

    dataset = LangCrUXDataset.load_jsonl(args.dataset)
    path = write_dataset_summary(dataset, args.output, include_sites=not args.no_sites)
    print(f"exported {len(dataset)} sites to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "dist-build": _cmd_dist_build,
        "cache-compact": _cmd_cache_compact,
        "analyze": _cmd_analyze,
        "mismatch": _cmd_mismatch,
        "kizuki": _cmd_kizuki,
        "report": _cmd_report,
        "export": _cmd_export,
        "serve": _cmd_serve,
        "api": _cmd_api,
        "trace": _cmd_trace,
        "status": _cmd_status,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # `langcrux <cmd> | head` closed the pipe mid-print; redirect
        # stdout at the devnull so the interpreter's shutdown flush does
        # not raise a second time, and exit as the consumer intended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - direct execution convenience
    sys.exit(main())
