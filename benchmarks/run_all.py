#!/usr/bin/env python
"""Run every benchmark harness and summarize the machine-readable results.

Each ``benchmarks/bench_*.py`` run through pytest emits a
``benchmarks/results/BENCH_<name>.json`` (see ``benchmarks/conftest.py``);
this driver runs them all and prints one line per benchmark with the key
throughput numbers, so the repo's performance trajectory can be eyeballed —
or diffed across PRs from the uploaded CI artifacts.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # run + summarize
    PYTHONPATH=src python benchmarks/run_all.py --summary  # summarize only
    PYTHONPATH=src python benchmarks/run_all.py bench_async_fetch.py ...

Exit code is pytest's (0 when every harness passed), or 0 with
``--summary``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"

#: data keys surfaced in the summary table, in display order.
HEADLINE_KEYS = ("sequential_rps", "batched_rps", "process_rps",
                 "subsharded_rps", "cached_rps", "speedup",
                 "process_speedup", "large_page_speedup", "script_speedup",
                 "ngram_speedup", "profile_overhead_pct", "target_speedup")


def run_benchmarks(selected: list[str]) -> int:
    import pytest

    # Pass bench files explicitly: there is no pytest config renaming the
    # collection pattern, so a bare directory target would collect nothing
    # (``bench_*.py`` does not match the default ``test_*.py``).
    targets = [str(BENCH_DIR / name) for name in selected] if selected \
        else sorted(str(path) for path in BENCH_DIR.glob("bench_*.py"))
    return pytest.main(["-q", *targets])


def summarize() -> None:
    payloads = sorted(RESULTS_DIR.glob("BENCH_*.json"))
    if not payloads:
        print("no BENCH_*.json results found; run the benchmarks first")
        return
    print(f"{'benchmark':<28}{'headline numbers'}")
    for path in payloads:
        payload = json.loads(path.read_text(encoding="utf-8"))
        parts: list[str] = []
        for block in payload.get("blocks", []):
            data = block.get("data")
            if not data:
                continue
            for key in HEADLINE_KEYS:
                if key in data and data[key] is not None:
                    value = data[key]
                    parts.append(f"{key}={value:.2f}"
                                 if isinstance(value, float) else f"{key}={value}")
        print(f"{payload.get('bench', path.stem):<28}"
              f"{'  '.join(parts) if parts else '(report-only)'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*",
                        help="bench_*.py files to run (default: all)")
    parser.add_argument("--summary", action="store_true",
                        help="skip running; summarize existing BENCH_*.json")
    args = parser.parse_args(argv)
    exit_code = 0
    if not args.summary:
        exit_code = run_benchmarks(args.benchmarks)
    summarize()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
