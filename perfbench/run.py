"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 20 --trace 0

Workloads: ``build-cold``, ``build-warm``, ``crawl-http``, ``api-mixed`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced units and reports the per-layer metrics.  A table of
every metric -- normalized to reference host speed, raw beside it -- comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of the checkout; without it
the run fails with a non-zero exit code and prints no result.  Scratch files
live under ``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build-cold", "build-warm", "crawl-http", "api-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its ruler helper on one CPU.

    The API and HTTP workloads hand every request between a client and a
    server thread of this process.  Left to the scheduler, those threads
    sometimes sit on different CPUs for a whole run, and cross-CPU wake-ups
    then slow every request by up to 40% -- a shift the ruler cannot see.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads
    from ruler import HostRuler

    pin_to_one_cpu()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        with HostRuler() as ruler:
            outcome = workloads.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), ruler, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    if args.trace:
        rows = [(name, outcome.per_layer[name], outcome.per_layer_raw.get(name), unit)
                for name, unit in workloads.PER_LAYER_UNITS.items()]
    else:
        rows = [(name, value, raw, unit)
                for name, (value, raw, unit) in outcome.end_to_end.items()]
    print(f"  {'metric':30s} {'normalized':>14s} {'raw':>14s} unit")
    metrics = {}
    for name, value, raw, unit in rows:
        raw_text = f"{raw:14.6f}" if raw is not None else f"{'-':>14s}"
        print(f"  {name:30s} {value:14.6f} {raw_text} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"  error_rate = {outcome.failed}/{outcome.attempted}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    if not all(math.isfinite(entry["value"]) for entry in metrics.values()):
        print("perfbench: a metric is not a finite number", file=sys.stderr)
        return 1
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
