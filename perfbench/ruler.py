"""The host ruler: a fixed reference workload that measures how fast the host is now.

The machines this benchmark runs on drift in speed on scales of seconds to
minutes (shared cores, frequency scaling, noisy neighbours), so a raw
wall-clock figure does not repeat between runs of identical code.  The
ruler is a fixed, stdlib-only workload -- an integer loop with small dict
and str allocation, then the stdlib ``html.parser`` and ``json`` over a
fixed page, with the garbage collector off -- that runs in a *spawned*
helper process while the benchmark waits.  Its duration is read before every
timed unit, and a unit's time is normalized by the reads that bracket it::

    normalized = raw * RULER_REF_S / mean(read_before, read_after)

so a normalized figure is "seconds at reference host speed".  Running the
ruler in its own process keeps it off the measured program's heap and away
from the program's allocator state.  The ruler uses only the standard
library, so no change to the program can change it.  A random-memory-walk
component was tried and left out: it widened the spread instead of
narrowing it.  The parser part was kept because it tracked the builds
better than the integer loop alone (see README.md).
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from html.parser import HTMLParser

#: What one ruler read takes at reference host speed, in seconds.  Any
#: constant works; this one is close to a typical read on a 2-vCPU VM, so
#: normalized figures stay close to raw ones there.
RULER_REF_S = 0.0135

#: Iterations of the integer loop and parses of the fixed page per read
#: (together ~10-15 ms on a 2-vCPU VM).
RULER_LOOPS = 60_000
RULER_PARSES = 3

_WORDS = ("alpha", "beta", "gamma", "delta", "উদাহরণ", "ภาษา", "日本語", "русский")

#: The fixed page the ruler parses: ~13 KB of mixed-script markup.
RULER_PAGE = "<html lang='bn'><head><title>t</title></head><body>" + "".join(
    f"<div class='c{i % 7}' id='d{i}'><p>{_WORDS[i % 8]} text {i} আজকের খবর</p>"
    f"<img src='/{i}.jpg' alt='{_WORDS[(i + 3) % 8]}'><a href='/p{i}'>link {i}</a></div>"
    for i in range(60)) + "</body></html>"


class _TreeParser(HTMLParser):
    """Builds a small nested-dict tree, as a DOM builder would."""

    def __init__(self) -> None:
        super().__init__()
        self.nodes: list[dict] = []

    def handle_starttag(self, tag, attrs) -> None:
        self.nodes.append({"tag": tag, "attrs": dict(attrs), "text": []})

    def handle_data(self, data) -> None:
        if self.nodes:
            self.nodes[-1]["text"].append(data.strip())


def ruler_work(loops: int, parses: int = RULER_PARSES) -> int:
    """The reference workload: the integer loop, then the page parses."""
    acc = 0
    table: dict[str, tuple[int, int]] = {}
    for i in range(loops):
        acc = (acc + i * 7) & 0xFFFF
        if not i & 15:
            table[str(acc)] = (i, acc)
            if len(table) > 64:
                table.clear()
    for _ in range(parses):
        parser = _TreeParser()
        parser.feed(RULER_PAGE)
        parser.close()
        acc += len(json.dumps(parser.nodes[:40], ensure_ascii=False))
    return acc


def _serve(loops: int) -> None:
    """Helper main: answer each line on stdin with one timed ruler run."""
    gc.disable()
    ruler_work(loops)  # first run pays for bytecode warm-up, not measured
    while sys.stdin.readline():
        start = time.perf_counter()
        ruler_work(loops)
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()


def scale(before: float, after: float) -> float:
    """Factor turning raw seconds into reference-speed seconds.

    ``before`` and ``after`` are the ruler reads that bracket the unit.
    A value above 1 means the host ran faster than the reference.
    """
    if before <= 0 or after <= 0:
        raise ValueError(f"ruler reads must be positive, got {before}, {after}")
    return RULER_REF_S / ((before + after) / 2.0)


class HostRuler:
    """The ruler's helper process; use as a context manager.

    :meth:`read` blocks until the helper has run the workload once and
    returns its duration in seconds.  The benchmark does nothing else meanwhile.
    """

    def __init__(self, loops: int = RULER_LOOPS) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(loops)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def read(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("the host ruler helper exited")
        return float(line)

    def close(self) -> None:
        """Stop the helper and wait until it has ended (idempotent)."""
        if not self._process.stdin.closed:
            self._process.stdin.close()  # end of input stops the helper
        try:
            self._process.wait(10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "HostRuler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class UnitClock:
    """Times consecutive units, each bracketed by ruler reads.

    Call :meth:`begin` right before a unit and :meth:`end` right after it.
    The read taken by the *next* :meth:`begin` (or by :meth:`finish`) is the
    unit's closing read, so each read serves two neighbouring units and the
    ruler costs one read per unit.
    """

    def __init__(self, ruler: HostRuler) -> None:
        self.ruler = ruler
        self._pending: list[tuple[float, float, object]] = []
        self._read: float | None = None
        self._start = 0.0
        #: ``(raw_s, scale, tag)`` of every closed unit, in order.
        self.units: list[tuple[float, float, object]] = []

    def begin(self) -> None:
        self._read = self.ruler.read()
        self._close_pending(self._read)
        self._start = time.perf_counter()

    def end(self, tag: object = None) -> float:
        """Close the unit's timing; returns its raw seconds."""
        raw = time.perf_counter() - self._start
        self._pending.append((raw, self._read, tag))
        return raw

    def finish(self) -> None:
        """Take the closing read of the last unit."""
        if self._pending:
            self._close_pending(self.ruler.read())

    def _close_pending(self, read: float) -> None:
        for raw, before, tag in self._pending:
            self.units.append((raw, scale(before, read), tag))
        self._pending.clear()


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
