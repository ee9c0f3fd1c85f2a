"""Production HTTP transport subsystem.

Everything between the crawler's :class:`~repro.crawler.fetcher.AsyncTransport`
protocol and an actual network socket lives here, as a stack of small,
independently testable layers that compose around any base transport::

    CachingTransport          on-disk crawl cache (re-runs skip the network)
      PoliteTransport         per-host token bucket and concurrency cap
        InstrumentedTransport     counts what actually reaches the wire
          HttpAsyncTransport      real HTTP/1.1 with connection pooling
          (or SimulatedTransport over the synthetic web)

Retries and robots.txt are not layers of the stack: the
:class:`~repro.crawler.fetcher.Fetcher` above it is the crawl's one retry
loop (so a retried fetch goes through the cache again, and a transient
failure is never cached), and the
:class:`~repro.crawler.session.CrawlSession` is its one robots check.

Every layer is ``async``; a crawl drives the stack from one event loop per
unit of work (a country shard or a selection window), so the worker
threads :class:`HttpAsyncTransport` offloads to live as long as the unit.

* :class:`HttpAsyncTransport` is the asyncio-native wire transport: stdlib
  ``http.client`` under :func:`asyncio.to_thread` (no third-party HTTP
  dependency), keep-alive connection pooling, per-request timeouts, and an
  optional *gateway* mapping that resolves every origin to one address —
  which is how the full pipeline crawls a live loopback
  :class:`~repro.webgen.server.LocalSiteServer` hosting thousands of
  synthetic domains.  Redirects are passed through untouched: redirect
  policy belongs to the fetcher, the same place it lives for the simulated
  transport, so both paths share one implementation.
* :class:`PoliteTransport` enforces crawl politeness *below* the fetcher:
  a per-host token bucket and a per-host concurrency cap.
* :class:`CachingTransport` gives any transport an on-disk crawl cache:
  each writer appends response bodies to its own pack file and response
  metadata, with each body's extent in that pack, to its own JSONL
  manifest (append-only, so concurrent shard workers never contend; a
  body is flushed before the line that points at it), which together make
  re-runs and crash-resumed runs skip every already-fetched origin.

:func:`build_transport_stack` assembles the layers; a shared
:class:`~repro.crawler.metrics.TransportMetrics` instance threads through
them so one object reports what the stack did (the pipeline aggregates them
across shards onto the run result).
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.crawler.fetcher import AsyncTransport, FetchError
from repro.crawler.http import (
    CLIENT_COUNTRY_HEADER,
    Headers,
    Request,
    Response,
    RETRYABLE_STATUS_CODES,
    SERVED_VARIANT_HEADER,
    URL,
    VIA_VPN_HEADER,
    parse_charset,
)
from repro.crawler.metrics import TransportMetrics
from repro.obs import trace as obs_trace


# -- the wire transport --------------------------------------------------------------


def _default_port(scheme: str) -> int:
    return 443 if scheme == "https" else 80


def parse_netloc(netloc: str) -> tuple[str, int]:
    """Split a ``host:port`` gateway address (port required)."""
    host, _, port = netloc.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"gateway must be HOST:PORT, got {netloc!r}")
    return host, int(port)


class HttpAsyncTransport:
    """A real-HTTP :class:`~repro.crawler.fetcher.AsyncTransport`.

    Sends requests over actual sockets with stdlib ``http.client``,
    offloaded to worker threads via :func:`asyncio.to_thread` so in-flight
    requests overlap on one event loop.  Connections are pooled per
    ``(scheme, address)`` and kept alive across requests (HTTP/1.1); a
    stale keep-alive connection that the server closed between requests is
    detected and retried once on a fresh connection, which is invisible to
    callers.

    Args:
        gateway: Optional ``HOST:PORT`` (or ``(host, port)``) every request
            connects to regardless of its URL's host — the URL host still
            travels in the ``Host`` header.  This is the loopback-crawl
            mode: a :class:`~repro.webgen.server.LocalSiteServer` serves
            every synthetic domain on one address, and the transport treats
            it as the resolver for all of them.  ``None`` connects to each
            URL's own host (real crawling).
        timeout_s: Socket connect/read timeout per request.
        forward_vantage: Whether to encode ``Request.client_country`` /
            ``Request.via_vpn`` as the private ``x-langcrux-*`` headers the
            synthetic origin server understands.  Harmless for real
            origins; disable to crawl without them.
        metrics: Shared counters (connections opened/reused).

    Raises:
        FetchError: From :meth:`send`, for socket errors, timeouts and
            malformed responses.  HTTP error *statuses* are returned as
            normal responses — deciding what a 404 means is the caller's
            job, exactly like the simulated transport.
    """

    def __init__(self, gateway: str | tuple[str, int] | None = None, *,
                 timeout_s: float = 10.0, forward_vantage: bool = True,
                 metrics: TransportMetrics | None = None) -> None:
        if isinstance(gateway, str):
            gateway = parse_netloc(gateway)
        self.gateway = gateway
        self.timeout_s = timeout_s
        self.forward_vantage = forward_vantage
        self.metrics = metrics
        self._pool: dict[tuple[str, str, int], list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- connection pool ---------------------------------------------------------

    def _address_for(self, url: URL) -> tuple[str, str, int]:
        if self.gateway is not None:
            # The gateway terminates on loopback over plain HTTP regardless
            # of the URL's scheme (it is the TLS-terminating proxy of this
            # world); the logical origin still travels in the Host header.
            host, port = self.gateway
            return ("http", host, port)
        return (url.scheme, url.host, url.port or _default_port(url.scheme))

    def _connect(self, key: tuple[str, str, int]) -> http.client.HTTPConnection:
        scheme, host, port = key
        if scheme == "https":
            return http.client.HTTPSConnection(host, port, timeout=self.timeout_s)
        return http.client.HTTPConnection(host, port, timeout=self.timeout_s)

    def _acquire(self, key: tuple[str, str, int]) -> tuple[http.client.HTTPConnection, bool]:
        """A pooled connection for ``key`` (reused flag for metrics)."""
        with self._lock:
            if self._closed:
                raise FetchError("transport is closed")
            pooled = self._pool.get(key)
            if pooled:
                return pooled.pop(), True
        connection = self._connect(key)
        if self.metrics is not None:
            self.metrics.add("connections_opened")
        return connection, False

    def _release(self, key: tuple[str, str, int],
                 connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._pool.setdefault(key, []).append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close every pooled connection; further sends raise."""
        with self._lock:
            self._closed = True
            pooled = [conn for conns in self._pool.values() for conn in conns]
            self._pool.clear()
        for connection in pooled:
            connection.close()

    # -- sending -----------------------------------------------------------------

    def _headers_for(self, request: Request) -> dict[str, str]:
        headers = request.headers.as_dict()
        netloc = request.url.host if request.url.port is None \
            else f"{request.url.host}:{request.url.port}"
        headers.setdefault("host", netloc)
        if self.forward_vantage:
            if request.client_country is not None:
                headers[CLIENT_COUNTRY_HEADER] = request.client_country
            headers[VIA_VPN_HEADER] = "1" if request.via_vpn else "0"
        return headers

    def _send_blocking(self, request: Request) -> Response:
        key = self._address_for(request.url)
        path = request.url.path or "/"
        if request.url.query:
            path = f"{path}?{request.url.query}"
        headers = self._headers_for(request)
        started = time.perf_counter()
        last_error: Exception | None = None
        # Two attempts at most: a reused keep-alive connection may have been
        # closed server-side between requests; that one failure mode gets a
        # silent retry on a fresh connection, anything else propagates.
        for _ in range(2):
            connection, reused = self._acquire(key)
            try:
                connection.request(request.method, path, headers=headers)
                raw = connection.getresponse()
                body_bytes = raw.read()
            except (http.client.BadStatusLine, http.client.RemoteDisconnected,
                    ConnectionResetError, BrokenPipeError) as error:
                connection.close()
                last_error = error
                if reused:
                    continue
                raise FetchError(f"connection failed fetching {request.url}: {error}",
                                 url=request.url) from error
            except (http.client.HTTPException, OSError) as error:
                connection.close()
                raise FetchError(f"request failed fetching {request.url}: {error}",
                                 url=request.url) from error
            if self.metrics is not None and reused:
                self.metrics.add("connections_reused")
            response_headers = Headers()
            for name, value in raw.getheaders():
                if name in response_headers:
                    response_headers[name] = f"{response_headers[name]}, {value}"
                else:
                    response_headers[name] = value
            if raw.will_close:
                connection.close()
            else:
                self._release(key, connection)
            charset = parse_charset(response_headers.get("content-type"))
            try:
                body = body_bytes.decode(charset, errors="replace")
            except LookupError:  # unknown charset label from the origin
                body = body_bytes.decode("utf-8", errors="replace")
            return Response(
                url=request.url,
                status=raw.status,
                headers=response_headers,
                body=body,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
                served_variant=response_headers.get(SERVED_VARIANT_HEADER),
            )
        raise FetchError(f"connection failed fetching {request.url}: {last_error}",
                         url=request.url) from last_error

    async def send(self, request: Request) -> Response:
        return await asyncio.to_thread(self._send_blocking, request)


class InstrumentedTransport:
    """Counts the sends that actually reach the wrapped transport.

    Sits directly above the base transport, below the caching layer, so
    ``metrics.network_requests`` is exactly the number of fetches the crawl
    cache did *not* absorb — the number the cache-effectiveness acceptance
    check pins at zero on a warm re-run.  ``metrics.network_errors``
    counts the sends that raised instead of returning a response.
    """

    def __init__(self, inner: AsyncTransport, metrics: TransportMetrics) -> None:
        self.inner = inner
        self.metrics = metrics

    async def send(self, request: Request) -> Response:
        self.metrics.add("network_requests")
        tracer = obs_trace.active()
        if tracer is None:
            try:
                return await self.inner.send(request)
            except Exception:
                self.metrics.add("network_errors")
                raise
        # Detached: concurrent sends interleave on one event loop, so
        # stack (LIFO) nesting would mis-parent siblings.
        span = tracer.start_span("transport.request",
                                 {"url": str(request.url)}, detached=True)
        try:
            response = await self.inner.send(request)
        except BaseException as error:
            if isinstance(error, Exception):  # not a cancellation
                self.metrics.add("network_errors")
            span.attrs["error"] = True
            raise
        else:
            span.attrs["status"] = response.status
            return response
        finally:
            tracer.end_span(span)


# -- politeness ---------------------------------------------------------------------


class _TokenBucket:
    """A token bucket refilled continuously at ``rate`` tokens/second."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float]) -> None:
        self.rate = rate
        self.burst = max(burst, 1.0)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def reserve(self) -> float:
        """Take one token, returning how long to wait before using it."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            self._tokens -= 1.0
            if self._tokens >= 0.0:
                return 0.0
            return -self._tokens / self.rate


class PoliteTransport:
    """Per-host politeness around any :class:`AsyncTransport`.

    Two independent behaviours, each optional:

    * **Rate limiting** — a token bucket per host, ``rate_per_host``
      requests/second with a burst of ``burst``.
    * **Concurrency caps** — at most ``max_per_host`` requests in flight
      per host (batched crawls fetch one origin's pages sequentially, but
      nothing stops two windows from hitting one host).

    The clock and sleep hooks are injectable so tests drive waiting
    virtually; production uses monotonic time and :func:`asyncio.sleep`.
    """

    def __init__(self, inner: AsyncTransport, *,
                 rate_per_host: float | None = None, burst: float = 1.0,
                 max_per_host: int | None = None,
                 metrics: TransportMetrics | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], "asyncio.Future | None"] | None = None) -> None:
        if rate_per_host is not None and rate_per_host <= 0:
            raise ValueError(f"rate_per_host must be positive, got {rate_per_host}")
        if max_per_host is not None and max_per_host < 1:
            raise ValueError(f"max_per_host must be positive, got {max_per_host}")
        self.inner = inner
        self.rate_per_host = rate_per_host
        self.burst = burst
        self.max_per_host = max_per_host
        self.metrics = metrics
        self._clock = clock
        self._sleep = sleep
        self._buckets: dict[str, _TokenBucket] = {}
        # Semaphores are asyncio primitives and must not leak across event
        # loops (each crawl window runs its own loop), so the per-host
        # entry records which loop it belongs to and is rebuilt whenever a
        # different loop shows up — one live entry per host, never more.
        self._semaphores: dict[str, tuple[int, asyncio.Semaphore]] = {}

    async def _wait(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self.metrics is not None:
            self.metrics.add("rate_limit_wait_s", seconds)
        if self._sleep is None:
            await asyncio.sleep(seconds)
            return
        result = self._sleep(seconds)
        if asyncio.iscoroutine(result) or isinstance(result, asyncio.Future):
            await result

    def _bucket_for(self, host: str) -> _TokenBucket | None:
        if self.rate_per_host is None:
            return None
        bucket = self._buckets.get(host)
        if bucket is None:
            bucket = self._buckets[host] = _TokenBucket(self.rate_per_host,
                                                        self.burst, self._clock)
        return bucket

    def _semaphore_for(self, host: str) -> asyncio.Semaphore | None:
        if self.max_per_host is None:
            return None
        loop_key = id(asyncio.get_running_loop())
        entry = self._semaphores.get(host)
        if entry is None or entry[0] != loop_key:
            entry = (loop_key, asyncio.Semaphore(self.max_per_host))
            self._semaphores[host] = entry
        return entry[1]

    async def send(self, request: Request) -> Response:
        host = request.url.host
        bucket = self._bucket_for(host)
        if bucket is not None:
            await self._wait(bucket.reserve())
        semaphore = self._semaphore_for(host)
        if semaphore is None:
            return await self.inner.send(request)
        async with semaphore:
            return await self.inner.send(request)


# -- the on-disk crawl cache --------------------------------------------------------


def _cache_key(request: Request) -> str:
    parts = (request.method, str(request.url),
             request.client_country or "", "1" if request.via_vpn else "0")
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _dir_identity(path: Path) -> tuple[int, int] | None:
    """``(st_dev, st_ino)`` of ``path``, or ``None`` when it is gone."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_dev, stat.st_ino


def _read_extent(cache_dir: Path, entry: dict, readers: dict[str, int]) -> bytes | None:
    """The body bytes ``entry`` locates, or ``None`` unless they read whole.

    ``readers`` caches one read descriptor per pack; the caller closes them.
    A legacy entry (no ``pack``), a missing pack and a short read are all
    ``None``.
    """
    try:
        pack, offset, length = entry["pack"], entry["offset"], entry["length"]
        descriptor = readers.get(pack)
        if descriptor is None:
            descriptor = readers[pack] = os.open(cache_dir / pack, os.O_RDONLY)
        data = os.pread(descriptor, length, offset)
    except (KeyError, TypeError, ValueError, OSError):
        return None
    return data if len(data) == length else None


class _AppendFile:
    """One writer's own append-only file in the cache directory.

    Created lazily with :func:`tempfile.mkstemp` on the first append, so a
    writer that stores nothing leaves no file behind.
    """

    def __init__(self, directory: Path, prefix: str, suffix: str) -> None:
        self.directory = directory
        self.prefix = prefix
        self.suffix = suffix
        self.name = ""
        self.inode = 0
        self.size = 0
        self._handle = None

    def append(self, data: bytes, *, fsync: bool) -> int:
        """Write and flush ``data`` (and fsync it if asked); return its offset."""
        if self._handle is None:
            descriptor, path = tempfile.mkstemp(dir=self.directory,
                                                prefix=self.prefix, suffix=self.suffix)
            self._handle = os.fdopen(descriptor, "wb")
            self.name = os.path.basename(path)
            self.inode = os.fstat(descriptor).st_ino
        offset = self.size
        self._handle.write(data)
        self._handle.flush()
        self.size += len(data)
        if fsync:
            os.fsync(self._handle.fileno())
        return offset

    def close(self) -> None:
        """Fsync and close the file, if it was ever created."""
        if self._handle is not None:
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


class _ManifestIndex:
    """A key → entry view over a cache directory's manifests.

    Loading parses every ``manifest-*.jsonl`` once; :meth:`refresh_and_get`
    then picks up *growth* — manifests appended (or newly created) by other
    writers, including other processes — by re-reading only the bytes past
    each file's consumed offset.  Only complete lines are consumed: a
    concurrently flushed half-line stays pending and is read once its
    newline lands, so a rescan can never mis-parse a torn tail that a later
    rescan would have understood.  A manifest replaced under the same name
    (compaction) is re-read from the start.

    Besides the entries by key, the index maps each ``body_sha`` to an
    entry locating that body, so a writer never appends a body the
    directory already holds.

    One instance is shared per (process, directory) by
    :class:`CachingTransport`; all access is serialized on an internal
    lock, so transports on different threads can share it.
    """

    def __init__(self, cache_dir: Path, *, scan: bool = True) -> None:
        self.cache_dir = cache_dir
        self.identity = _dir_identity(cache_dir)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._bodies: dict[str, dict] = {}
        self._offsets: dict[str, tuple[int, int]] = {}
        if scan:
            with self._lock:
                self._scan_locked()

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def body(self, body_sha: str) -> dict | None:
        """An entry whose extent holds the body ``body_sha``, if any."""
        with self._lock:
            return self._bodies.get(body_sha)

    def put(self, key: str, entry: dict, manifest: _AppendFile | None = None) -> None:
        """Index ``entry``, which the writer of ``manifest`` just appended.

        A writer indexes each of its lines as it appends it, so a rescan
        starts past the end of the writer's own manifest instead of reading
        those lines back.
        """
        with self._lock:
            self._put_locked(key, entry)
            if manifest is not None:
                self._offsets[manifest.name] = (manifest.inode, manifest.size)

    def refresh_and_get(self, key: str) -> dict | None:
        """Rescan the directory for manifest growth, then look up ``key``."""
        with self._lock:
            self._scan_locked()
            return self._entries.get(key)

    def snapshot(self) -> dict[str, dict]:
        """A copy of the merged index (used by :func:`compact_cache`)."""
        with self._lock:
            return dict(self._entries)

    def _put_locked(self, key: str, entry: dict) -> None:
        current = self._entries.get(key)
        if current is not None and current.get("gen", 0) > entry.get("gen", 0):
            return  # a re-store outranks the unreadable line it replaced
        self._entries[key] = entry
        if "pack" in entry:
            self._bodies[entry.get("body_sha")] = entry

    def _scan_locked(self) -> None:
        try:
            names = sorted(name for name in os.listdir(self.cache_dir)
                           if name.startswith("manifest-") and name.endswith(".jsonl"))
        except OSError:
            return  # the directory is gone
        for name in names:
            manifest = self.cache_dir / name
            try:
                stat = manifest.stat()
            except OSError:
                continue  # deleted between listing and stat (e.g. compaction)
            inode, offset = self._offsets.get(name, (stat.st_ino, 0))
            if inode != stat.st_ino or stat.st_size < offset:
                offset = 0  # replaced (compaction); re-read it all
            if stat.st_size <= offset:
                continue
            try:
                with manifest.open("rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            complete = data.rfind(b"\n")
            if complete < 0:
                continue  # nothing but a torn tail so far
            self._offsets[name] = (stat.st_ino, offset + complete + 1)
            for line in data[:complete].split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn interior line of a crashed writer
                if isinstance(entry, dict) and "key" in entry:
                    self._put_locked(entry["key"], entry)


class CachingTransport:
    """An on-disk crawl cache around any :class:`AsyncTransport`.

    Layout under ``cache_dir``::

        pack-<unique>.bin              response bodies, appended back to back
        manifest-<unique>.jsonl        response metadata, one JSON per line

    Each :class:`CachingTransport` that stores anything creates one pack
    and one manifest of its own (lazily, with :func:`tempfile.mkstemp`), so
    concurrent window workers (in-process or not) sharing one cache
    directory never interleave writes.  A manifest line names its body's
    ``body_sha`` and its extent — ``pack``, ``offset``, ``length`` — and is
    written only after those bytes were written and flushed to the pack.
    A body the directory already holds (robots.txt bodies repeat across
    origins) is not written again: the new line points at the existing
    extent.  Loading merges every ``manifest-*.jsonl`` present, skipping
    torn trailing lines, which is what makes a crash-interrupted crawl
    resumable: the next run replays every completed fetch from disk and
    only fetches what is missing.  A hit reads its body with
    :func:`os.pread` on a descriptor opened once per pack; a missing pack,
    a short read or an entry without an extent (the body-per-file layout
    of older caches) is a miss, re-fetched and stored anew under a higher
    ``gen``, which outranks the unreadable line whatever order the
    manifests load in, so the next run hits.

    Responses with retryable (transient) statuses are never cached, so a
    503 cannot shadow the success a retry would have seen.

    The cached entry stores everything a :class:`Response` carries —
    status, headers, body, ``served_variant``, ``elapsed_ms`` — so a warm
    run is byte-identical to the run that populated the cache.

    With ``shared_index`` (the default) every instance in the process
    pointing at one directory shares a single in-memory
    :class:`_ManifestIndex`: the manifests on disk are parsed once per
    process, not once per instance — a sub-sharded run builds one transport
    stack per window, and without sharing, window *k* would re-read the
    *k-1* manifests earlier windows wrote (O(n²) over a run).  Before
    declaring a *miss* the index rescans the directory for manifest growth,
    so entries appended by other writers — earlier windows and,
    crucially, other worker *processes* of a distributed crawl — are
    observed without restarting the process; only a genuinely-new fetch
    pays the network.  Pass ``shared_index=False`` for a private index
    (same rescan behaviour, no cross-instance sharing — the persistence
    tests use it to exercise the disk path).

    ``fsync`` sets the durability policy of the pack and the manifest,
    mirroring :class:`~repro.core.dataset.StreamingDatasetWriter`'s knob:
    ``"close"`` (the default) fsyncs the pack, then the manifest, once when
    the transport closes, so a crash mid-run can persist pack bytes whose
    manifest lines were lost (warm re-runs re-fetch them;
    ``cache-compact`` reclaims them); ``"entry"`` fsyncs the pack and then
    the manifest on every store, bounding the loss to the torn tail line —
    what distributed workers use, since their windows are declared
    complete while the process keeps running.
    """

    #: Accepted ``fsync`` policies.
    FSYNC_POLICIES = ("close", "entry")

    #: Per-process shared manifest indexes, one per resolved cache directory
    #: still on disk (see :meth:`_shared_index`).
    _SHARED_INDEXES: dict[Path, _ManifestIndex] = {}
    _SHARED_LOCK = threading.Lock()

    def __init__(self, inner: AsyncTransport, cache_dir: str | Path, *,
                 metrics: TransportMetrics | None = None,
                 refresh: bool = False, shared_index: bool = True,
                 fsync: str = "close") -> None:
        if fsync not in self.FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}; "
                             f"expected one of {self.FSYNC_POLICIES}")
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self.metrics = metrics
        self.refresh = refresh
        self.fsync = fsync
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        if refresh:
            # A refreshing transport deliberately ignores what is on disk
            # (and remembers only its own stores, privately).
            self._manifests = _ManifestIndex(self.cache_dir, scan=False)
        elif shared_index:
            self._manifests = self._shared_index(self.cache_dir)
        else:
            self._manifests = _ManifestIndex(self.cache_dir)
        self._pack_file = _AppendFile(self.cache_dir, "pack-", ".bin")
        self._manifest_file = _AppendFile(self.cache_dir, "manifest-", ".jsonl")
        self._readers: dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def _shared_index(cls, cache_dir: Path) -> _ManifestIndex:
        """The process-wide index of ``cache_dir``, dropping stale ones first.

        An index is stale once its directory is gone or was replaced — a
        different ``(st_dev, st_ino)`` at the same path — since its entries
        then name files that no longer exist.  Indexes of directories still
        on disk stay registered after their last transport closes: the next
        build on the same cache would otherwise re-parse every manifest.
        """
        key = cache_dir.resolve()
        with cls._SHARED_LOCK:
            for path, index in list(cls._SHARED_INDEXES.items()):
                if _dir_identity(path) != index.identity:
                    del cls._SHARED_INDEXES[path]
            index = cls._SHARED_INDEXES.get(key)
            if index is None:
                index = cls._SHARED_INDEXES[key] = _ManifestIndex(cache_dir)
            return index

    # -- persistence -------------------------------------------------------------

    def _lookup_rescan(self, key: str) -> dict | None:
        """Second-chance lookup: rescan the directory before a real miss."""
        if self.refresh:
            return None
        if self.metrics is not None:
            self.metrics.add("cache_rescans")
        return self._manifests.refresh_and_get(key)

    def _known_extent(self, body_sha: str) -> dict | None:
        """The extent of a body the directory already holds whole, if any."""
        known = self._manifests.body(body_sha)
        if known is None:
            return None
        try:
            extent = {"pack": known["pack"], "offset": known["offset"],
                      "length": known["length"]}
            size = os.stat(self.cache_dir / extent["pack"]).st_size
            whole = size >= extent["offset"] + extent["length"]
        except (KeyError, TypeError, OSError):
            return None
        return extent if whole else None

    def _persist(self, entry: dict, data: bytes) -> None:
        """Give ``entry`` an extent holding ``data``, append and index it.

        The body is flushed (and under ``fsync="entry"`` fsynced) to the
        pack before the manifest line that points at it is written.
        """
        extent = self._known_extent(entry["body_sha"])
        fsync = self.fsync == "entry"
        with self._lock:
            if self._closed:
                return
            if extent is None:
                offset = self._pack_file.append(data, fsync=fsync)
                extent = {"pack": self._pack_file.name, "offset": offset,
                          "length": len(data)}
            entry.update(extent)
            line = json.dumps(entry, ensure_ascii=False) + "\n"
            self._manifest_file.append(line.encode("utf-8"), fsync=fsync)
            self._manifests.put(entry["key"], entry, self._manifest_file)

    def close(self) -> None:
        """Fsync the pack, then the manifest; close every descriptor."""
        with self._lock:
            self._closed = True
            self._pack_file.close()
            self._manifest_file.close()
            for descriptor in self._readers.values():
                os.close(descriptor)
            self._readers.clear()

    # -- the transport protocol --------------------------------------------------

    def _response_from(self, request: Request, entry: dict) -> Response | None:
        with self._lock:
            data = None if self._closed else \
                _read_extent(self.cache_dir, entry, self._readers)
        if data is None:
            return None  # manifest without its body: treat as a miss
        try:
            body = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
        return Response(url=request.url, status=entry["status"],
                        headers=Headers(entry.get("headers", {})),
                        body=body, elapsed_ms=entry.get("elapsed_ms", 0.0),
                        served_variant=entry.get("served_variant"))

    async def send(self, request: Request) -> Response:
        key = _cache_key(request)
        entry = self._manifests.get(key)
        if entry is None:
            # Another writer — another window's transport, or another
            # *process* sharing the cache directory — may have appended a
            # manifest since the last scan; re-reading a few file tails is
            # far cheaper than re-fetching, so check before declaring a miss.
            entry = self._lookup_rescan(key)
        if entry is not None:
            response = self._response_from(request, entry)
            if response is not None:
                if self.metrics is not None:
                    self.metrics.add("cache_hits")
                obs_trace.event("transport.cache_hit",
                                {"url": str(request.url)})
                return response
        if self.metrics is not None:
            self.metrics.add("cache_misses")
        response = await self.inner.send(request)
        if response.status not in RETRYABLE_STATUS_CODES:
            data = response.body.encode("utf-8")
            stored = {"key": key, "url": str(request.url),
                      "status": response.status,
                      "headers": response.headers.as_dict(),
                      "body_sha": hashlib.sha256(data).hexdigest(),
                      "elapsed_ms": response.elapsed_ms,
                      "served_variant": response.served_variant}
            if entry is not None:
                # Outrank the unreadable entry in whatever order the
                # manifests load.
                stored["gen"] = entry.get("gen", 0) + 1
            self._persist(stored, data)
            if self.metrics is not None:
                self.metrics.add("cache_stores")
        return response


# -- cache maintenance --------------------------------------------------------------


#: Name of the folded manifest :func:`compact_cache` produces.
COMPACTED_MANIFEST = "manifest-00-compacted.jsonl"


@dataclass
class CacheCompactionStats:
    """What one :func:`compact_cache` pass did."""

    manifests_folded: int = 0
    entries: int = 0
    entries_dropped: int = 0
    files_removed: int = 0
    bytes_reclaimed: int = 0

    def summary_lines(self) -> list[str]:
        return [f"folded {self.manifests_folded} manifests into 1 "
                f"({self.entries} entries, {self.entries_dropped} unreadable dropped)",
                f"swept {self.files_removed} body files "
                f"({self.bytes_reclaimed} bytes reclaimed)"]


def _body_store_files(cache_dir: Path) -> list[Path]:
    """Packs, compaction temps and any legacy ``objects/`` files."""
    return [path for pattern in ("pack-*.bin", ".compact-*.partial", "objects/**/*")
            for path in sorted(cache_dir.glob(pattern)) if path.is_file()]


def _repack(cache_dir: Path, entries: dict[str, dict]) -> tuple[dict[str, dict], str | None]:
    """Copy every body ``entries`` reference into one new pack.

    Returns the entries re-pointed into it and its name (``None`` when no
    body was readable).  Entries whose body does not read whole or does not
    match its ``body_sha`` are dropped: they could only ever be misses.
    The pack is written to a temp file, fsynced and renamed after the hash
    of its bytes, so a second pass over a compacted cache rewrites the same
    file with the same bytes.
    """
    descriptor, partial = tempfile.mkstemp(dir=cache_dir, prefix=".compact-",
                                           suffix=".partial")
    digest = hashlib.sha256()
    extents: dict[str, tuple[int, int]] = {}
    kept: dict[str, dict] = {}
    readers: dict[str, int] = {}
    try:
        with os.fdopen(descriptor, "wb") as handle:
            for key in sorted(entries):
                entry = entries[key]
                body_sha = entry.get("body_sha")
                if body_sha not in extents:
                    data = _read_extent(cache_dir, entry, readers)
                    if data is None or hashlib.sha256(data).hexdigest() != body_sha:
                        continue
                    extents[body_sha] = (handle.tell(), len(data))
                    handle.write(data)
                    digest.update(data)
                offset, length = extents[body_sha]
                kept[key] = {**entry, "offset": offset, "length": length}
            handle.flush()
            os.fsync(handle.fileno())
    finally:
        for reader in readers.values():
            os.close(reader)
    if not extents:
        os.unlink(partial)
        return kept, None
    pack = f"pack-{digest.hexdigest()[:32]}.bin"
    os.replace(partial, cache_dir / pack)
    for entry in kept.values():
        entry["pack"] = pack
    return kept, pack


def compact_cache(cache_dir: str | Path, *,
                  sweep_orphans: bool = True) -> CacheCompactionStats:
    """Fold every per-writer manifest into one; optionally repack the bodies.

    A long-lived or distributed crawl leaves one ``manifest-*.jsonl`` and
    one ``pack-*.bin`` per writer (every transport stack of every window of
    every worker process), so the load path re-parses an ever-growing file
    set.  Compaction merges the manifests — same last-file-wins semantics
    as loading — into a single deterministic (key-sorted) manifest written
    with the temp-file + ``os.replace`` + fsync pattern, then deletes the
    originals; a crash in between leaves duplicates that load idempotently.

    With ``sweep_orphans`` the bodies are repacked too: every body the
    merged index references is copied into one new pack (temp file, fsync,
    ``os.replace``) before the compacted manifest points at it, and only
    then are the other packs, compaction temps and any legacy ``objects/``
    tree deleted.  That reclaims the orphans — pack bytes no manifest line
    claims, which a crash between a body append and its manifest fsync
    leaves behind — and entries whose body is unreadable are dropped.

    This is an *offline* maintenance operation: run it when no writer is
    actively storing into the directory, or a just-stored body whose
    manifest line is still in flight could be swept as an orphan.
    """
    cache_dir = Path(cache_dir)
    entries = _ManifestIndex(cache_dir).snapshot()
    target = cache_dir / COMPACTED_MANIFEST
    originals = [path for path in sorted(cache_dir.glob("manifest-*.jsonl"))
                 if path != target]
    stats = CacheCompactionStats(manifests_folded=len(originals) + int(target.exists()))
    if sweep_orphans:
        swept = _body_store_files(cache_dir)
        stored_bytes = sum(path.stat().st_size for path in swept)
        kept, pack = _repack(cache_dir, entries)
        stats.entries_dropped = len(entries) - len(kept)
        entries = kept
    stats.entries = len(entries)
    descriptor, partial = tempfile.mkstemp(dir=cache_dir, prefix=".compact-",
                                           suffix=".partial")
    with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
        for key in sorted(entries):
            handle.write(json.dumps(entries[key], ensure_ascii=False))
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(partial, target)
    for path in originals:
        path.unlink(missing_ok=True)
    if sweep_orphans:
        for path in swept:
            if path.name != pack:
                path.unlink(missing_ok=True)
                stats.files_removed += 1
        shutil.rmtree(cache_dir / "objects", ignore_errors=True)
        stats.bytes_reclaimed = stored_bytes - sum(
            path.stat().st_size for path in _body_store_files(cache_dir))
    # Transports of this process must not serve the deleted locations.
    with CachingTransport._SHARED_LOCK:
        CachingTransport._SHARED_INDEXES.pop(cache_dir.resolve(), None)
    return stats


# -- composition --------------------------------------------------------------------


@dataclass
class TransportStack:
    """An assembled transport stack and the handles the pipeline needs.

    Attributes:
        transport: The outermost layer (what the fetcher sends through).
        metrics: The shared counters every layer increments.
        closers: Layer ``close()`` callbacks, outermost first.
    """

    transport: AsyncTransport
    metrics: TransportMetrics
    closers: tuple[Callable[[], None], ...] = ()

    def close(self) -> None:
        """Release pooled connections and manifest handles (idempotent)."""
        for closer in self.closers:
            closer()


def build_transport_stack(base: AsyncTransport, *,
                          metrics: TransportMetrics | None = None,
                          rate_per_host: float | None = None,
                          burst: float = 1.0,
                          max_per_host: int | None = None,
                          cache_dir: str | Path | None = None,
                          refresh_cache: bool = False,
                          cache_fsync: str = "close") -> TransportStack:
    """Compose the transport layers around ``base``.

    Bottom-up: ``base`` → instrumentation → politeness (when rate limiting
    or concurrency caps are requested) → crawl cache (when ``cache_dir`` is
    given).  The cache sits on top so a hit skips politeness waits
    entirely — a replayed fetch costs no wall-clock and no tokens.
    """
    stack_metrics = metrics if metrics is not None else TransportMetrics()
    closers: list[Callable[[], None]] = []
    base_close = getattr(base, "close", None)
    if callable(base_close):
        closers.append(base_close)
    if getattr(base, "metrics", False) is None:
        base.metrics = stack_metrics  # adopt the stack's shared counters
    transport: AsyncTransport = InstrumentedTransport(base, stack_metrics)
    if rate_per_host is not None or max_per_host is not None:
        transport = PoliteTransport(transport, rate_per_host=rate_per_host,
                                    burst=burst, max_per_host=max_per_host,
                                    metrics=stack_metrics)
    if cache_dir is not None:
        caching = CachingTransport(transport, cache_dir, metrics=stack_metrics,
                                   refresh=refresh_cache, fsync=cache_fsync)
        closers.insert(0, caching.close)
        transport = caching
    return TransportStack(transport=transport, metrics=stack_metrics,
                          closers=tuple(closers))
