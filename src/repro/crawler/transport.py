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
  response bodies in a content-addressed store written with the
  temp-file/``os.replace`` pattern of
  :class:`~repro.core.dataset.StreamingDatasetWriter`, response metadata in
  per-writer JSONL manifests (append-only, so concurrent shard workers
  never contend), which together make re-runs and crash-resumed runs skip
  every already-fetched origin.

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


class _ManifestIndex:
    """A key → entry view over a cache directory's manifests.

    Loading parses every ``manifest-*.jsonl`` once; :meth:`refresh_and_get`
    then picks up *growth* — manifests appended (or newly created) by other
    writers, including other processes — by re-reading only the bytes past
    each file's consumed offset.  Only complete lines are consumed: a
    concurrently flushed half-line stays pending and is read once its
    newline lands, so a rescan can never mis-parse a torn tail that a later
    rescan would have understood.

    One instance is shared per (process, directory) by
    :class:`CachingTransport`; all access is serialized on an internal
    lock, so transports on different threads can share it.
    """

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.identity = _dir_identity(cache_dir)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._offsets: dict[str, int] = {}
        with self._lock:
            self._scan_locked()

    def get(self, key: str) -> dict | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, entry: dict) -> None:
        with self._lock:
            self._entries[key] = entry

    def refresh_and_get(self, key: str) -> dict | None:
        """Rescan the directory for manifest growth, then look up ``key``."""
        with self._lock:
            self._scan_locked()
            return self._entries.get(key)

    def snapshot(self) -> dict[str, dict]:
        """A copy of the merged index (used by :func:`compact_cache`)."""
        with self._lock:
            return dict(self._entries)

    def _scan_locked(self) -> None:
        for manifest in sorted(self.cache_dir.glob("manifest-*.jsonl")):
            name = manifest.name
            offset = self._offsets.get(name, 0)
            try:
                size = manifest.stat().st_size
            except OSError:
                continue  # deleted between glob and stat (e.g. compaction)
            if size < offset:
                offset = 0  # truncated/replaced (compaction); re-read it all
            if size <= offset:
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
            self._offsets[name] = offset + complete + 1
            for line in data[:complete].split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn interior line of a crashed writer
                if isinstance(entry, dict) and "key" in entry:
                    self._entries[entry["key"]] = entry


class CachingTransport:
    """An on-disk crawl cache around any :class:`AsyncTransport`.

    Layout under ``cache_dir``::

        objects/<sha[:2]>/<sha>        response bodies, content-addressed
        manifest-<unique>.jsonl        response metadata, one JSON per line

    Bodies are written with the temp-file + :func:`os.replace` pattern (the
    same crash-safety idiom as
    :class:`~repro.core.dataset.StreamingDatasetWriter`): a body file either
    exists complete or not at all, and concurrent writers storing the same
    content race benignly.  Manifests are append-only and *per writer* —
    each :class:`CachingTransport` appends to its own uniquely named
    manifest, so concurrent window workers (in-process or not) sharing
    one cache directory never interleave writes; loading merges every
    ``manifest-*.jsonl`` present, skipping torn trailing lines, which is
    what makes a crash-interrupted crawl resumable: the next run replays
    every completed fetch from disk and only fetches what is missing.

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

    ``fsync`` sets the manifest durability policy, mirroring
    :class:`~repro.core.dataset.StreamingDatasetWriter`'s knob: ``"close"``
    (the default) fsyncs the manifest once when the transport closes, so a
    crash mid-run can persist content-addressed bodies whose manifest lines
    were lost (warm re-runs re-fetch them; ``cache-compact`` sweeps them);
    ``"entry"`` fsyncs after every append, bounding the loss to the torn
    tail line — what distributed workers use, since their windows are
    declared complete while the process keeps running.
    """

    #: Accepted manifest ``fsync`` policies.
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
        self._objects = self.cache_dir / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        if refresh:
            # A refreshing transport deliberately ignores what is on disk
            # (and remembers only its own stores, privately).
            self._manifests: _ManifestIndex | None = None
            self._own_entries: dict[str, dict] = {}
        elif shared_index:
            self._manifests = self._shared_index(self.cache_dir)
            self._own_entries = {}
        else:
            self._manifests = _ManifestIndex(self.cache_dir)
            self._own_entries = {}
        self._manifest_handle = None
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

    # -- manifest persistence ----------------------------------------------------

    def _lookup(self, key: str) -> dict | None:
        if self._manifests is None:
            return self._own_entries.get(key)
        return self._manifests.get(key)

    def _lookup_rescan(self, key: str) -> dict | None:
        """Second-chance lookup: rescan the directory before a real miss."""
        if self._manifests is None:
            return None
        if self.metrics is not None:
            self.metrics.add("cache_rescans")
        return self._manifests.refresh_and_get(key)

    def _remember(self, key: str, entry: dict) -> None:
        if self._manifests is None:
            self._own_entries[key] = entry
        else:
            self._manifests.put(key, entry)

    def _append_manifest(self, entry: dict) -> None:
        with self._lock:
            if self._closed:
                return
            if self._manifest_handle is None:
                descriptor, _name = tempfile.mkstemp(
                    dir=self.cache_dir, prefix="manifest-", suffix=".jsonl")
                self._manifest_handle = os.fdopen(descriptor, "w", encoding="utf-8")
            self._manifest_handle.write(json.dumps(entry, ensure_ascii=False))
            self._manifest_handle.write("\n")
            self._manifest_handle.flush()
            if self.fsync == "entry":
                os.fsync(self._manifest_handle.fileno())

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._manifest_handle is not None:
                self._manifest_handle.flush()
                os.fsync(self._manifest_handle.fileno())
                self._manifest_handle.close()
                self._manifest_handle = None

    # -- the body store ----------------------------------------------------------

    def _body_path(self, body_sha: str) -> Path:
        return self._objects / body_sha[:2] / body_sha

    def _store_body(self, body: str) -> str:
        data = body.encode("utf-8")
        body_sha = hashlib.sha256(data).hexdigest()
        path = self._body_path(body_sha)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            descriptor, partial = tempfile.mkstemp(dir=path.parent,
                                                   prefix=f".{body_sha[:8]}.",
                                                   suffix=".partial")
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(partial, path)
        return body_sha

    # -- the transport protocol --------------------------------------------------

    def _response_from(self, request: Request, entry: dict) -> Response | None:
        try:
            body = self._body_path(entry["body_sha"]).read_text(encoding="utf-8")
        except (OSError, KeyError):
            return None  # manifest without its body: treat as a miss
        return Response(url=request.url, status=entry["status"],
                        headers=Headers(entry.get("headers", {})),
                        body=body, elapsed_ms=entry.get("elapsed_ms", 0.0),
                        served_variant=entry.get("served_variant"))

    async def send(self, request: Request) -> Response:
        key = _cache_key(request)
        entry = self._lookup(key)
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
            body_sha = self._store_body(response.body)
            entry = {"key": key, "url": str(request.url),
                     "status": response.status,
                     "headers": response.headers.as_dict(),
                     "body_sha": body_sha, "elapsed_ms": response.elapsed_ms,
                     "served_variant": response.served_variant}
            self._append_manifest(entry)
            self._remember(key, entry)
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
    orphan_bodies_removed: int = 0
    bytes_reclaimed: int = 0

    def summary_lines(self) -> list[str]:
        return [f"folded {self.manifests_folded} manifests into 1 "
                f"({self.entries} entries)",
                f"swept {self.orphan_bodies_removed} orphaned bodies "
                f"({self.bytes_reclaimed} bytes reclaimed)"]


def compact_cache(cache_dir: str | Path, *,
                  sweep_orphans: bool = True) -> CacheCompactionStats:
    """Fold every per-writer manifest into one; optionally sweep orphans.

    A long-lived or distributed crawl leaves one ``manifest-*.jsonl`` per
    writer (every transport stack of every window of every worker process),
    so the load path re-parses an ever-growing file set.  Compaction merges
    them — same last-file-wins semantics as loading — into a single
    deterministic (key-sorted) manifest written with the temp-file +
    ``os.replace`` + fsync pattern, then deletes the originals; a crash in
    between leaves duplicates that load idempotently.

    With ``sweep_orphans`` the content-addressed body store is swept too:
    any body (or abandoned ``.partial`` temp) not referenced by the merged
    index is deleted.  Orphans are what a crash between a body store and
    its manifest fsync leaves behind — persisted payloads no manifest line
    claims, which warm re-runs would silently re-fetch forever.

    This is an *offline* maintenance operation: run it when no writer is
    actively storing into the directory, or a just-stored body whose
    manifest line is still in flight could be swept as an orphan.
    """
    cache_dir = Path(cache_dir)
    index = _ManifestIndex(cache_dir)
    entries = index.snapshot()
    target = cache_dir / COMPACTED_MANIFEST
    originals = [path for path in sorted(cache_dir.glob("manifest-*.jsonl"))
                 if path != target]
    stats = CacheCompactionStats(manifests_folded=len(originals) + int(target.exists()),
                                 entries=len(entries))
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
        referenced = {entry.get("body_sha") for entry in entries.values()}
        objects = cache_dir / "objects"
        if objects.is_dir():
            for path in sorted(objects.glob("*/*")):
                if not path.is_file() or path.name in referenced:
                    continue
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                stats.orphan_bodies_removed += 1
                stats.bytes_reclaimed += size
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
