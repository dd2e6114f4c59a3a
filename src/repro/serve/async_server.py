"""The high-concurrency asyncio front end over a lock-free rule store.

A thread-per-request server spends a thread per in-flight request; under
hundreds of keep-alive clients that is hundreds of stacks and a scheduler
fight for the GIL.  :class:`AsyncRuleServer` serves the endpoints from **one
event loop**: every connection is a coroutine, so concurrency costs a heap
object instead of a thread, and the store's
lock-free snapshot contract means request handling never blocks on the
writer.  On top of the shared routing (:mod:`repro.serve.api`) it adds what
a front end facing real load needs:

* **Keep-alive HTTP/1.1** — a client pays connection setup once and streams
  requests; ``Connection: close`` (or HTTP/1.0 without keep-alive) is
  honoured per request.
* **Batched ``POST /recommend``** — many baskets answered in one request
  against **one** snapshot read, so a batch is never split across a
  publication: every basket in the response describes the same version.
* **A bounded LRU response cache** keyed on ``(snapshot_version, basket,
  k)`` — the version in the key makes stale hits structurally impossible,
  and the whole cache is invalidated on every store publication (the hook
  :meth:`~repro.serve.store.RuleStore.on_publish`, which fires for direct
  maintainer publications and for session-feed republications alike).
* **Per-client token-bucket rate limiting** — ``429 Too Many Requests``
  with an exact ``Retry-After``; clients are keyed by the ``X-Client-Id``
  header when present (load harnesses, tests) else the peer address.
* **Bounded-connection backpressure** — past ``max_connections`` a new
  connection is answered with an immediate ``503`` + ``Retry-After`` and
  closed, so overload degrades to fast rejections instead of an unbounded
  accept queue.

The lifecycle is ``start`` / ``serve_forever`` / ``shutdown`` / ``close``,
plus the context-manager protocol.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import socket
import threading
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

from ..errors import EmptyDatabaseError
from ..itemsets import Item
from .api import (
    BadRequest,
    encode_json,
    parse_items,
    parse_positive_int,
    reason_phrase,
    recommend_payload,
    response_headers,
    route_query,
)
from .cache import DEFAULT_CACHE_SIZE, ResponseCache
from .ratelimit import RateLimiter
from .snapshot import RuleSnapshot
from .store import RuleStore

__all__ = ["AsyncRuleServer", "DEFAULT_MAX_CONNECTIONS"]

_log = logging.getLogger(__name__)

#: Default concurrent-connection bound (the backpressure threshold).
DEFAULT_MAX_CONNECTIONS = 1024
#: Hard caps on request anatomy — a malformed or hostile client cannot make
#: one request hold unbounded memory.
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Cap on baskets per batched POST (one request must stay one scheduling
#: quantum, not a denial of service).
MAX_BATCH_BASKETS = 10_000


class _ProtocolError(ValueError):
    """A malformed HTTP request (answered 400 and the connection closed)."""


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one HTTP/1.x request; ``None`` on a clean EOF between requests."""
    try:
        line = await reader.readline()
    except ValueError as exc:  # request line over the stream limit
        raise _ProtocolError("request line too long") from exc
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _ProtocolError(f"malformed request line {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise _ProtocolError(f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    while True:
        try:
            header_line = await reader.readline()
        except ValueError as exc:
            raise _ProtocolError("header line too long") from exc
        if header_line in (b"\r\n", b"\n"):
            break
        if not header_line:
            raise _ProtocolError("connection closed mid-headers")
        if len(headers) >= MAX_HEADER_COUNT:
            raise _ProtocolError("too many headers")
        name, separator, value = header_line.decode("latin-1").partition(":")
        if not separator:
            raise _ProtocolError(f"malformed header line {header_line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise _ProtocolError(f"malformed Content-Length {raw_length!r}") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _ProtocolError(f"unacceptable Content-Length {length}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _ProtocolError("connection closed mid-body") from exc
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:  # HTTP/1.0 closes unless the client opts in
        keep_alive = connection == "keep-alive"
    parsed = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
    return _Request(
        method=method,
        path=parsed.path,
        query=query,
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


def _render_response(
    status: int,
    payload: object,
    *,
    keep_alive: bool,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    """One complete HTTP response as bytes (status line, headers, body)."""
    body = encode_json(payload)
    lines = [f"HTTP/1.1 {status} {reason_phrase(status)}"]
    lines.extend(
        f"{name}: {value}"
        for name, value in response_headers(
            body, keep_alive=keep_alive, extra=extra_headers
        )
    )
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def _retry_after_header(seconds: float) -> tuple[str, str]:
    """``Retry-After`` as RFC-compliant integral delay-seconds (minimum 1)."""
    return ("Retry-After", str(max(1, math.ceil(seconds))))


class AsyncRuleServer:
    """Asyncio keep-alive HTTP front end with cache, rate limit, backpressure.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`);
    bind errors raise here, in the constructor.  Use :meth:`start` for a background server (tests,
    embedding) or :meth:`serve_forever` to run on the calling thread (the
    CLI).  ``rate_limit=None`` disables rate limiting, ``cache_size=0``
    disables the response cache.
    """

    def __init__(
        self,
        store: RuleStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
    ) -> None:
        if max_connections < 1:
            raise ValueError(f"max_connections must be positive, got {max_connections}")
        self.store = store
        self.cache = ResponseCache(cache_size)
        self.limiter = (
            None if rate_limit is None else RateLimiter(rate_limit, rate_burst)
        )
        self.max_connections = int(max_connections)
        self._sock = socket.create_server((host, port))
        self._loop = asyncio.new_event_loop()
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._closed = False
        self._active_connections = 0
        self._total_connections = 0
        self._rejected_connections = 0
        self._requests = 0
        # Publication hook: entries of superseded versions can never hit
        # again (the version is in the key), so reclaim their space at once.
        self._invalidate = lambda snapshot: self.cache.clear()
        store.on_publish(self._invalidate)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._sock.getsockname()[0]

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def active_connections(self) -> int:
        """Connections currently inside the handler (approximate under load)."""
        return self._active_connections

    def start(self) -> "AsyncRuleServer":
        """Serve on a background daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-async-rule-server", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or Ctrl-C)."""
        self._run()

    def shutdown(self) -> None:
        """Stop a *running* serve loop (safe to call from any thread).

        Waits for loop startup first, so a shutdown racing a fresh
        :meth:`start` cannot stop the loop mid-initialisation.
        """
        self._ready.wait(timeout=5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)

    def close(self) -> None:
        """Stop the serve loop (if any), release the socket, unhook the store.

        Safe in every lifecycle state, more than once: a server that was
        never started has no loop to stop, so only the resources go.
        """
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        if not self._loop.is_closed() and not self._loop.is_running():
            self._loop.close()
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close best-effort
                pass
            self.store.remove_listener(self._invalidate)

    def __enter__(self) -> "AsyncRuleServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def snapshot(self) -> RuleSnapshot:
        """The snapshot requests are currently answered from."""
        return self.store.snapshot()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            server = self._loop.run_until_complete(
                asyncio.start_server(self._handle_client, sock=self._sock)
            )
        finally:
            self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            # Cancel lingering connection handlers (keep-alive clients whose
            # sockets are still open) so the loop closes without warnings.
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._total_connections += 1
        if self._active_connections >= self.max_connections:
            # Backpressure: reject in O(1) instead of queueing unboundedly.
            self._rejected_connections += 1
            await self._write_and_close(
                writer,
                _render_response(
                    503,
                    {
                        "error": (
                            f"server at connection capacity "
                            f"({self.max_connections}); retry shortly"
                        )
                    },
                    keep_alive=False,
                    extra_headers=(_retry_after_header(1.0),),
                ),
            )
            return
        self._active_connections += 1
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._active_connections -= 1
            writer.close()

    async def _write_and_close(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            writer.write(data)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_label = peer[0] if isinstance(peer, (tuple, list)) and peer else "unknown"
        while True:
            try:
                request = await _read_request(reader)
            except _ProtocolError as exc:
                writer.write(
                    _render_response(400, {"error": str(exc)}, keep_alive=False)
                )
                await writer.drain()
                return
            if request is None:
                return
            try:
                status, payload, extra = self._dispatch(request, peer_label)
            except Exception:  # noqa: BLE001 - one bad request must not kill the loop
                _log.exception(
                    "unhandled error dispatching %s %s",
                    request.method,
                    request.path,
                )
                status, payload, extra = 500, {"error": "internal server error"}, ()
            keep_alive = request.keep_alive and status != 500
            self._requests += 1
            writer.write(
                _render_response(
                    status, payload, keep_alive=keep_alive, extra_headers=tuple(extra)
                )
            )
            await writer.drain()
            if not keep_alive:
                return

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(
        self, request: _Request, peer_label: str
    ) -> tuple[int, object, tuple[tuple[str, str], ...]]:
        # Rate limiting first — a limited client must not spend snapshot or
        # cache work.  /health stays exempt so orchestration probes and the
        # load harness's readiness wait never fight application traffic.
        if self.limiter is not None and request.path != "/health":
            client = request.headers.get("x-client-id") or peer_label
            retry_after = self.limiter.check(client)
            if retry_after > 0.0:
                return (
                    429,
                    {
                        "error": f"rate limit exceeded for client {client!r}",
                        "retry_after_seconds": round(retry_after, 6),
                    },
                    (_retry_after_header(retry_after),),
                )
        try:
            if request.method == "POST":
                if request.path != "/recommend":
                    return 404, {"error": f"unknown endpoint {request.path!r}"}, ()
                return 200, self._recommend_batch(request), ()
            if request.method != "GET":
                return (
                    405,
                    {"error": f"method {request.method} not allowed"},
                    (("Allow", "GET, POST"),),
                )
            if request.path == "/recommend":
                return 200, self._recommend_single(request.query), ()
            status, payload = route_query(self.store, request.path, request.query)
            if request.path == "/health" and status == 200:
                payload["frontend"] = "async"
                payload["cache"] = self.cache.stats()
                payload["rate_limit"] = (
                    None if self.limiter is None else self.limiter.stats()
                )
                payload["connections"] = {
                    "active": self._active_connections,
                    "max": self.max_connections,
                    "total": self._total_connections,
                    "rejected": self._rejected_connections,
                    "requests": self._requests,
                }
            return status, payload, ()
        except BadRequest as exc:
            return 400, {"error": str(exc)}, ()
        except EmptyDatabaseError:
            return 503, {"status": "empty", "version": None}, ()

    def _cached_recommendations(
        self, snapshot: RuleSnapshot, basket: tuple[Item, ...], k: int
    ) -> list[dict]:
        """The recommendation list via the response cache.

        The key's normalized basket (sorted, deduplicated) matches what
        :meth:`RuleSnapshot.recommend` actually depends on, so ``1,2`` and
        ``2,1,2`` share an entry.  Cached lists are served by reference and
        never mutated — they go straight to the JSON encoder.
        """
        key = (snapshot.version, tuple(sorted(set(basket))), k)
        cached = self.cache.get(key)
        if cached is None:
            cached = recommend_payload(snapshot, basket, k)
            self.cache.put(key, cached)
        return cached

    def _recommend_single(self, query: dict[str, str]) -> dict:
        snapshot = self.store.snapshot()
        if "basket" not in query:
            raise BadRequest("recommend needs a basket (e.g. ?basket=1,2,3)")
        basket = parse_items(query["basket"], "basket")
        k = parse_positive_int(query.get("k", "5"), "k")
        return {
            "version": snapshot.version,
            "basket": list(basket),
            "recommendations": self._cached_recommendations(snapshot, basket, k),
        }

    def _recommend_batch(self, request: _Request) -> dict:
        """Answer many baskets against exactly one snapshot read.

        The single ``store.snapshot()`` call is the batch-atomicity
        guarantee: a publication landing mid-batch cannot split the
        response across versions, because every basket is answered from the
        object loaded here.
        """
        try:
            document = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise BadRequest("POST /recommend needs a JSON body") from None
        if not isinstance(document, dict):
            raise BadRequest('POST body must be an object like {"baskets": [[1,2]]}')
        baskets = document.get("baskets")
        if not isinstance(baskets, list) or not baskets:
            raise BadRequest('"baskets" must be a non-empty list of item lists')
        if len(baskets) > MAX_BATCH_BASKETS:
            raise BadRequest(
                f"at most {MAX_BATCH_BASKETS} baskets per request, got {len(baskets)}"
            )
        raw_k = document.get("k", 5)
        if not isinstance(raw_k, int) or isinstance(raw_k, bool) or raw_k < 1:
            raise BadRequest(f'"k" must be a positive integer, got {raw_k!r}')
        parsed: list[tuple[Item, ...]] = []
        for position, basket in enumerate(baskets):
            if (
                not isinstance(basket, list)
                or not basket
                or not all(
                    isinstance(item, int) and not isinstance(item, bool)
                    for item in basket
                )
            ):
                raise BadRequest(
                    f"basket #{position} must be a non-empty list of integers"
                )
            parsed.append(tuple(basket))
        snapshot = self.store.snapshot()  # the one read the whole batch shares
        return {
            "version": snapshot.version,
            "k": raw_k,
            "results": [
                {
                    "basket": list(basket),
                    "recommendations": self._cached_recommendations(
                        snapshot, basket, raw_k
                    ),
                }
                for basket in parsed
            ],
        }
