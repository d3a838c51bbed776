"""Stdlib-only asyncio JSON-over-HTTP API of the seeding service.

:class:`SeedingServer` glues the pieces together: it parses a minimal
HTTP/1.1 dialect off asyncio streams (keep-alive supported, no external
dependencies), answers cache hits immediately, and funnels cache misses
through the :class:`~repro.service.batcher.RequestBatcher` so concurrent
queries coalesce into fused batch evaluations on the shared
:class:`~repro.service.state.ServiceState`.

Endpoints
---------
* ``GET /healthz`` — liveness plus registered graph versions.
* ``GET /metrics`` — answer/collection cache counters, batch coalescing
  stats, per-graph query counts.
* ``POST /query`` — one JSON query (see ``docs/service.md`` for the
  grammar): ``{"op": "spread", "seeds": [...]}``,
  ``{"op": "marginal", "node": u, "conditioning": [...]}``,
  ``{"op": "topk", "k": 10, "budget": 25.0, "segment": [...]}`` or
  ``{"op": "mc_spread", "seeds": [...], "simulations": 500}``, each with
  optional ``"version"`` and ``"removed"`` (residual state) fields.
* ``POST /shutdown`` — request graceful shutdown (what SIGTERM does).

Shutdown discipline (the PR-6 ladder, applied to serving): stop
accepting, await the in-flight batch, run the pending tail on the batch
thread and stop it, then join the sampling threads —
:meth:`SeedingServer.close` is idempotent and safe under a SIGTERM that
lands mid-batch.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.service.batcher import RequestBatcher
from repro.service.resilience import (
    error_answer,
    error_status,
    is_error_answer,
    resolve_deadline_ms,
    resolve_max_inflight,
)
from repro.service.state import Query, ServiceState
from repro.utils.exceptions import (
    DeadlineExceeded,
    ReproError,
    ServiceOverloadError,
    ValidationError,
)

logger = logging.getLogger("repro.service")

#: Largest accepted request body, a guard against runaway clients.
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _encode_response(
    status: int, payload: Mapping[str, Any], keep_alive: bool
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP request; ``None`` on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line or not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        raise ValidationError(f"malformed HTTP request line: {request_line!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            return None
        line = line.rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise ValidationError(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class SeedingServer:
    """The long-lived seeding service: one state, one batcher, one socket.

    Parameters
    ----------
    state:
        The (already graph-loaded) :class:`ServiceState` to serve.  The
        server takes ownership: :meth:`close` closes it.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests, the
        self-serving load generator).
    max_batch:
        Batch-size cap forwarded to :class:`RequestBatcher`.
    max_inflight:
        Bound on concurrently admitted ``/query`` requests (``None``
        honours ``REPRO_SERVICE_MAX_INFLIGHT``); excess load is answered
        with a structured 429 instead of being queued.  Every admitted
        query counts until it is answered, so this also bounds the
        batcher's queue.
    deadline_ms:
        Default per-query deadline (``None`` honours
        ``REPRO_SERVICE_DEADLINE_MS``); a query's own ``deadline_ms``
        field wins.  Expired queries get a structured 504 — or a cached
        answer flagged ``degraded: true`` when one exists.
    """

    def __init__(
        self,
        state: ServiceState,
        host: str = "127.0.0.1",
        port: int = 8321,
        max_batch: Optional[int] = None,
        max_inflight: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self._state = state
        self._host = host
        self._port = int(port)
        self._batcher = RequestBatcher(state.execute_batch, max_batch=max_batch)
        self._max_inflight = resolve_max_inflight(max_inflight)
        self._deadline_ms = resolve_deadline_ms(deadline_ms)
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: set = set()  # (task, writer) per live connection
        self._closed = False
        self._requests_served = 0
        self._cache_fast_hits = 0
        self._inflight = 0
        self._shed_requests = 0
        self._deadline_expired = 0
        self._degraded_served = 0
        self._last_success: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> ServiceState:
        """The served state."""
        return self._state

    @property
    def batcher(self) -> RequestBatcher:
        """The request coalescer."""
        return self._batcher

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when ``port=0``)."""
        return self._port

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has completed."""
        return self._closed

    async def start(self) -> None:
        """Bind the listening socket (idempotent)."""
        if self._server is not None:
            return
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]
        logger.info("seeding service listening on %s:%d", self._host, self._port)

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to exit gracefully (signal-safe)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or ``POST /shutdown``), then close.

        The signal handlers only *set an event*; teardown runs on the
        event loop afterwards, so a SIGTERM landing mid-batch waits for
        the in-flight coalesced call instead of abandoning its futures.
        """
        await self.start()
        assert self._shutdown is not None
        loop = asyncio.get_running_loop()
        installed = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            await self._shutdown.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.close()

    async def close(self) -> None:
        """Graceful, idempotent teardown: socket → batcher drain → state.

        Every stage tolerates being re-entered: a second close (SIGTERM
        racing ``POST /shutdown``, or an ``atexit``-style finally block
        after ``serve_forever``) finds the socket gone, the batcher
        already drained and the sampling threads already joined, and
        returns.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge idle keep-alive connections off their reads and wait for
        # every handler to finish — nothing is left parked on the loop for
        # teardown to cancel noisily.
        for task, writer in list(self._connections):
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        if self._connections:
            await asyncio.gather(
                *(task for task, _ in list(self._connections)),
                return_exceptions=True,
            )
        await self._batcher.aclose()
        self._state.close()
        logger.info("seeding service shut down cleanly")

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        record = (asyncio.current_task(), writer)
        self._connections.add(record)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ValidationError as exc:
                    writer.write(
                        _encode_response(400, {"error": str(exc)}, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._dispatch(method, path, body)
                keep_alive = (
                    not self._closed
                    and headers.get("connection", "keep-alive").lower() != "close"
                )
                writer.write(_encode_response(status, payload, keep_alive))
                await writer.drain()
                self._requests_served += 1
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            return  # loop teardown mid-read; exit without error noise
        finally:
            self._connections.discard(record)
            # No wait_closed(): everything is drained, and awaiting the
            # transport here can raise CancelledError noise when the event
            # loop tears handler tasks down at shutdown.
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0]
        try:
            if path == "/healthz" and method == "GET":
                return self._healthz()
            if path == "/metrics" and method == "GET":
                return 200, self.metrics()
            if path == "/shutdown" and method == "POST":
                self.request_shutdown()
                return 200, {"status": "shutting down"}
            if path == "/query":
                if method != "POST":
                    return 405, {"error": "use POST for /query"}
                return await self._answer_query(body)
            return 404, {"error": f"unknown path {path!r}"}
        except (ValidationError, ReproError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500
            logger.exception("unhandled error answering %s %s", method, path)
            return 500, {"error": f"internal error: {exc}"}

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness *and* health: a closed server answers 503, not "ok".

        ``pending_queries``/``inflight`` expose queue depth, and
        ``last_success_age_s`` ages the most recent successful query —
        together enough for an orchestrator to restart a server that is
        alive but no longer answering.
        """
        healthy = not self._closed and not self._state.closed
        age = (
            None
            if self._last_success is None
            else round(time.monotonic() - self._last_success, 3)
        )
        return (200 if healthy else 503), {
            "status": "ok" if healthy else "degraded",
            "versions": list(self._state.versions),
            "closed": self._state.closed,
            "pending_queries": self._batcher.pending,
            "inflight": self._inflight,
            "last_success_age_s": age,
        }

    def _note_success(self) -> None:
        self._last_success = time.monotonic()

    def _deadline_response(self, query: Query) -> Tuple[int, Dict[str, Any]]:
        """Answer an expired query: a degraded cached answer, else a 504."""
        self._deadline_expired += 1
        try:
            degraded = self._state.try_degraded(query)
        except ValidationError:  # the state closed under the query
            degraded = None
        if degraded is not None:
            self._degraded_served += 1
            self._note_success()
            return 200, degraded
        return 504, error_answer(
            DeadlineExceeded(
                "query deadline expired before an answer was produced"
            )
        )

    async def _answer_query(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        if self._closed or self._batcher.closed:
            return 503, {"error": "service is shutting down"}
        if self._max_inflight is not None and self._inflight >= self._max_inflight:
            self._shed_requests += 1
            return 429, error_answer(
                ServiceOverloadError(
                    f"request shed: {self._inflight} queries in flight "
                    f"(max_inflight={self._max_inflight})",
                    retry_after_ms=self._batcher.retry_after_ms(),
                )
            )
        self._inflight += 1
        try:
            return await self._answer_payload(request)
        finally:
            self._inflight -= 1

    async def _answer_payload(
        self, payload: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            query = self._state.admit(payload, self._deadline_ms)
        except ValidationError as exc:
            return 400, error_answer(exc)
        cached = self._state.try_cached(query)
        if cached is not None:
            self._cache_fast_hits += 1
            self._note_success()
            return 200, cached
        try:
            if query.deadline is None:
                answer = await self._batcher.submit(query)
            else:
                remaining = query.deadline - time.monotonic()
                if remaining <= 0:
                    return self._deadline_response(query)
                answer = await asyncio.wait_for(
                    self._batcher.submit(query), timeout=remaining
                )
        except asyncio.TimeoutError:
            # The batch underneath keeps computing (its eventual answer
            # warms the cache); this caller gets degraded-or-504 now.
            return self._deadline_response(query)
        except (ValidationError, ReproError) as exc:
            status = 503 if self._batcher.closed else 400
            return status, {"error": str(exc)}
        if is_error_answer(answer):
            status = error_status(answer)
            if status == 429:
                self._shed_requests += 1
            elif status == 504:
                self._deadline_expired += 1
            return status, answer
        self._note_success()
        if answer.get("degraded"):
            self._degraded_served += 1
        return 200, answer

    def metrics(self) -> Dict[str, Any]:
        """Everything observable: state counters + coalescing evidence."""
        return {
            "state": self._state.metrics(),
            "batcher": self._batcher.stats.as_dict(),
            "server": {
                "requests_served": self._requests_served,
                "cache_fast_hits": self._cache_fast_hits,
                "port": self._port,
                "closed": self._closed,
                "inflight": self._inflight,
                "shed_requests": self._shed_requests,
                "deadline_expired": self._deadline_expired,
                "degraded_served": self._degraded_served,
                "last_success_age_s": None
                if self._last_success is None
                else round(time.monotonic() - self._last_success, 3),
            },
        }
