"""The service's one HTTP boundary: routing and a stdlib HTTP/1.1 server.

Endpoints are registered FastAPI-style -- ``@app.route("/jobs/{id}")``
handlers, sync or async, taking a :class:`Request` and returning a
:class:`Response` (or an :class:`EventStreamResponse` streaming Server-Sent
Events from an async iterator).  :meth:`App.serve_connection` is the whole
serving path: ``asyncio.start_server`` hands it a socket, it parses each
request, calls the matched handler and writes the reply itself -- complete
responses get a Content-Length and keep the connection alive, streaming
responses advertise ``Connection: close`` and write frames as they are
produced.  It is deliberately minimal: no TLS, no chunked request bodies,
no pipelining -- a front proxy owns those concerns in a real deployment.

Every handled request is counted/timed in the telemetry recorder
(``service.requests`` counter + ``service.request_seconds`` histogram +
per-status-class counters), which is what ``/metrics`` serves back out.

:func:`serve` is the blocking ``repro serve`` body; :class:`ServerThread`
runs the same coroutine on a dedicated event loop in a daemon thread --
what the tests and embedded callers use.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import re
import threading
import time
import urllib.parse
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.service.schemas import ValidationError
from repro.telemetry.log import get_logger
from repro.telemetry.recorder import RECORDER

_LOG = get_logger("service")

#: Request start-line/header size cap (a sanity guard, not a security layer):
#: bounds the header section as a whole and, as the stream limit, any one line.
_MAX_HEADER_BYTES = 64 * 1024
#: Request body size cap: job submissions are small JSON documents.
_MAX_BODY_BYTES = 4 * 1024 * 1024

#: HTTP reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error",
}


class Request:
    """One parsed HTTP request (start line, headers and fully-read body)."""

    def __init__(self, method: str, path: str, query_string: str,
                 headers: Dict[str, str], body: bytes, peer: str,
                 keep_alive: bool):
        self.method = method
        self.path = path
        self.headers = headers          # lowercase names, last value wins
        self.body = body
        self.peer = peer
        self.keep_alive = keep_alive
        self.path_params: Dict[str, str] = {}
        self.query: Dict[str, str] = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(query_string).items()
        }

    @property
    def client(self) -> str:
        """The rate-limiting identity: ``X-Client`` header or peer address."""
        return self.headers.get("x-client") or self.peer

    def json(self) -> object:
        """The body decoded as JSON (:class:`ValidationError` when it isn't)."""
        if not self.body:
            raise ValidationError("request body must be JSON, got nothing")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ValidationError(f"request body is not valid JSON: {error}")


class Response:
    """A complete (non-streaming) HTTP response."""

    def __init__(self, body: bytes = b"", status: int = 200,
                 content_type: str = "text/plain; charset=utf-8",
                 headers: Optional[Sequence[Tuple[str, str]]] = None):
        self.body = body
        self.status = status
        self.headers: List[Tuple[str, str]] = [("content-type", content_type)]
        self.headers.extend(headers or ())


class JSONResponse(Response):
    """A JSON body (sorted keys, so responses are byte-stable)."""

    def __init__(self, payload: object, status: int = 200,
                 headers: Optional[Sequence[Tuple[str, str]]] = None):
        super().__init__(
            body=(json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            status=status, content_type="application/json", headers=headers)


class TextResponse(Response):
    """A plain-text body (``/metrics``' Prometheus exposition)."""


class EventStreamResponse:
    """A Server-Sent-Events response fed by an async iterator of events.

    Each yielded ``(event_name, payload_dict)`` becomes one SSE frame
    (``event: <name>`` + ``data: <json>``).  The iterator ending ends the
    response; the connection is closed afterwards (streaming responses
    advertise no Content-Length).
    """

    status = 200
    headers = [("content-type", "text/event-stream"),
               ("cache-control", "no-cache")]

    def __init__(self, events: AsyncIterator[Tuple[str, Dict]]):
        self.events = events

    async def frames(self) -> AsyncIterator[bytes]:
        async for name, payload in self.events:
            yield (f"event: {name}\n"
                   f"data: {json.dumps(payload, sort_keys=True)}\n\n"
                   ).encode("utf-8")


def _head(status: int, headers: Sequence[Tuple[str, str]]) -> bytes:
    """Status line + header lines + the blank line, as sent."""
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _BadRequest(Exception):
    """An unparseable request; the connection is answered 400 and closed."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:                  # one line longer than the stream limit
        raise _BadRequest("header section too large") from None


async def _read_request(reader: asyncio.StreamReader,
                        peer: str) -> Optional[Request]:
    """One HTTP/1.1 request off the stream, or ``None`` at clean EOF."""
    request_line = await _read_line(reader)
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line: {request_line!r}")
    method, target, version = parts
    path, _, query = target.partition("?")

    headers: Dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader)
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("header section too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("latin-1")] = (
            value.strip().decode("latin-1"))

    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
        if length < 0:
            raise ValueError(length)
    except ValueError:
        raise _BadRequest(
            f"bad Content-Length: {length_raw.encode('latin-1')!r}") from None
    if length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length else b""

    keep_alive = (version != "HTTP/1.0"
                  and headers.get("connection", "").lower() != "close")
    return Request(method.upper(), path, query, headers, body, peer, keep_alive)


#: A route handler: sync or async, ``Request -> Response-like``.
Handler = Callable[[Request], object]


class _Route:
    """One registered path pattern (``/jobs/{id}`` style) + its handlers."""

    _PARAM = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")

    def __init__(self, path: str):
        pattern = self._PARAM.sub(r"(?P<\1>[^/]+)", re.escape(path)
                                  .replace(r"\{", "{").replace(r"\}", "}"))
        self.path = path
        self.regex = re.compile(f"^{pattern}$")
        self.handlers: Dict[str, Handler] = {}


class App:
    """Routing table + the per-connection serving loop."""

    def __init__(self, title: str = "repro service"):
        self.title = title
        self._routes: List[_Route] = []

    # ------------------------------------------------------------------
    def route(self, path: str, methods: Sequence[str] = ("GET",)):
        """FastAPI-style registration: ``@app.route("/jobs", methods=["POST"])``."""
        def decorate(handler: Handler) -> Handler:
            route = next((r for r in self._routes if r.path == path), None)
            if route is None:
                route = _Route(path)
                self._routes.append(route)
            for method in methods:
                route.handlers[method.upper()] = handler
            return handler
        return decorate

    def _match(self, path: str, method: str):
        """``(handler, params) | (None, allowed-methods) | (None, None)``."""
        allowed: List[str] = []
        for route in self._routes:
            matched = route.regex.match(path)
            if not matched:
                continue
            handler = route.handlers.get(method)
            if handler is not None:
                return handler, matched.groupdict()
            allowed.extend(route.handlers)
        return None, (sorted(set(allowed)) or None)

    async def _dispatch(self, request: Request):
        handler, extra = self._match(request.path, request.method)
        if handler is None:
            if extra:                   # path exists, method doesn't
                return JSONResponse({"error": f"method {request.method} not "
                                              f"allowed"},
                                    status=405,
                                    headers=[("allow", ", ".join(extra))])
            return JSONResponse({"error": f"no such resource: {request.path}"},
                                status=404)
        request.path_params = extra
        try:
            outcome = handler(request)
            if inspect.isawaitable(outcome):
                outcome = await outcome
            return outcome
        except ValidationError as error:
            return JSONResponse({"error": str(error)}, status=400)
        except Exception as error:      # one bad request must not kill the app
            return JSONResponse({"error": f"{type(error).__name__}: {error}"},
                                status=500)

    # ------------------------------------------------------------------
    async def serve_connection(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """Answer requests on one connection until it closes or must close."""
        peer = writer.get_extra_info("peername")
        peer = peer[0] if peer else "unknown"
        try:
            while True:
                try:
                    request = await _read_request(reader, peer)
                except _BadRequest as error:
                    body = f"{error}\n".encode()
                    writer.write(_head(400, [("content-length", len(body)),
                                             ("connection", "close")]) + body)
                    await writer.drain()
                    return
                if request is None:
                    return

                started = time.perf_counter()
                response = await self._dispatch(request)
                keep_alive = request.keep_alive
                if isinstance(response, EventStreamResponse):
                    # Streaming: length unknown up front, so the end of the
                    # response can only be signalled by closing.
                    keep_alive = False
                    writer.write(_head(response.status, response.headers
                                       + [("connection", "close")]))
                    async for frame in response.frames():
                        writer.write(frame)
                        await writer.drain()
                else:
                    writer.write(_head(response.status, response.headers + [
                        ("content-length", len(response.body)),
                        ("connection", "keep-alive" if keep_alive else "close"),
                    ]) + response.body)
                await writer.drain()

                if RECORDER.enabled:
                    RECORDER.count("service.requests")
                    RECORDER.count(f"service.responses.{response.status // 100}xx")
                    RECORDER.observe("service.request_seconds",
                                     time.perf_counter() - started)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return                      # client went away mid-request/-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass


# ----------------------------------------------------------------------
Hook = Optional[Callable[[], Awaitable[None]]]


async def _serve(app: App, host: str, port: int, startup: Hook, shutdown: Hook,
                 bound: Callable[[Tuple[str, int]], None]) -> None:
    """``startup`` -> bind -> ``bound(address)`` -> serve until cancelled ->
    ``shutdown``: the one serving coroutine under both entry points.

    ``shutdown`` runs however the rest ends, a failed bind (``OSError``)
    included, so the workers ``startup`` started are always stopped.
    """
    try:
        if startup is not None:
            await startup()
        server = await asyncio.start_server(app.serve_connection, host=host,
                                            port=port, limit=_MAX_HEADER_BYTES)
        bound(server.sockets[0].getsockname()[:2])
        async with server:
            await server.serve_forever()
    except asyncio.CancelledError:
        pass                            # the way out: Ctrl-C or stop()
    finally:
        if shutdown is not None:
            await shutdown()


def serve(app: App, host: str = "127.0.0.1", port: int = 8321,
          startup: Hook = None, shutdown: Hook = None) -> None:
    """Serve ``app`` until interrupted (the blocking ``repro serve`` body).

    ``startup``/``shutdown`` are awaited inside the event loop around the
    serving phase (the worker pool's lifecycle hooks).  A ``host``/``port``
    that cannot be bound raises ``OSError`` after ``shutdown`` ran.
    """
    def bound(address: Tuple[str, int]) -> None:
        _LOG.info("service listening", host=address[0], port=address[1])

    try:
        asyncio.run(_serve(app, host, port, startup, shutdown, bound))
    except KeyboardInterrupt:
        _LOG.info("service stopped")


class ServerThread:
    """The service stack on a dedicated event loop in a daemon thread.

    ``start()`` blocks until the socket is bound and reports the actual
    port (so callers may bind port 0); ``stop()`` cancels the serving task,
    which runs the shutdown hook, and joins the thread.  Used by the tests
    and by anything embedding the service next to other work.
    """

    def __init__(self, app: App, host: str = "127.0.0.1", port: int = 0,
                 startup: Hook = None, shutdown: Hook = None):
        self.app = app
        self.host = host
        self.port = port
        self._startup = startup
        self._shutdown = shutdown
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in 30s")
        return self

    def _run(self) -> None:
        asyncio.run(_serve(self.app, self.host, self.port, self._startup,
                           self._shutdown, self._bound))

    def _bound(self, address: Tuple[str, int]) -> None:
        self.port = address[1]
        self.loop = asyncio.get_running_loop()
        self._task = asyncio.current_task()
        self._ready.set()

    def stop(self) -> None:
        if self.loop is not None and self._task is not None:
            self.loop.call_soon_threadsafe(self._task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=30)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
