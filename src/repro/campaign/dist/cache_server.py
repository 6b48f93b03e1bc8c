"""The fleet's shared memoization namespace: ``ResultCache`` over TCP.

:class:`CacheServer` wraps one existing
:class:`~repro.campaign.cache.ResultCache` -- typically the coordinator's,
so the *same* instance (and the same on-disk journal) serves the local
runner and every remote worker -- and answers three request types over the
length-prefixed JSON transport:

- ``get``      {spec}        -> one result or null
- ``get_many`` {specs: [..]} -> one slot per spec, in order (served through
  :meth:`ResultCache.get_many`, the same batched path the runner uses)
- ``put``      {spec, result} -> write-through to the cache's journal

Workers batch a whole chunk into one ``get_many`` round trip, and every
fresh result they ``put`` lands in the coordinator's journal immediately --
so a point computed on any host is cache-served to every other host, and a
re-run of the grid needs no simulation no matter who computed what.

The server is thread-per-connection (the cache itself is lock-protected);
hit/miss traffic lands in ``dist.cache_server.hits`` / ``.misses`` /
``.puts`` counters.
"""

from __future__ import annotations

import socket
import threading
from typing import List, Optional, Sequence, Tuple, Union

from repro.campaign.cache import ResultCache
from repro.campaign.dist.protocol import (
    Connection,
    ProtocolError,
    connect,
    shutdown_and_close,
)
from repro.campaign.result import JobResult
from repro.campaign.spec import JobSpec
from repro.telemetry.recorder import RECORDER


class CacheServer:
    """Serve one :class:`ResultCache` to a fleet.  Starts on construction."""

    def __init__(self, cache: ResultCache, host: str = "127.0.0.1",
                 port: int = 0):
        self.cache = cache
        self._listener = socket.create_server((host, port))
        self._closing = False
        self._connections: List[Connection] = []
        self._lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cache-server-accept", daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is listening on."""
        return self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return                    # listener closed by close()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = Connection(sock)
            with self._lock:
                self._connections.append(connection)
            threading.Thread(target=self._serve, args=(connection,),
                             name="cache-server-conn", daemon=True).start()

    def _serve(self, connection: Connection) -> None:
        try:
            while True:
                try:
                    message = connection.recv()
                except (ProtocolError, OSError):
                    return
                if message is None:
                    return
                try:
                    reply = self._answer(message)
                except Exception as error:  # noqa: BLE001 - a bad request
                    # must not kill the connection (let alone the server)
                    reply = {"type": "error",
                             "error": f"{type(error).__name__}: {error}"}
                try:
                    connection.send(reply)
                except OSError:
                    return
        finally:
            connection.close()
            with self._lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _answer(self, message) -> dict:
        kind = message.get("type")
        if kind == "get_many":
            specs = [JobSpec.from_dict(raw) for raw in message["specs"]]
            found = self.cache.get_many(specs)
            hits = sum(1 for result in found if result is not None)
            if RECORDER.enabled:
                if hits:
                    RECORDER.count("dist.cache_server.hits", hits)
                if len(found) - hits:
                    RECORDER.count("dist.cache_server.misses", len(found) - hits)
            return {"type": "results",
                    "results": [None if result is None else result.to_dict()
                                for result in found]}
        if kind == "get":
            result = self.cache.get(JobSpec.from_dict(message["spec"]))
            if RECORDER.enabled:
                RECORDER.count("dist.cache_server.hits" if result is not None
                               else "dist.cache_server.misses")
            return {"type": "result",
                    "result": None if result is None else result.to_dict()}
        if kind == "put":
            self.cache.put(JobSpec.from_dict(message["spec"]),
                           JobResult.from_dict(message["result"]))
            if RECORDER.enabled:
                RECORDER.count("dist.cache_server.puts")
            return {"type": "ok"}
        if kind == "stats":
            return {"type": "stats", "stats": self.cache.stats().to_dict()}
        return {"type": "error", "error": f"unknown request type {kind!r}"}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, drop every client.  Idempotent."""
        if self._closing:
            return
        self._closing = True
        shutdown_and_close(self._listener)
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self._accept_thread.join(timeout=5.0)   # backstop; woken above


class CacheClient:
    """A worker's handle on the fleet's shared cache.

    One request in flight at a time (the worker's execution loop is
    sequential); any transport error surfaces as ``OSError`` /
    :class:`ProtocolError` and the worker degrades to cache-less execution
    -- the coordinator still writes results back through the runner's own
    cache, so nothing is lost, only re-computed.
    """

    def __init__(self, address: Union[str, Tuple[str, int]],
                 timeout: Optional[float] = 30.0):
        self._connection = connect(address, timeout=timeout)

    def _request(self, message: dict) -> dict:
        self._connection.send(message)
        reply = self._connection.recv()
        if reply is None:
            raise ProtocolError("cache server closed the connection")
        if reply.get("type") == "error":
            raise ProtocolError(f"cache server error: {reply.get('error')}")
        return reply

    def get(self, spec: JobSpec) -> Optional[JobResult]:
        reply = self._request({"type": "get", "spec": spec.to_dict()})
        raw = reply.get("result")
        return None if raw is None else JobResult.from_dict(raw).as_cached()

    def get_many(self, specs: Sequence[JobSpec]) -> List[Optional[JobResult]]:
        """One slot per spec, in order -- a single round trip for the batch."""
        if not specs:
            return []
        reply = self._request({"type": "get_many",
                               "specs": [spec.to_dict() for spec in specs]})
        return [None if raw is None else JobResult.from_dict(raw).as_cached()
                for raw in reply.get("results", [])]

    def put(self, spec: JobSpec, result: JobResult) -> None:
        self._request({"type": "put", "spec": spec.to_dict(),
                       "result": result.to_dict()})

    def stats(self) -> dict:
        return self._request({"type": "stats"})["stats"]

    def close(self) -> None:
        self._connection.close()
