"""Length-prefixed JSON framing shared by the coordinator and its workers.

Every message on the wire is a 4-byte big-endian length followed by that
many bytes of UTF-8 JSON encoding one object.  JSON keeps the transport
debuggable (``strace`` shows you the conversation) and -- because Python's
``json`` round-trips IEEE-754 doubles exactly (``repr``-based formatting)
and every payload here is built from ``to_dict()`` forms that are already
plain JSON types -- results that cross the wire are **bit-identical** to
ones produced locally.

:class:`Connection` wraps one socket: sends are serialised under a lock (a
worker's heartbeat thread and its result sends share the socket), receives
are single-reader, and both directions count bytes into the telemetry
recorder (``dist.bytes_sent`` / ``dist.bytes_received``).
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Dict, Optional, Tuple, Union

from repro.telemetry.recorder import RECORDER

#: 4-byte big-endian unsigned length prefix.
HEADER = struct.Struct(">I")

#: Hard ceiling on one message; a frame this size means a corrupt stream
#: (a 10k-point chunk is ~10 MB), and reading it would allocate blindly.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed frame: bad length, truncated payload, or non-object JSON."""


def encode(message: Dict) -> bytes:
    """One wire frame for ``message``."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


def parse_address(text: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or an already-split tuple) -> ``(host, port)``."""
    if isinstance(text, (tuple, list)):
        host, port = text
        return str(host), int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def format_address(address: Tuple[str, int]) -> str:
    """Inverse of :func:`parse_address`."""
    return f"{address[0]}:{address[1]}"


class Connection:
    """One framed-JSON peer over a connected socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._send_lock = threading.Lock()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False

    # ------------------------------------------------------------------
    def send(self, message: Dict) -> None:
        """Frame and send one message (thread-safe; raises ``OSError`` when
        the peer is gone)."""
        data = encode(message)
        with self._send_lock:
            self.sock.sendall(data)
        self.bytes_sent += len(data)
        if RECORDER.enabled:
            RECORDER.count("dist.bytes_sent", len(data))

    def recv(self) -> Optional[Dict]:
        """Read one message; ``None`` on clean EOF (peer closed between
        frames).  EOF *inside* a frame raises :class:`ProtocolError`."""
        header = self._read_exact(HEADER.size, eof_ok=True)
        if header is None:
            return None
        (length,) = HEADER.unpack(header)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the "
                                f"{MAX_MESSAGE_BYTES}-byte ceiling")
        payload = self._read_exact(length, eof_ok=False)
        self.bytes_received += HEADER.size + length
        if RECORDER.enabled:
            RECORDER.count("dist.bytes_received", HEADER.size + length)
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"undecodable frame: {error}") from error
        if not isinstance(message, dict):
            raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
        return message

    def _read_exact(self, count: int, eof_ok: bool) -> Optional[bytes]:
        buffer = bytearray()
        while len(buffer) < count:
            chunk = self.sock.recv(count - len(buffer))
            if not chunk:
                if eof_ok and not buffer:
                    return None
                raise ProtocolError(
                    f"connection closed mid-frame ({len(buffer)}/{count} bytes)")
            buffer.extend(chunk)
        return bytes(buffer)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the socket down; unblocks a thread parked in :meth:`recv`."""
        if self._closed:
            return
        self._closed = True
        shutdown_and_close(self.sock)


def shutdown_and_close(sock: socket.socket) -> None:
    """Close ``sock`` *and* wake any thread parked in its ``recv()`` or
    ``accept()`` -- ``close()`` alone leaves such a thread blocked; after the
    shutdown its call returns (EOF or ``OSError``)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def connect(address: Union[str, Tuple[str, int]],
            timeout: Optional[float] = 30.0) -> Connection:
    """Dial ``address`` and return a :class:`Connection`.

    ``timeout`` bounds the connect only; the established socket is blocking
    (a fleet worker parks in ``recv`` until work arrives).
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return Connection(sock)
