"""Raw-socket tests of the service's HTTP boundary (repro.service.server).

``test_service.py`` only ever speaks well-formed HTTP through ``urllib`` /
``http.client``; this file writes bytes on a socket and pins what comes
back -- the request caps, 400-and-close, keep-alive vs close, error
isolation, SSE framing -- as bytes, so the wire format cannot drift.
"""

import logging
import re
import socket

import pytest

from repro.service.server import (
    _MAX_BODY_BYTES,
    _MAX_HEADER_BYTES,
    App,
    EventStreamResponse,
    JSONResponse,
    ServerThread,
)


def _app() -> App:
    app = App()

    @app.route("/ok")
    def ok(request):
        return JSONResponse({"b": 1, "a": request.client})

    @app.route("/accepted", methods=["POST"])
    async def accepted(request):
        return JSONResponse({"got": request.json()}, status=202)

    @app.route("/boom")
    def boom(request):
        raise RuntimeError("handler bug")

    @app.route("/items/{item_id}/events")
    def events(request):
        async def stream():
            yield "running", {"item": request.path_params["item_id"]}
            yield "done", {"z": 1, "a": 2}
        return EventStreamResponse(stream())

    return app


@pytest.fixture(scope="module")
def port():
    server = ServerThread(_app()).start()
    try:
        yield server.port
    finally:
        server.stop()


def _read_raw(stream) -> bytes:
    """One fixed-length response off ``stream``, exactly as sent."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        line = stream.readline()
        assert line, f"connection closed mid-head: {head!r}"
        head += line
    length = re.search(rb"\r\ncontent-length: (\d+)\r\n", head)
    return head + stream.read(int(length.group(1)))


def _read_response(stream):
    """The same, split into (status line, header lines, body)."""
    head, _, body = _read_raw(stream).partition(b"\r\n\r\n")
    status, *headers = head.split(b"\r\n")
    return status, headers, body


def _exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload``, return everything the server says until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(payload)
        except OSError:
            pass    # answered 400 and closed while we were still sending
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _bad_request(message: bytes) -> bytes:
    body = message + b"\n"
    return (b"HTTP/1.1 400 Bad Request\r\ncontent-length: %d\r\n"
            b"connection: close\r\n\r\n" % len(body)) + body


BAD_REQUESTS = {
    "malformed request line":
        (b"BOGUS\r\n\r\n", b"malformed request line: b'BOGUS\\r\\n'"),
    "not http":
        (b"GET /ok FTP/1.0\r\n\r\n",
         b"malformed request line: b'GET /ok FTP/1.0\\r\\n'"),
    "non-numeric content-length":
        (b"POST /accepted HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
         b"bad Content-Length: b'abc'"),
    "negative content-length":
        (b"POST /accepted HTTP/1.1\r\ncontent-length: -5\r\n\r\n",
         b"bad Content-Length: b'-5'"),
    "over-cap content-length":
        (b"POST /accepted HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
         % (_MAX_BODY_BYTES + 1), b"request body too large"),
    "over-cap header section, many lines":
        (b"GET /ok HTTP/1.1\r\n" + (b"x-filler: " + b"f" * 1000 + b"\r\n")
         * (_MAX_HEADER_BYTES // 1000 + 2) + b"\r\n",
         b"header section too large"),
    "over-cap header section, one line":
        (b"GET /ok HTTP/1.1\r\nx-filler: " + b"f" * (_MAX_HEADER_BYTES + 1024)
         + b"\r\n\r\n", b"header section too large"),
    "over-cap request line":
        (b"GET /" + b"p" * (_MAX_HEADER_BYTES + 1024) + b" HTTP/1.1\r\n\r\n",
         b"header section too large"),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_bad_requests_are_answered_400_and_closed(port, case, caplog):
    payload, message = BAD_REQUESTS[case]
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        assert _exchange(port, payload) == _bad_request(message)
        # the server is none the worse for it
        assert _exchange(port, b"GET /ok HTTP/1.0\r\n\r\n").startswith(
            b"HTTP/1.1 200 OK\r\n")
    assert not caplog.records       # no "Unhandled exception in client_connected_cb"


def test_response_heads_are_byte_stable(port):
    assert _exchange(
        port, b"GET /ok HTTP/1.1\r\nx-client: me\r\nconnection: close\r\n\r\n"
    ) == (b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n"
          b"content-length: 20\r\nconnection: close\r\n\r\n"
          b'{"a": "me", "b": 1}\n')
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"POST /accepted HTTP/1.1\r\nContent-Length: 8\r\n\r\n"
                     b'{"k": 2}')
        assert _read_raw(sock.makefile("rb")) == (
            b"HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\n"
            b"content-length: 18\r\nconnection: keep-alive\r\n\r\n"
            b'{"got": {"k": 2}}\n')


@pytest.mark.parametrize("request_bytes", [
    b"GET /ok HTTP/1.0\r\n\r\n",
    b"GET /ok HTTP/1.1\r\nConnection: Close\r\n\r\n",
], ids=["http/1.0", "connection: close"])
def test_close_requested_means_closed_after_the_reply(port, request_bytes):
    reply = _exchange(port, request_bytes)      # returns only at EOF
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"\r\nconnection: close\r\n\r\n" in reply
    assert reply.endswith(b'"b": 1}\n')


def test_keep_alive_connection_serves_requests_in_turn(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rb")
        for _ in range(2):
            sock.sendall(b"GET /ok HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(stream)
            assert status == b"HTTP/1.1 200 OK"
            assert headers == [b"content-type: application/json",
                               b"content-length: 27",
                               b"connection: keep-alive"]
            assert body == b'{"a": "127.0.0.1", "b": 1}\n'


def test_unknown_path_is_404_and_wrong_method_is_405_with_allow(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rb")
        sock.sendall(b"GET /nope?x=1 HTTP/1.1\r\n\r\n")
        assert _read_response(stream) == (
            b"HTTP/1.1 404 Not Found",
            [b"content-type: application/json", b"content-length: 37",
             b"connection: keep-alive"],
            b'{"error": "no such resource: /nope"}\n')
        sock.sendall(b"DELETE /accepted HTTP/1.1\r\n\r\n")
        assert _read_response(stream) == (
            b"HTTP/1.1 405 Method Not Allowed",
            [b"content-type: application/json", b"allow: POST",
             b"content-length: 39", b"connection: keep-alive"],
            b'{"error": "method DELETE not allowed"}\n')


def test_handler_exception_is_a_500_and_the_connection_lives_on(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rb")
        sock.sendall(b"GET /boom HTTP/1.1\r\n\r\n")
        status, headers, body = _read_response(stream)
        assert status == b"HTTP/1.1 500 Internal Server Error"
        assert headers[-1] == b"connection: keep-alive"
        assert body == b'{"error": "RuntimeError: handler bug"}\n'
        sock.sendall(b"GET /ok HTTP/1.1\r\n\r\n")
        assert _read_response(stream)[0] == b"HTTP/1.1 200 OK"


def test_event_stream_has_no_length_and_ends_by_close(port):
    assert _exchange(port, b"GET /items/7/events HTTP/1.1\r\n\r\n") == (
        b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\n"
        b"cache-control: no-cache\r\nconnection: close\r\n\r\n"
        b'event: running\ndata: {"item": "7"}\n\n'
        b'event: done\ndata: {"a": 2, "z": 1}\n\n')
