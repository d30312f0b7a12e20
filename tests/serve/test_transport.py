"""The HTTP/1.1 reader in :mod:`repro.serve.app`, over raw sockets.

Covers the protocol subset the API relies on (pipelining, HEAD,
keep-alive and close), typed errors for hostile request heads, and the
idle timeout that frees the thread of a stalled client.  Every hostile
case must be answered in bounded time, close the connection, and leave
no server-side traceback (``handle_error`` is never reached).
"""

from __future__ import annotations

import http.client
import socket
import threading
import time

import pytest

from repro.serve import app

#: Upper bound on any single socket wait in these tests.
CLIENT_TIMEOUT = 5.0


@pytest.fixture
def errors(server, monkeypatch):
    """Every exception that reached the server's ``handle_error``."""
    seen = []
    monkeypatch.setattr(server, "handle_error", lambda request, address: seen.append(address))
    return seen


def connect(server) -> socket.socket:
    sock = socket.create_connection(server.server_address[:2], timeout=CLIENT_TIMEOUT)
    sock.settimeout(CLIENT_TIMEOUT)
    return sock


def read_until_close(sock: socket.socket) -> bytes:
    """Everything the server sends before it closes the connection."""
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def read_response(rfile):
    """One response off a kept-alive connection's reader:
    (status, lowercased headers, body)."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rfile.read(int(headers.get("content-length", 0)))


def status_of(raw: bytes) -> int:
    return int(raw.split(b" ", 2)[1])


def exchange(server, payload: bytes) -> bytes:
    """Send ``payload``, return all bytes up to the server's close."""
    with connect(server) as sock:
        sock.sendall(payload)
        return read_until_close(sock)


def handler_threads() -> int:
    return sum("process_request_thread" in t.name for t in threading.enumerate())


# -- protocol ----------------------------------------------------------------


def test_pipelined_gets_answered_in_order(server, errors):
    with connect(server) as sock:
        sock.sendall(
            b"GET /v1/query?name=mux21 HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /v1/nope HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        rfile = sock.makefile("rb")
        first = read_response(rfile)
        second = read_response(rfile)
    assert first[0] == 200 and b'"count"' in first[2]
    assert second[0] == 404 and b"no such endpoint: /v1/nope" in second[2]
    assert not errors


def test_head_length_matches_get_body(http_get):
    _, _, body = http_get("/v1/report?format=csv")
    status, headers, head_body = http_get("/v1/report?format=csv", method="HEAD")
    assert status == 200 and head_body == b""
    assert int(headers["Content-Length"]) == len(body)


def test_response_headers(http_get):
    status, headers, body = http_get("/v1/stats")
    assert status == 200
    assert headers["Server"].startswith("mnt-bench Python/")
    assert headers["Date"].endswith(" GMT")
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    assert int(headers["Content-Length"]) == len(body)
    assert "Connection" not in headers


def test_not_modified_has_no_length(http_get):
    _, headers, _ = http_get("/v1/query")
    status, revalidated, body = http_get("/v1/query", {"If-None-Match": headers["ETag"]})
    assert status == 304 and body == b""
    assert "Content-Length" not in revalidated


@pytest.mark.parametrize(
    "head",
    [
        b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /v1/stats HTTP/1.0\r\n\r\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_close_requests_close(server, errors, head):
    raw = exchange(server, head)
    assert status_of(raw) == 200
    assert b"\r\nConnection: close\r\n" in raw
    assert raw.count(b"HTTP/1.1 ") == 1
    assert not errors


def test_http10_keep_alive_stays_open(server):
    with connect(server) as sock:
        rfile = sock.makefile("rb")
        for _ in range(2):
            sock.sendall(b"GET /v1/stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            assert read_response(rfile)[0] == 200


@pytest.mark.parametrize("body", [b"", b"body"], ids=["empty", "with-body"])
def test_post_gets_405_then_close(server, errors, body):
    raw = exchange(
        server,
        b"POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        + b"GET /v1/stats HTTP/1.1\r\n\r\n",
    )
    assert status_of(raw) == 405
    assert b"\r\nConnection: close\r\n" in raw
    assert raw.count(b"HTTP/1.1 ") == 1  # the pipelined GET is never read
    assert not errors


# -- hostile request heads ---------------------------------------------------


@pytest.mark.parametrize(
    "head, status",
    [
        (b"GET /v1/stats\r\n\r\n", 400),
        (b"GET /v1/stats HTTP/1.1 extra\r\n\r\n", 400),
        (b"GET /v1/stats FTP/1.1\r\n\r\n", 400),
        (b"GET /v1/stats HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
        (b"GET /v1/stats HTTP/1.1\r\n folded: value\r\n\r\n", 400),
        (b"GET /" + b"a" * app.MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /v1/stats HTTP/1.1\r\nX-Big: " + b"a" * app.MAX_LINE + b"\r\n\r\n", 431),
        (
            b"GET /v1/stats HTTP/1.1\r\n"
            + b"".join(b"X-H%d: v\r\n" % i for i in range(app.MAX_HEADERS + 1))
            + b"\r\n",
            431,
        ),
        (b"GET /v1/stats HTTP/2.0\r\n\r\n", 505),
        (b"GET /v1/stats HTTP/0.9\r\n\r\n", 505),
    ],
    ids=[
        "two-words",
        "four-words",
        "not-http",
        "header-without-colon",
        "folded-header",
        "long-target",
        "long-header",
        "too-many-headers",
        "http-2",
        "http-0.9",
    ],
)
def test_hostile_head_gets_typed_error_and_close(server, errors, head, status):
    started = time.monotonic()
    raw = exchange(server, head)
    assert time.monotonic() - started < CLIENT_TIMEOUT
    assert status_of(raw) == status
    assert b"\r\nConnection: close\r\n" in raw
    assert raw.endswith(b"}")  # the JSON error body, then the close
    assert not errors


def test_client_closing_mid_head_is_quiet(server, errors):
    with connect(server) as sock:
        sock.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n")
        sock.shutdown(socket.SHUT_WR)
        assert read_until_close(sock) == b""
    assert not errors


# -- idle and slow clients ---------------------------------------------------


def test_idle_and_stalled_clients_time_out(server, errors, monkeypatch):
    timeout = 0.5
    monkeypatch.setattr(app._Handler, "timeout", timeout)
    before = handler_threads()
    idle = [connect(server) for _ in range(30)]
    stalled = connect(server)
    stalled.sendall(b"GET /v1/sta")
    try:
        # A new client is served while every idle connection holds a thread.
        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=CLIENT_TIMEOUT)
        conn.request("GET", "/v1/stats")
        assert conn.getresponse().status == 200
        conn.close()

        raw = read_until_close(stalled)
        assert status_of(raw) == 408
        assert b"\r\nConnection: close\r\n" in raw
        for sock in idle:
            assert read_until_close(sock) == b""  # closed quietly, no response

        deadline = time.monotonic() + 4 * timeout
        while handler_threads() > before and time.monotonic() < deadline:
            time.sleep(0.05)
        assert handler_threads() <= before
    finally:
        for sock in idle + [stalled]:
            sock.close()
    assert not errors
