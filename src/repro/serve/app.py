"""The HTTP transport: a threaded socket server around
:class:`~repro.serve.handlers.BenchService`.

One handler thread per connection (``ThreadingMixIn``), so an uncached
cell-level render never stalls other clients, and HTTP/1.1 keep-alive
so benchmark clients pay the TCP handshake once.  The handler is a
small HTTP/1.1 reader for the subset the API uses:

* the request line and at most :data:`MAX_HEADERS` header lines, each
  at most :data:`MAX_LINE` bytes, are read into a lowercased dict —
  over-long or malformed heads get a typed ``400``/``414``/``431``/
  ``505`` and a close;
* the parsed head becomes a :class:`~repro.serve.handlers.Request` for
  :meth:`BenchService.handle`;
* the status line and headers are joined into one block and leave in
  one ``sendall`` together with small bodies (large bodies follow in a
  second ``sendall`` rather than being copied into the block);
* a connection idle for :attr:`_Handler.timeout` seconds is closed,
  and a request head that stalls halfway gets ``408`` first.

``make_server(port=0)`` binds an ephemeral port, which is what the test
fixtures and the qa ``serve_agreement`` oracle use.
"""

from __future__ import annotations

import re
import socketserver
import sys
import threading
import time
from dataclasses import dataclass
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from ..core.snapshot import SnapshotManager
from .handlers import BenchService, Request, Response, _error


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for one server instance."""

    database: Path
    host: str = "127.0.0.1"
    port: int = 8765
    #: Parse the Bestagon layouts (the ones ``format=sqd`` downloads
    #: load) into the layout cache before binding; the facet index is
    #: built with every snapshot either way.
    warm: bool = False
    #: Seconds between on-disk epoch checks on the request path.
    check_interval: float = 1.0


#: Longest request line or header line accepted, in bytes (CRLF included).
MAX_LINE = 8192
#: Most header lines accepted in one request head.
MAX_HEADERS = 100
#: Bodies up to this size are joined to the header block and sent in
#: one ``sendall``; larger ones are sent after it without a copy.
JOIN_LIMIT = 64 * 1024

_SERVER = f"Server: mnt-bench Python/{sys.version.split()[0]}\r\n"
_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_VERSION = re.compile(r"HTTP/([0-9])\.([0-9])", re.ASCII)
_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+", re.ASCII)

#: ``(second, "Server: …\r\nDate: …\r\n")`` — the Date is formatted
#: once per second, not once per response.
_date_block = (0, "")


def _server_and_date() -> str:
    global _date_block
    now = int(time.time())
    second, block = _date_block
    if second != now:
        block = f"{_SERVER}Date: {formatdate(now, usegmt=True)}\r\n"
        _date_block = (now, block)
    return block


class _BadHead(Exception):
    """A request head the reader refuses, with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _read_head(rfile) -> tuple[str, str, dict, bool] | None:
    """``(method, target, headers, keep_alive)`` of the next request,
    ``None`` when the client closed the connection inside the head.
    Raises :class:`_BadHead` for a head the server refuses."""
    line = rfile.readline(MAX_LINE + 1)
    if line in (b"\r\n", b"\n"):  # RFC 9112 §2.2: skip one empty line
        line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise _BadHead(414, "request line too long")
    if not line.endswith(b"\n"):
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise _BadHead(400, "malformed request line")
    method, target, version = words
    match = _VERSION.fullmatch(version)
    if match is None:
        raise _BadHead(400, f"malformed HTTP version {version!r}")
    if match.group(1) != "1":
        raise _BadHead(505, f"HTTP version {version} not supported")
    if target.startswith("//"):  # never let a path read as a network path
        target = "/" + target.lstrip("/")

    headers: dict = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise _BadHead(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            break
        if not line.endswith(b"\n"):
            return None
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or _TOKEN.fullmatch(name) is None:
            raise _BadHead(400, "malformed header line")
        headers[name.lower()] = value.strip()
    else:
        raise _BadHead(431, "too many headers")

    options = {token.strip() for token in headers.get("connection", "").lower().split(",")}
    if match.group(2) == "0":
        keep_alive = "keep-alive" in options
    else:
        keep_alive = "close" not in options
    if headers.get("content-length", "0") != "0" or "transfer-encoding" in headers:
        keep_alive = False  # an unread body would desync the next request
    return method, target, headers, keep_alive


class _Handler(socketserver.StreamRequestHandler):
    """Read request heads off one connection, delegate, write responses."""

    #: Seconds a connection may sit idle, or one read of a request
    #: head may stall, before the connection is closed.
    timeout = 30.0
    #: TCP_NODELAY: a large body leaves in a second ``sendall`` after
    #: the header block, and Nagle + delayed ACK would stall it ~40 ms.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # reset, broken pipe or a stalled write: the client is gone

    def _serve_one(self) -> bool:
        """Serve the next request; False once the connection should close."""
        try:
            if not self.rfile.peek(1):
                return False  # the client closed an idle connection
        except TimeoutError:
            return False  # idle for too long: close quietly
        try:
            head = _read_head(self.rfile)
        except TimeoutError:
            self._write(_error(408, "request head timed out"), False)
            return False
        except _BadHead as exc:
            self._write(_error(exc.status, str(exc)), False)
            return False
        if head is None:
            return False
        return self._respond(*head)

    def _respond(self, method: str, target: str, headers: dict, keep_alive: bool) -> bool:
        """One request, from its parsed head to the response bytes written;
        returns whether the connection stays open."""
        server: BenchServer = self.server  # type: ignore[assignment]
        server.track_enter()
        try:
            split = urlsplit(target)
            request = Request(
                method=method,
                path=unquote(split.path),
                params=parse_qs(split.query),
                headers=headers,
            )
            response = server.service.handle(request)
            # The body of any other method is unread: close after it.
            keep_alive = keep_alive and method in ("GET", "HEAD")
            self._write(response, keep_alive, head_only=method == "HEAD")
            return keep_alive
        finally:
            server.track_exit()

    def _write(self, response: Response, keep_alive: bool, head_only: bool = False) -> None:
        status = response.status
        parts = [_STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n", _server_and_date()]
        if response.content_type:
            parts.append(f"Content-Type: {response.content_type}\r\n")
        for name, value in response.headers.items():
            parts.append(f"{name}: {value}\r\n")
        body = response.body
        if status == 304:
            body = b""
        else:
            parts.append(f"Content-Length: {len(body)}\r\n")
        if not keep_alive:
            parts.append("Connection: close\r\n")
        parts.append("\r\n")
        head = "".join(parts).encode("latin-1")
        if head_only or not body:
            self.connection.sendall(head)
        elif len(body) <= JOIN_LIMIT:
            self.connection.sendall(head + body)
        else:
            self.connection.sendall(head)
            self.connection.sendall(body)


class BenchServer(socketserver.ThreadingTCPServer):
    """A threaded HTTP server owning one :class:`BenchService`."""

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog; the ``socketserver`` default of 5 drops the SYNs
    #: of a burst of new clients, which then retry after a second.
    request_queue_size = 128

    def __init__(self, address, service: BenchService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._active_lock = threading.Lock()
        self._active = 0
        #: Highest number of concurrently running handler threads seen —
        #: the serving benchmark's saturation evidence.
        self.peak_threads = 0

    def track_enter(self) -> None:
        with self._active_lock:
            self._active += 1
            if self._active > self.peak_threads:
                self.peak_threads = self._active

    def track_exit(self) -> None:
        with self._active_lock:
            self._active -= 1

    @property
    def manager(self) -> SnapshotManager:
        return self.service.manager

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.service.manager.close()


def make_server(config: ServeConfig) -> BenchServer:
    """Build a ready-to-run server (``port=0`` binds an ephemeral port;
    read the actual one from ``server.server_address``)."""
    manager = SnapshotManager(config.database, check_interval=config.check_interval)
    warm_stats = manager.warm() if config.warm else None
    service = BenchService(manager)
    if warm_stats is not None:
        service.counters.update(warm_stats)
    return BenchServer((config.host, config.port), service)


def serve(config: ServeConfig) -> None:
    """Run until interrupted (the ``mnt-bench serve`` entry point)."""
    server = make_server(config)
    host, port = server.server_address[:2]
    snapshot = server.manager.current()
    print(
        f"mnt-bench serve: {len(snapshot.records)} records "
        f"(epoch {snapshot.epoch}) on http://{host}:{port}"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        server.manager.close()
