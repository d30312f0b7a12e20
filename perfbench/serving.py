"""The serving half of a workload: a real ``make_server`` child process
and a single-process HTTP client on one keep-alive connection per
session.

Phases, in order, against a freshly started server:

* ``export`` — every gate-level artifact once in its cell-level format
  (``format=qca`` for QCA ONE, ``format=sqd`` for Bestagon) from the
  cold server; its CPU time is ``export_s``.
* catalogue pass — every URL of the browse pool once.  It fills the
  server's render caches (users do not pay a report render on every
  visit) and keeps a digest of each body for the correctness check.
* open-loop browse — the hosted platform's traffic as
  ``benchmarks/bench_serve.py`` models it: its URL pool (Figure 1
  queries, artifact downloads with a hot set, rankings, reports), its
  seeded op stream (45 % query, 40 % artifact with hot skew, 10 % best,
  5 % report) and its caching client, which remembers each URL's ETag
  and revalidates with ``If-None-Match``.  The client keeps its ETags
  across a run's rounds, so each loop is one visitor's session and
  first visits stay a small share of it, as in that model.  Requests
  are sent at one fixed rate regardless of completions.
* closed-loop browse — a second caching client sending another stream
  of the same mix back to back, for throughput.

Serving is timed in CPU time, not wall time: the client and the server
child share one CPU (see ``run.pin_cpu``), one request is in flight at a
time, and the CPU seconds both processes spend between sending a request
and reading its reply are what its latency is on a CPU of its own.  The
hypervisor of a shared host takes that CPU away at times, which made the
wall-clock p50 of the same code differ by half between two sets of runs;
process CPU clocks leave the stolen time out.  The CPU times are then
calibrated (:mod:`speed`).  A single request is too short to hold a
probe, so its latency is scaled by the speed the probes measured over
the requests around it.  Wall times stay in the per-layer metrics
(``serve.transport_ms``, ``serve.generator_lag_ms``).
"""

from __future__ import annotations

import gzip
import hashlib
import http.client
import json
import math
import random
import selectors
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs, quote, unquote, urlsplit

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "benchmarks"))

import speed  # noqa: E402
from bench_serve import build_ops, build_url_pool  # noqa: E402
from repro.core import Selection  # noqa: E402
from repro.core.selection import AbstractionLevel  # noqa: E402
from repro.gatelibs.apply import apply_gate_library  # noqa: E402
from repro.io.fgl import fgl_to_layout  # noqa: E402
from repro.io.qca import cell_layout_to_qca  # noqa: E402
from repro.io.sqd import sidb_layout_to_sqd  # noqa: E402
from repro.layout import Topology  # noqa: E402
from repro.optimization import to_hexagonal  # noqa: E402
from repro.serve import best_payload, query_payload  # noqa: E402
from repro.serve.handlers import Request, _json_response, selection_from_params  # noqa: E402

#: Open-loop browse requests per run (split over its rounds) and their
#: fixed send rate, about a fifth of what one CPU sustains on this mix.
#: 4000 samples leave 40 beyond the 99th percentile.
OPEN_LOOP_REQUESTS = 4000
OPEN_LOOP_RATE = 500.0
#: Closed-loop browse requests per run (split over its rounds): about
#: two seconds of CPU.
CLOSED_LOOP_REQUESTS = 9000
#: Open-loop requests on either side of one whose latency is scaled by
#: the probes' speed over them: 0.2 s, about 20 probes.
LOCAL_REACH = 50
HEADERS = {"Accept-Encoding": "gzip, deflate"}
START_TIMEOUT = 60.0


class ServerProcess:
    """``perfbench/server_child.py`` serving one database directory."""

    def __init__(self, database: Path, trace: bool, spans_path: Path) -> None:
        self.database = database
        self.trace = trace
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: The child's peak RSS, read when it is stopped.
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), str(self.database),
             "1" if self.trace else "0", str(self.spans_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            ready = selector.select(START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("server child did not report its port")
        self.port = int(line)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def cpu_seconds(self) -> float:
        """CPU time of the running server child, all threads, finished
        ones included: its process CPU clock, whose id Linux derives from
        the pid (``clock_getcpuclockid``)."""
        return time.clock_gettime(((~self.proc.pid) << 3) | 2)

    def stop(self) -> dict | None:
        """Close the child's stdin (its shutdown signal) and wait; returns
        the child's trace when it wrote one."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        try:
            self.peak_rss_mb = _peak_rss_mb(proc.pid)
            proc.stdin.close()
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()
        if self.trace and self.spans_path.exists():
            return json.loads(self.spans_path.read_text(encoding="utf-8"))
        return None


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a running process (0 once it has ended)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Reply:
    status: int
    etag: str | None
    encoding: str | None
    body: bytes

    def payload(self) -> bytes:
        if self.encoding == "gzip":
            return gzip.decompress(self.body)
        if self.encoding == "deflate":
            return zlib.decompress(self.body)
        return self.body

    def digest(self) -> str:
        return _sha256(self.payload())


@dataclass
class ServeResult:
    """Timings, accounting and body digests of one serving round."""

    export_times: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    #: Client-side wall time of every request, for ``serve.transport_ms``.
    request_ms: list = field(default_factory=list)
    closed_requests: int = 0
    closed_s: float = 0.0
    #: Peak RSS of each server child of the round.
    server_rss_mb: list = field(default_factory=list)
    #: ``(record, payload digest or None)`` per exported artifact.
    exports: list = field(default_factory=list)
    #: ``(url, status or None, payload digest)`` per catalogue URL.
    bodies: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


class Client:
    """One keep-alive connection with request accounting.  Given an
    ``etags`` dict it remembers each URL's ETag there and revalidates,
    like the client of ``benchmarks/bench_serve.py``."""

    def __init__(self, port: int, out: ServeResult, etags: dict | None = None) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.out = out
        self.etags = etags

    def get(self, url: str) -> Reply | None:
        headers = dict(HEADERS)
        etag = self.etags.get(url) if self.etags is not None else None
        if etag is not None:
            headers["If-None-Match"] = etag
        self.out.attempted += 1
        started = time.perf_counter()
        try:
            self.conn.request("GET", url, headers=headers)
            response = self.conn.getresponse()
            reply = Reply(response.status, response.getheader("ETag"),
                          response.getheader("Content-Encoding"), response.read())
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request reconnects
            reply = None
        self.out.request_ms.append((time.perf_counter() - started) * 1e3)
        if reply is None or not (200 <= reply.status < 300 or reply.status == 304):
            self.out.failed += 1
        elif self.etags is not None and reply.etag:
            self.etags[url] = reply.etag
        return reply

    def close(self) -> None:
        self.conn.close()


# -- the browse pool ---------------------------------------------------------------


def gate_level(db) -> list:
    return [record for record in db.files()
            if record.abstraction_level is AbstractionLevel.GATE_LEVEL]


def browse_selections(db) -> list[Selection]:
    """Figure 1's form filled in one facet value at a time, each also as
    a best-only ranking."""
    records = gate_level(db)
    selections = [Selection.make(), Selection.make(best_only=True),
                  Selection.make(abstraction_levels="gate-level"),
                  Selection.make(abstraction_levels="network")]
    for keyword, attr in (("gate_libraries", "gate_library"),
                          ("clocking_schemes", "clocking_scheme"),
                          ("algorithms", "algorithm"), ("names", "name")):
        for value in sorted({getattr(r, attr) for r in records}):
            selections += [Selection.make(**{keyword: [value]}),
                           Selection.make(best_only=True, **{keyword: [value]})]
    return selections


def catalogue_urls(pool: dict) -> list[str]:
    """Every distinct URL of a browse pool."""
    urls = pool["query"] + pool["artifact"] + pool["best"] + pool["report"]
    return list(dict.fromkeys(urls))


# -- phases ------------------------------------------------------------------------


def cell_format(record) -> str:
    return "sqd" if record.gate_library == "Bestagon" else "qca"


def reading(server: ServerProcess) -> speed.Reading:
    """CPU clocks of this process (the client) and the server child."""
    return speed.read(server.cpu_seconds())


def export(db, server: ServerProcess, tracer, out: ServeResult) -> None:
    """Every gate-level artifact once in its cell-level format."""
    client = Client(server.port, out)
    try:
        with tracer.span("phase.export"):
            started = reading(server)
            for record in gate_level(db):
                reply = client.get(
                    f"/v1/artifact/{quote(record.path)}?format={cell_format(record)}")
                out.exports.append(
                    (record, reply.digest() if reply and reply.status == 200 else None))
            out.export_times.append(speed.calibrated(started, reading(server)))
    finally:
        client.close()


def browse(db, server: ServerProcess, rng: random.Random, tracer, out: ServeResult,
           share: float, etags: tuple[dict, dict]) -> None:
    """Catalogue pass, open-loop and closed-loop browse; ``share`` is
    this round's part of the run's browse requests and ``etags`` the
    ETags the open- and closed-loop clients remember across rounds."""
    pool = build_url_pool(db, browse_selections(db), rng)
    client = Client(server.port, out)
    try:
        for url in catalogue_urls(pool):
            reply = client.get(url)
            out.bodies.append((url, reply and reply.status,
                               reply.digest() if reply else None))
    finally:
        client.close()

    client = Client(server.port, out, etags[0])
    try:
        interval = 1.0 / OPEN_LOOP_RATE
        begin = time.perf_counter() + interval
        ops = build_ops(pool, rng, math.ceil(share * OPEN_LOOP_REQUESTS))
        works, marks = [], []
        for index, (_, url) in enumerate(ops):
            due = begin + index * interval
            while time.perf_counter() < due:
                pass
            out.lags_ms.append((time.perf_counter() - due) * 1e3)
            marks.append(reading(server))
            client.get(url)
            works.append(speed.work(marks[-1], reading(server)))
        marks.append(reading(server))
        out.latencies_ms += [seconds * 1e3 for seconds in
                             speed.calibrated_each(works, marks, LOCAL_REACH)]
    finally:
        client.close()

    client = Client(server.port, out, etags[1])
    try:
        ops = build_ops(pool, rng, math.ceil(share * CLOSED_LOOP_REQUESTS))
        with tracer.span("phase.browse"):
            started = reading(server)
            for _, url in ops:
                client.get(url)
            out.closed_s = speed.calibrated(started, reading(server))
        out.closed_requests = len(ops)
        stats = client.get("/v1/stats")
        if stats is not None and stats.status == 200:
            out.stats = json.loads(stats.payload())
    finally:
        client.close()


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (nearest rank above) of ``values``."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


# -- correctness -----------------------------------------------------------------


def cell_level_text(db, record) -> str:
    """The in-process cell-level payload of one stored artifact."""
    layout = fgl_to_layout(db.artifact_text(record))
    fmt = cell_format(record)
    if fmt == "sqd" and layout.topology is Topology.CARTESIAN:
        layout = to_hexagonal(layout).layout
    cells = apply_gate_library(layout, record.gate_library)
    return sidb_layout_to_sqd(cells) if fmt == "sqd" else cell_layout_to_qca(cells)


def expected_body(db, url: str, records: dict) -> bytes:
    """The in-process payload of one browse URL, parsed the way the
    server parses it."""
    split = urlsplit(url)
    path = unquote(split.path)
    if path.startswith("/v1/artifact/"):
        return db.artifact_text(records[path[len("/v1/artifact/"):]]).encode("utf-8")
    request = Request("GET", path, parse_qs(split.query), {})
    selection = selection_from_params(request)
    if path == "/v1/query":
        return _json_response(query_payload(db, selection)).body
    if path == "/v1/best":
        return _json_response(best_payload(db, selection)).body
    return db.report(selection).render(request.first("format")).encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_serving(db, result: ServeResult, expected_cells: dict) -> list[str]:
    """Exported cell-level payloads and catalogue bodies against the
    in-process API; returns one line per mismatch.  ``expected_cells``
    memoizes the in-process payload digest per stored artifact."""
    problems = []
    for record, digest in result.exports:
        if digest is None:
            problems.append(f"export of {record.path} failed")
            continue
        key = (record.path, db.store.entry(record.path)["sha256"])
        if key not in expected_cells:
            expected_cells[key] = _sha256(cell_level_text(db, record).encode("utf-8"))
        if digest != expected_cells[key]:
            problems.append(f"exported {record.path} differs from the in-process writer")
    records = {record.path: record for record in db.files()}
    for url, status, digest in result.bodies:
        if status != 200:
            problems.append(f"{url} failed")
        elif digest != _sha256(expected_body(db, url, records)):
            problems.append(f"{url} differs from the in-process payload")
    return problems
