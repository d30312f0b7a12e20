"""Serving benchmark: the HTTP service under many-client load.

Closed-loop load generation over real sockets against a running
:class:`repro.serve.app.BenchServer`: N client *processes* (separate
interpreters, so client-side work never shares the server's GIL) each
drain an assigned stream of requests over one keep-alive HTTP/1.1
connection.  The mix models the hosted platform's traffic:

* ~45 % facet queries (Figure 1 filter combinations),
* ~40 % artifact downloads, hot-skewed like real traffic, with clients
  remembering ETags and revalidating (``If-None-Match`` → 304),
* ~10 % best-layout sweeps, ~5 % rendered reports.

Clients are *closed-loop with think time*: after consuming a response
(decode the transfer coding, hash the payload) each client idles for a
fixed think interval before its next request, modelling an interactive
consumer.  A single client therefore leaves the server idle most of the
time; the sweep measures how much of that idle time the threaded server
reclaims by overlapping independent clients — which is precisely what
the thread-per-connection server plus the snapshot/epoch read path buys, and it
is measurable even on a single-core host where raw CPU parallelism is
unavailable.

Before any timing, a byte-identical-payload oracle fetches every unique
URL once and compares it against the in-process serving API
(``query_payload``/``best_payload``/``artifact_text``/``build_report``)
— the HTTP layer must add transport, nothing else.  The client-count
sweep then measures aggregate req/s and per-endpoint latency
percentiles; the acceptance criterion is that 4 concurrent clients
reach ≥3x the single-client throughput (the threaded server's caching
fast paths — 304 short-circuits, epoch-keyed render caches, zero-copy
deflate slices — keep per-request CPU low enough to scale past the
GIL) while the server demonstrably saturates ≥4 handler threads.

Results go to ``BENCH_serve.json``.  Runnable standalone
(``python benchmarks/bench_serve.py``, ``--quick`` for a seconds-scale
smoke) or under ``pytest benchmarks/bench_serve.py -m slow``.
"""

from __future__ import annotations

import gzip
import hashlib
import http.client
import json
import zlib
import random
import statistics
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from tempfile import TemporaryDirectory
from urllib.parse import quote, urlencode

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from bench_platform import HOT_FRACTION, HOT_PROBABILITY, build_database, build_selections
from repro.analytics.report import build_report
from repro.core import BenchmarkDatabase, Selection
from repro.core.selection import AbstractionLevel
from repro.serve import ServeConfig, best_payload, make_server, query_payload

RESULT_PATH = Path(__file__).parent.parent / "BENCH_serve.json"

#: Acceptance floor: aggregate req/s at 4 clients vs. 1 client.
REQUIRED_SPEEDUP = 3.0

SEED = 4242

#: Request mix (fractions of the op stream).
QUERY_SHARE = 0.45
ARTIFACT_SHARE = 0.40
BEST_SHARE = 0.10  # remainder are report renders

CLIENT_SWEEP = (1, 2, 4, 8)
CLIENT_SWEEP_QUICK = (1, 4)

OPS_TOTAL = 6000
OPS_TOTAL_QUICK = 800

#: Closed-loop client think time between requests (seconds).  Sleep, not
#: CPU: the interval models a consumer processing the previous payload,
#: and it is the idle time concurrent clients let the server reclaim.
THINK_SECONDS = 0.004


def selection_to_query(selection: Selection) -> str:
    """Render a :class:`Selection` as ``/v1/query`` parameters."""
    params = [("level", level.value) for level in sorted(
        selection.abstraction_levels, key=lambda level: level.value
    )]
    for key, values in (
        ("library", selection.gate_libraries),
        ("scheme", selection.clocking_schemes),
        ("algorithm", selection.algorithms),
        ("optimization", selection.optimizations),
        ("suite", selection.suites),
        ("name", selection.names),
    ):
        params += [(key, value) for value in sorted(values)]
    if selection.best_only:
        params.append(("best", "1"))
    return urlencode(params)


def build_url_pool(db: BenchmarkDatabase, selections, rng: random.Random) -> dict:
    """URL pools per request kind, plus the oracle's expected payloads."""
    gate_records = [
        r for r in db.files() if r.abstraction_level is AbstractionLevel.GATE_LEVEL
    ]
    hot = gate_records[: max(1, int(len(gate_records) * HOT_FRACTION))]
    query_urls = [
        ("/v1/query?" + selection_to_query(s)).rstrip("?") for s in selections
    ]
    artifact_urls = ["/v1/artifact/" + quote(r.path) for r in gate_records]
    hot_urls = ["/v1/artifact/" + quote(r.path) for r in hot]
    best_urls = [
        "/v1/best",
        "/v1/best?" + urlencode([("library", "QCA ONE")]),
        "/v1/best?" + urlencode([("library", "Bestagon")]),
    ]
    report_urls = ["/v1/report?format=json", "/v1/report?format=markdown"]
    return {
        "query": query_urls,
        "artifact": artifact_urls,
        "artifact_hot": hot_urls,
        "best": best_urls,
        "report": report_urls,
    }


def build_ops(pool: dict, rng: random.Random, count: int) -> list:
    """The op stream: (kind, url) tuples with download skew."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < QUERY_SHARE:
            ops.append(("query", rng.choice(pool["query"])))
        elif roll < QUERY_SHARE + ARTIFACT_SHARE:
            urls = (
                pool["artifact_hot"]
                if rng.random() < HOT_PROBABILITY
                else pool["artifact"]
            )
            ops.append(("artifact", rng.choice(urls)))
        elif roll < QUERY_SHARE + ARTIFACT_SHARE + BEST_SHARE:
            ops.append(("best", rng.choice(pool["best"])))
        else:
            ops.append(("report", rng.choice(pool["report"])))
    return ops


# ---------------------------------------------------------------------------
# The client worker — runs in a separate process
# ---------------------------------------------------------------------------


def client_worker(args) -> dict:
    """Drain one op stream over a keep-alive connection, remembering
    ETags per URL and revalidating like a caching HTTP client."""
    host, port, ops, think_seconds = args
    conn = http.client.HTTPConnection(host, port, timeout=60)
    etags: dict[str, str] = {}
    latencies: dict[str, list] = {"query": [], "artifact": [], "best": [], "report": []}
    not_modified = 0
    errors = 0
    payload_bytes = 0
    digest = hashlib.sha256()
    for kind, url in ops:
        headers = {"Accept-Encoding": "gzip, deflate"}
        etag = etags.get(url)
        if etag is not None:
            headers["If-None-Match"] = etag
        started = time.perf_counter()
        conn.request("GET", url, headers=headers)
        response = conn.getresponse()
        body = response.read()
        latencies[kind].append(time.perf_counter() - started)
        if response.status == 304:
            not_modified += 1
        elif response.status != 200:
            errors += 1
        new_etag = response.getheader("ETag")
        if new_etag:
            etags[url] = new_etag
        payload_bytes += len(body)
        # A real consumer decodes the transfer coding and reads the
        # payload — the server's zero-copy deflate slices and cached
        # gzip bodies shift that work onto the client's own core.
        coding = response.getheader("Content-Encoding")
        if coding == "deflate":
            body = zlib.decompress(body)
        elif coding == "gzip":
            body = gzip.decompress(body)
        digest.update(body)
        if think_seconds:
            time.sleep(think_seconds)
    conn.close()
    return {
        "latencies": latencies,
        "not_modified": not_modified,
        "errors": errors,
        "payload_bytes": payload_bytes,
    }


def _warm_worker(_index: int) -> int:
    return _index


# ---------------------------------------------------------------------------
# The oracle — byte-identical payloads before any timing
# ---------------------------------------------------------------------------


def check_payloads_identical(host, port, db, selections, pool) -> dict:
    """Every served payload must equal the in-process serving API's."""
    conn = http.client.HTTPConnection(host, port, timeout=60)

    def fetch(url: str) -> bytes:
        conn.request("GET", url)
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, f"GET {url} -> {response.status}"
        return body

    queries_identical = True
    for selection, url in zip(selections, pool["query"]):
        served = json.loads(fetch(url))
        if served != query_payload(db, selection):
            queries_identical = False
            break

    by_path = {r.path: r for r in db.files()}
    artifacts_identical = all(
        fetch(url) == db.artifact_text(by_path[url[len("/v1/artifact/") :]]).encode("utf-8")
        for url in pool["artifact"]
    )

    best_identical = json.loads(fetch("/v1/best")) == best_payload(db)
    report_identical = fetch("/v1/report?format=json").decode(
        "utf-8"
    ) == build_report(db, None).render("json")
    conn.close()
    return {
        "queries_identical": queries_identical,
        "artifacts_byte_identical": artifacts_identical,
        "best_identical": best_identical,
        "report_identical": report_identical,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _percentiles(values) -> dict:
    if not values:
        return {"count": 0}
    ordered = sorted(values)

    def at(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(len(ordered) * q))]

    return {
        "count": len(ordered),
        "p50": at(0.50),
        "p95": at(0.95),
        "p99": at(0.99),
        "mean": statistics.fmean(ordered),
    }


def run_level(host, port, ops, clients: int) -> dict:
    """One sweep level: ``clients`` concurrent closed-loop processes."""
    chunks = [
        (host, port, ops[i::clients], THINK_SECONDS) for i in range(clients)
    ]
    with ProcessPoolExecutor(max_workers=clients) as pool:
        # Touch every worker once so process start-up is off the clock.
        list(pool.map(_warm_worker, range(clients)))
        started = time.perf_counter()
        results = list(pool.map(client_worker, chunks))
        wall = time.perf_counter() - started
    merged = {"query": [], "artifact": [], "best": [], "report": []}
    for result in results:
        for kind, values in result["latencies"].items():
            merged[kind].extend(values)
    return {
        "clients": clients,
        "operations": len(ops),
        "wall_seconds": wall,
        "requests_per_second": len(ops) / wall if wall else None,
        "not_modified": sum(r["not_modified"] for r in results),
        "errors": sum(r["errors"] for r in results),
        "payload_bytes": sum(r["payload_bytes"] for r in results),
        "latency_seconds": {
            kind: _percentiles(values) for kind, values in merged.items()
        },
    }


def bench_serve(quick: bool) -> dict:
    rng = random.Random(SEED)
    sweep = CLIENT_SWEEP_QUICK if quick else CLIENT_SWEEP
    op_count = OPS_TOTAL_QUICK if quick else OPS_TOTAL
    with TemporaryDirectory(prefix="bench_serve_") as tmp:
        root = Path(tmp)
        db = build_database(root, quick)
        selections = build_selections(rng, quick)
        pool = build_url_pool(db, selections, rng)
        ops = build_ops(pool, rng, op_count)

        server = make_server(
            ServeConfig(database=root, port=0, warm=True, check_interval=1.0)
        )
        host, port = server.server_address[:2]
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        try:
            correctness = check_payloads_identical(host, port, db, selections, pool)
            levels = [run_level(host, port, ops, clients) for clients in sweep]
            peak_threads = server.peak_threads
            stats = server.service.counters.copy()
        finally:
            server.close()
            server_thread.join(timeout=10)
            db.store.close()

    by_clients = {level["clients"]: level for level in levels}
    speedup = None
    if 1 in by_clients and 4 in by_clients:
        speedup = (
            by_clients[4]["requests_per_second"]
            / by_clients[1]["requests_per_second"]
        )
    return {
        "database": {"records": len(db.files())},
        "workload": {
            "operations": op_count,
            "client_sweep": list(sweep),
            "think_seconds": THINK_SECONDS,
            "mix": {
                "query": QUERY_SHARE,
                "artifact": ARTIFACT_SHARE,
                "best": BEST_SHARE,
                "report": round(1 - QUERY_SHARE - ARTIFACT_SHARE - BEST_SHARE, 3),
            },
        },
        "correctness": correctness,
        "levels": levels,
        "peak_handler_threads": peak_threads,
        "server_counters": stats,
        "speedup_4_clients_vs_1": speedup,
    }


def run_all(
    quick: bool = False, write: bool = True, output: Path | None = None
) -> dict:
    results = {"quick": quick, "serve": bench_serve(quick)}
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _check_correctness(serve: dict) -> None:
    correctness = serve["correctness"]
    assert correctness["queries_identical"], correctness
    assert correctness["artifacts_byte_identical"], correctness
    assert correctness["best_identical"], correctness
    assert correctness["report_identical"], correctness
    assert all(level["errors"] == 0 for level in serve["levels"])


@pytest.mark.slow
@pytest.mark.benchmark(group="serve")
def test_serve_scaling(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    serve = results["serve"]
    _check_correctness(serve)
    assert serve["peak_handler_threads"] >= 4
    assert serve["speedup_4_clients_vs_1"] >= REQUIRED_SPEEDUP, (
        f"4 clients only {serve['speedup_4_clients_vs_1']:.2f}x over 1 "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def _print_results(serve: dict) -> None:
    print(f"database: {serve['database']['records']} records")
    for level in serve["levels"]:
        print(
            f"{level['clients']:2d} client(s): "
            f"{level['requests_per_second']:8.0f} req/s  "
            f"({level['wall_seconds']:.2f} s wall, "
            f"{level['not_modified']} × 304, {level['errors']} errors)"
        )
        for kind, row in level["latency_seconds"].items():
            if not row.get("count"):
                continue
            print(
                f"    {kind:8s} p50 {row['p50'] * 1e6:8.1f} µs  "
                f"p95 {row['p95'] * 1e6:8.1f} µs  "
                f"p99 {row['p99'] * 1e6:8.1f} µs  (n={row['count']})"
            )
    print(f"peak handler threads: {serve['peak_handler_threads']}")
    if serve["speedup_4_clients_vs_1"] is not None:
        print(f"speedup 4 vs 1 clients: {serve['speedup_4_clients_vs_1']:.2f}x")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_results(results["serve"])
    _check_correctness(results["serve"])
    if not results["quick"]:
        assert results["serve"]["peak_handler_threads"] >= 4
        assert results["serve"]["speedup_4_clients_vs_1"] >= REQUIRED_SPEEDUP
    print(f"written to {output or RESULT_PATH}")
