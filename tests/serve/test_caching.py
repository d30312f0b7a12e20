"""Conditional-GET, compression and cache behaviour of the server.

The ETag/304 and gzip round-trips run over real sockets
(``http.client`` against the ephemeral server fixture); the negotiation
primitives in :mod:`repro.serve.http_utils` are unit-tested directly.
"""

from __future__ import annotations

import gzip
import json
import zlib

import repro.serve.handlers as handlers_module
import repro.serve.http_utils as http_utils_module
from repro.core import SnapshotManager
from repro.serve.handlers import BenchService, Request
from repro.serve.http_utils import (
    MIN_COMPRESS_SIZE,
    GzipEncoder,
    LruCache,
    etag_matches,
    parse_accept_encoding,
    strong_etag,
)

# -- ETag / 304 over the wire ------------------------------------------------


def test_query_etag_304_round_trip(http_get):
    status, headers, body = http_get("/v1/query?level=gate-level")
    assert status == 200
    etag = headers["ETag"]

    status, headers, body = http_get(
        "/v1/query?level=gate-level", headers={"If-None-Match": etag}
    )
    assert status == 304
    assert body == b""
    assert headers["ETag"] == etag

    # A stale validator still gets the full payload.
    status, _, body = http_get(
        "/v1/query?level=gate-level", headers={"If-None-Match": '"stale"'}
    )
    assert status == 200
    assert body != b""


def test_artifact_etag_304_round_trip(http_get, server):
    record = server.manager.current().records[1]
    path = f"/v1/artifact/{record.path}"
    status, headers, _ = http_get(path)
    assert status == 200
    etag = headers["ETag"]

    status, _, body = http_get(path, headers={"If-None-Match": etag})
    assert status == 304 and body == b""
    assert server.service.counters["not_modified"] >= 1


def test_etag_stable_across_requests_and_weak_prefix(http_get):
    _, first, _ = http_get("/v1/query")
    _, second, _ = http_get("/v1/query")
    assert first["ETag"] == second["ETag"]

    status, _, _ = http_get(
        "/v1/query", headers={"If-None-Match": "W/" + first["ETag"]}
    )
    assert status == 304


def test_different_selections_get_different_etags(http_get):
    _, a, _ = http_get("/v1/query?library=QCA+ONE")
    _, b, _ = http_get("/v1/query?library=Bestagon")
    assert a["ETag"] != b["ETag"]


# -- compression over the wire ----------------------------------------------


def test_gzip_round_trip(http_get):
    _, _, plain = http_get("/v1/query")
    status, headers, body = http_get(
        "/v1/query", headers={"Accept-Encoding": "gzip"}
    )
    assert status == 200
    assert headers["Content-Encoding"] == "gzip"
    assert len(body) < len(plain)
    assert gzip.decompress(body) == plain


def test_gzip_cell_level_round_trip(http_get, server):
    """A negotiated gzip ``.qca`` download decodes to the identity body."""
    record = next(
        r for r in server.manager.current().records if r.gate_library == "QCA ONE"
    )
    path = f"/v1/artifact/{record.path}?format=qca"
    _, plain_headers, plain = http_get(path)
    status, headers, body = http_get(path, headers={"Accept-Encoding": "gzip"})
    assert status == 200
    assert "Content-Encoding" not in plain_headers
    assert headers["Content-Encoding"] == "gzip"
    assert gzip.decompress(body) == plain


def test_gzip_cache_hit_on_repeat(http_get, server):
    for _ in range(2):
        http_get("/v1/query", headers={"Accept-Encoding": "gzip"})
    assert server.service.gzip.cache.hits >= 1


def test_small_body_not_compressed(http_get):
    # The 404 error payload is far below MIN_COMPRESS_SIZE.
    status, headers, body = http_get(
        "/v1/artifact/missing.fgl", headers={"Accept-Encoding": "gzip"}
    )
    assert status == 404
    assert "Content-Encoding" not in headers
    assert len(body) < MIN_COMPRESS_SIZE


def test_zero_copy_deflate_download(http_get, server, serve_db_root):
    """Packed artifacts ship as raw pack slices under ``deflate``."""
    record = server.manager.current().records[1]
    status, headers, body = http_get(
        f"/v1/artifact/{record.path}", headers={"Accept-Encoding": "deflate"}
    )
    assert status == 200
    assert headers["Content-Encoding"] == "deflate"
    assert headers["X-MNT-Source"] == "pack-deflate"
    # The slice decompresses to exactly the canonical artifact bytes.
    assert zlib.decompress(body) == (serve_db_root / record.path).read_bytes()
    # And it really is the pre-compressed form, much smaller than raw.
    assert len(body) < len(zlib.decompress(body))


def test_deflate_preferred_over_gzip_for_artifacts(http_get, server):
    record = server.manager.current().records[1]
    _, headers, _ = http_get(
        f"/v1/artifact/{record.path}",
        headers={"Accept-Encoding": "gzip, deflate"},
    )
    assert headers["Content-Encoding"] == "deflate"


def test_best_render_cache_reused(http_get, server):
    for _ in range(2):
        status, _, _ = http_get("/v1/best")
        assert status == 200
    assert server.service.render_cache.hits >= 1


# -- negotiation primitives --------------------------------------------------


def test_parse_accept_encoding():
    assert parse_accept_encoding(None) == set()
    assert parse_accept_encoding("gzip") == {"gzip"}
    assert parse_accept_encoding("gzip, deflate;q=0.5, br") == {
        "gzip",
        "deflate",
        "br",
    }
    assert parse_accept_encoding("gzip;q=0") == set()
    assert parse_accept_encoding("GZIP;q=1.0") == {"gzip"}
    assert parse_accept_encoding("identity;q=bogus") == set()


def test_strong_etag_deterministic_and_quoted():
    a = strong_etag("query", "digest", "selection")
    assert a == strong_etag("query", "digest", "selection")
    assert a.startswith('"') and a.endswith('"')
    assert a != strong_etag("query", "digest", "other")
    # Separator prevents concatenation collisions.
    assert strong_etag("ab", "c") != strong_etag("a", "bc")


def test_etag_matches():
    etag = '"abc"'
    assert etag_matches('"abc"', etag)
    assert etag_matches('W/"abc"', etag)
    assert etag_matches('"x", "abc"', etag)
    assert etag_matches("*", etag)
    assert not etag_matches('"nope"', etag)
    assert not etag_matches(None, etag)
    assert not etag_matches("", etag)


def test_lru_cache_eviction_and_stats():
    cache = LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["hits"] == 3 and stats["misses"] == 1


def test_lru_cache_evicts_by_bytes():
    cache = LruCache(10, maxbytes=10)
    cache.put("a", b"1234")
    cache.put("b", b"5678")
    assert cache.get("a") == b"1234"  # "b" is now least recently used
    cache.put("c", b"90ab")  # 12 bytes: evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == b"1234" and cache.get("c") == b"90ab"
    cache.put("a", b"1")  # a replaced value gives its bytes back
    assert cache.stats()["bytes"] == 5 and len(cache) == 2


def test_lru_cache_skips_values_over_the_byte_bound():
    cache = LruCache(10, maxbytes=10)
    cache.put("small", b"12345")
    cache.put("large", b"x" * 11)  # served by the caller, never cached
    assert cache.get("large") is None
    assert cache.get("small") == b"12345"
    assert cache.stats()["bytes"] == 5


def test_oversized_cell_level_body_is_served_uncached(serve_db_root, monkeypatch):
    """A body over the render cache's byte bound is rendered on every
    request and never evicts what the cache holds."""
    monkeypatch.setattr(handlers_module, "DEFAULT_RENDER_CACHE_BYTES", 100)
    service = BenchService(SnapshotManager(serve_db_root, check_interval=0.0))
    record = next(
        r for r in service.manager.current().records if r.gate_library == "QCA ONE"
    )
    request = Request("GET", f"/v1/artifact/{record.path}", {"format": ["qca"]}, {})
    first = service.handle(request)
    second = service.handle(request)
    assert first.status == second.status == 200
    assert len(first.body) > 100 and first.body == second.body
    assert len(service.render_cache) == 0
    assert service.render_cache.stats()["misses"] == 2
    service.manager.close()


def test_gzip_encoder_caches_by_etag():
    encoder = GzipEncoder(cache_size=4)
    body = b"x" * 1024
    first = encoder.encode(body, '"tag"')
    second = encoder.encode(body, '"tag"')
    assert first is second  # served from cache
    assert gzip.decompress(first) == body
    # Untagged bodies compress but never populate the cache.
    encoder.encode(body, None)
    assert len(encoder.cache) == 1


def test_gzip_encoder_evicts_by_bytes(monkeypatch):
    monkeypatch.setattr(http_utils_module, "DEFAULT_GZIP_CACHE_BYTES", 100)
    encoder = GzipEncoder()
    body = b"x" * 1024  # gzips to 29 bytes
    sizes = [len(encoder.encode(body + bytes([i]), f'"{i}"')) for i in range(4)]
    assert sum(sizes[1:]) <= 100 < sum(sizes)
    assert len(encoder.cache) == 3
    assert encoder.cache.get('"0"') is None  # the oldest went first
    assert encoder.cache.stats()["bytes"] == sum(sizes[1:])


def test_gzip_encoder_serves_an_oversized_body_uncached(monkeypatch):
    monkeypatch.setattr(http_utils_module, "DEFAULT_GZIP_CACHE_BYTES", 100)
    encoder = GzipEncoder()
    small = b"y" * 1024
    encoder.encode(small, '"small"')
    body = bytes(range(256)) * 8  # compresses to more than 100 bytes
    first = encoder.encode(body, '"big"')
    second = encoder.encode(body, '"big"')
    assert len(first) > 100
    assert gzip.decompress(first) == gzip.decompress(second) == body
    assert encoder.cache.get('"big"') is None
    assert encoder.cache.get('"small"') is not None  # nothing evicted


def test_stats_reports_cache_counters(http_get):
    http_get("/v1/query", headers={"Accept-Encoding": "gzip"})
    _, _, body = http_get("/v1/stats")
    payload = json.loads(body)
    assert {"gzip_cache", "render_cache", "counters"} <= set(payload)
    assert payload["gzip_cache"]["entries"] >= 1
