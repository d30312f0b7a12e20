"""HTTP plumbing for the benchmark service: content negotiation,
strong ETags, and a bounded compressed-response cache.

Everything here is pure computation over bytes and header strings —
no sockets — so the caching behaviour is tested directly in
``tests/serve/test_caching.py``.
"""

from __future__ import annotations

import gzip
import hashlib
import threading
from collections import OrderedDict

#: Responses smaller than this are never compressed (the gzip header
#: plus CPU would cost more than the bytes saved).
MIN_COMPRESS_SIZE = 256

#: Default bound on the compressed-response LRU (entries).
DEFAULT_GZIP_CACHE_SIZE = 256

#: Byte bound on the compressed-response LRU.  It holds the browse
#: catalogue and a few cell-level downloads (a c432 ``.qca`` gzips to
#: 170–215 KB at level 1); a larger compressed body is served uncached.
DEFAULT_GZIP_CACHE_BYTES = 4 * 2**20

#: Compression level for negotiated gzip bodies.  The cell-level bodies
#: compress about 50:1 even at level 1, which takes less than half the
#: CPU of level 6 (three c432 ``.qca`` bodies: about 0.08 s against
#: 0.19 s, 555 KB against 456 KB); the decoded body is the same.
_GZIP_LEVEL = 1


def parse_accept_encoding(header: str | None) -> set[str]:
    """The codings a client accepts, lowercased, ``q=0`` excluded.

    Follows the common-case subset of RFC 9110 §12.5.3: tokens are
    comma-separated, each optionally carrying ``;q=`` weights.  Only
    membership matters to us — the server prefers ``deflate`` (free:
    pack slices are already zlib streams) over ``gzip`` over identity.
    """
    if not header:
        return set()
    accepted: set[str] = set()
    for token in header.split(","):
        parts = token.strip().split(";")
        coding = parts[0].strip().lower()
        if not coding:
            continue
        q = 1.0
        for param in parts[1:]:
            name, _, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    q = float(value.strip())
                except ValueError:
                    q = 0.0
        if q > 0:
            accepted.add(coding)
    return accepted


def strong_etag(*parts: str) -> str:
    """A strong ETag from content-derived parts (pack digests, record
    digests, canonical request strings) — identical content yields an
    identical tag across processes and restarts."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def etag_matches(if_none_match: str | None, etag: str) -> bool:
    """Does an ``If-None-Match`` header revalidate ``etag``?

    Handles the ``*`` wildcard and comma-separated candidate lists; a
    weak validator prefix (``W/``) is accepted as a match because GET
    revalidation only needs weak comparison (RFC 9110 §13.1.2).
    """
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    for candidate in if_none_match.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


class LruCache:
    """A small thread-safe LRU used for compressed responses and
    per-epoch rendered payloads (report/best/cell-level conversions).

    Bounded by ``maxsize`` entries and, when ``maxbytes`` is given, by
    the summed ``len`` of the cached values: a value longer than
    ``maxbytes`` is not cached at all."""

    def __init__(self, maxsize: int, maxbytes: int | None = None) -> None:
        self.maxsize = maxsize
        self.maxbytes = maxbytes
        self._data: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]

    def _size(self, value) -> int:
        return 0 if self.maxbytes is None else len(value)

    def put(self, key, value) -> None:
        size = self._size(value)
        if self.maxsize <= 0 or (self.maxbytes is not None and size > self.maxbytes):
            return
        with self._lock:
            if key in self._data:
                self._bytes -= self._size(self._data.pop(key))
            self._data[key] = value
            self._bytes += size
            while len(self._data) > self.maxsize or (
                self.maxbytes is not None and self._bytes > self.maxbytes
            ):
                self._bytes -= self._size(self._data.popitem(last=False)[1])

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict:
        stats = {"entries": len(self._data), "hits": self.hits, "misses": self.misses}
        if self.maxbytes is not None:
            stats["bytes"] = self._bytes
        return stats


class GzipEncoder:
    """Gzip content negotiation behind a bounded LRU.

    Compressed bodies are cached by the response's ETag (content-
    derived, so an entry can never go stale: new content means a new
    tag), bounded by entries and by :data:`DEFAULT_GZIP_CACHE_BYTES`.
    Bodies without a tag are compressed but not cached.
    """

    def __init__(self, cache_size: int = DEFAULT_GZIP_CACHE_SIZE) -> None:
        self.cache = LruCache(cache_size, DEFAULT_GZIP_CACHE_BYTES)

    def encode(self, body: bytes, etag: str | None) -> bytes:
        if etag is not None:
            cached = self.cache.get(etag)
            if cached is not None:
                return cached
        # mtime=0 keeps the stream deterministic → cache/oracle friendly.
        compressed = gzip.compress(body, compresslevel=_GZIP_LEVEL, mtime=0)
        if etag is not None:
            self.cache.put(etag, compressed)
        return compressed

    def worthwhile(self, body: bytes, accepted: set[str]) -> bool:
        return "gzip" in accepted and len(body) >= MIN_COMPRESS_SIZE
