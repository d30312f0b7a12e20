"""Compressed binary artifact store for the benchmark database.

The website's download traffic is dominated by gate-level ``.fgl``
files — small, highly compressible XML documents that the naive store
kept as loose pretty-printed text and re-parsed on every
``load_layout``.  :class:`ArtifactStore` gives the database a serving-
grade backend using only the standard library:

* **Pack file** (``artifacts.pack``): an append-only blob of
  zlib-compressed artifact payloads behind a magic header.  The offset
  table lives in a JSON sidecar (``pack_index.json``) mapping each
  record-relative path to ``(offset, length, size, sha256)``.  The
  canonical ``.fgl`` text remains the logical format — the pack stores
  its exact bytes, and reads verify the content digest before trusting
  a slice.
* **Read-through**: paths absent from the pack (legacy databases,
  foreign files) fall back transparently to the loose file on disk;
  corrupted or truncated pack entries are dropped and served from the
  loose copy, so a damaged pack degrades to the old behaviour instead
  of failing.
* **Layout cache**: a bounded, thread-safe LRU keyed by the payload's
  content digest caches *parsed* :class:`~repro.layout.gate_layout.
  GateLayout` objects; repeated ``load_layout``/download hits never
  touch the XML parser.  Callers receive :meth:`~repro.layout.
  gate_layout.GateLayout.clone` copies, so mutating a served layout
  cannot corrupt the cache (layout tiles are immutable value objects —
  a clone is two orders of magnitude cheaper than a parse).

Reads use ``os.pread`` where available, so concurrent serving threads
share one file descriptor without seek races.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from collections import OrderedDict
from pathlib import Path

from ..io.fgl import fgl_to_layout
from ..layout.gate_layout import GateLayout

#: Pack format magic + version byte-string at offset 0.
PACK_MAGIC = b"MNTPACK1\n"

#: Bump when the sidecar's on-disk layout changes.
PACK_INDEX_VERSION = 1

PACK_NAME = "artifacts.pack"
PACK_INDEX_NAME = "pack_index.json"

#: zlib level — .fgl XML compresses ~10x already at moderate effort.
_COMPRESSION_LEVEL = 6

#: Default bound on the parsed-layout LRU (entries, not bytes; FCN
#: layouts are a few hundred tiles each).
DEFAULT_LAYOUT_CACHE_SIZE = 128


class ArtifactNotFoundError(KeyError, FileNotFoundError):
    """A requested artifact exists in neither the pack nor on disk.

    Typed so callers can distinguish "no such artifact" (a 404 for the
    serving layer) from real I/O failures.  Subclasses both
    :class:`KeyError` (lookup semantics) and :class:`FileNotFoundError`
    (what older call sites caught), so pre-existing handlers keep
    working.
    """

    def __init__(self, artifact_id: str) -> None:
        super().__init__(
            f"artifact {artifact_id!r} not found: neither packed nor on disk"
        )
        self.artifact_id = artifact_id

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0]


class _LayoutCache:
    """Thread-safe bounded LRU: content digest → parsed layout."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[str, GateLayout] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> GateLayout | None:
        with self._lock:
            layout = self._data.get(key)
            if layout is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return layout

    def put(self, key: str, layout: GateLayout) -> None:
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = layout
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class ArtifactStore:
    """Pack-backed artifact access for one database directory."""

    def __init__(
        self, root, layout_cache_size: int = DEFAULT_LAYOUT_CACHE_SIZE
    ) -> None:
        self.root = Path(root)
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self._lock = threading.Lock()
        self._pack_fd: int | None = None
        self._cache = _LayoutCache(layout_cache_size)
        #: Content digests whose pack slice already passed verification —
        #: lets :meth:`read_compressed` hand out raw slices without
        #: re-hashing on every request (the zero-copy download path).
        self._verified: set[str] = set()
        self._load_index()

    # -- paths ---------------------------------------------------------------

    @property
    def pack_path(self) -> Path:
        return self.root / PACK_NAME

    @property
    def index_path(self) -> Path:
        return self.root / PACK_INDEX_NAME

    # -- persistence ---------------------------------------------------------

    def _load_index(self) -> None:
        """Load the offset table; any inconsistency degrades to an empty
        table (pure loose-file read-through) rather than an error."""
        usable, total = self.load_entries(self.root)
        self._entries = usable
        self._dirty = len(usable) != total

    @classmethod
    def load_entries(cls, root) -> tuple[dict[str, dict], int]:
        """Parse ``pack_index.json`` under ``root`` into a validated
        offset table, plus the raw entry count before validation.

        Shared by :meth:`_load_index` and the snapshot layer
        (:mod:`repro.core.snapshot`), which re-reads the sidecar from
        disk to pin a point-in-time view of the pack without touching a
        live store's mutable table.  Any inconsistency (format version,
        missing/foreign pack, truncated tail) yields an empty table.
        """
        root = Path(root)
        path = root / PACK_INDEX_NAME
        if not path.exists():
            return {}, 0
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("version") != PACK_INDEX_VERSION:
                return {}, 0
            entries = data.get("entries", {})
            pack = root / PACK_NAME
            if not pack.exists():
                return {}, 0
            with open(pack, "rb") as handle:
                if handle.read(len(PACK_MAGIC)) != PACK_MAGIC:
                    return {}, 0
            pack_size = pack.stat().st_size
            usable: dict[str, dict] = {}
            for relpath, entry in entries.items():
                offset = int(entry["offset"])
                length = int(entry["length"])
                if offset < len(PACK_MAGIC) or offset + length > pack_size:
                    continue  # truncated pack: skip the stale tail
                usable[relpath] = {
                    "offset": offset,
                    "length": length,
                    "size": int(entry["size"]),
                    "sha256": str(entry["sha256"]),
                }
            return usable, len(entries)
        except (ValueError, KeyError, TypeError, OSError):
            return {}, 0

    def save(self) -> None:
        """Persist the offset table if it changed since the last save.

        Atomic (tmp + ``os.replace``): the scheduler flushes this file
        as part of every task's commit sequence, and a crash mid-write
        must leave the previous consistent table, not a torn one.
        """
        if not self._dirty:
            return
        data = {"version": PACK_INDEX_VERSION, "entries": self._entries}
        tmp = self.index_path.with_name(self.index_path.name + ".tmp")
        tmp.write_text(json.dumps(data, indent=2), encoding="utf-8")
        os.replace(tmp, self.index_path)
        self._dirty = False

    def repair_truncate(self) -> int:
        """Drop any orphan pack tail past the last indexed entry.

        A crash between a pack append and its ``pack_index.json`` flush
        leaves unindexed bytes at the end of ``artifacts.pack``.  A
        resumed run re-executes those tasks and re-appends their
        payloads — truncating first makes the re-appended pack
        byte-identical to an uninterrupted run's.  Returns the number
        of bytes removed.
        """
        pack = self.pack_path
        if not pack.exists():
            return 0
        with self._lock:
            end = len(PACK_MAGIC)
            for entry in self._entries.values():
                end = max(end, entry["offset"] + entry["length"])
            size = pack.stat().st_size
            if size <= end:
                return 0
            if self._pack_fd is not None:
                os.close(self._pack_fd)
                self._pack_fd = None
            with open(pack, "rb+") as handle:
                handle.truncate(end)
            return size - end

    # -- low-level pack access -----------------------------------------------

    def _read_pack(self, offset: int, length: int) -> bytes:
        if hasattr(os, "pread"):
            with self._lock:
                if self._pack_fd is None:
                    self._pack_fd = os.open(str(self.pack_path), os.O_RDONLY)
                fd = self._pack_fd
            return os.pread(fd, length, offset)
        with self._lock, open(self.pack_path, "rb") as handle:
            handle.seek(offset)
            return handle.read(length)

    def close(self) -> None:
        with self._lock:
            if self._pack_fd is not None:
                os.close(self._pack_fd)
                self._pack_fd = None

    # -- public API ----------------------------------------------------------

    def contains(self, relpath: str) -> bool:
        """Is ``relpath`` served from the pack (vs. loose fallback)?"""
        return relpath in self._entries

    # ``contains`` predates the analytics layer; ``is_packed`` is the
    # public spelling used by ``mnt-bench info``.
    is_packed = contains

    def entry(self, relpath: str) -> dict | None:
        """The pack-index entry for ``relpath`` (offset/length/size/
        sha256), or ``None`` when the path is not packed."""
        return self._entries.get(relpath)

    def add_text(self, relpath: str, text: str) -> None:
        """Append one artifact payload to the pack and index it.

        Idempotent for identical content: re-adding a path whose
        indexed entry already carries this payload's digest is a no-op,
        so a resumed (or retried) generation task that re-produces the
        same artifact does not grow the pack.
        """
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        existing = self._entries.get(relpath)
        if existing is not None and existing["sha256"] == digest:
            return
        compressed = zlib.compress(data, _COMPRESSION_LEVEL)
        with self._lock:
            with open(self.pack_path, "ab") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    handle.write(PACK_MAGIC)
                offset = handle.tell()
                handle.write(compressed)
            self._entries[relpath] = {
                "offset": offset,
                "length": len(compressed),
                "size": len(data),
                "sha256": digest,
            }
            self._dirty = True

    def read_text(self, relpath: str, entries: dict | None = None) -> str:
        """The canonical artifact text: pack slice when indexed and
        intact, else the loose file.

        ``entries`` overrides the live offset table with a frozen one —
        the snapshot layer passes its pinned view so concurrent appends
        (which only ever extend the pack) cannot move a reader's data
        out from under it.  With a frozen view, corrupt slices are not
        evicted from the live table (the snapshot owner is a reader).
        """
        return self._read_verified(relpath, entries)[0]

    def _read_verified(self, relpath: str, entries: dict | None) -> tuple[str, str | None]:
        """:meth:`read_text`, with the SHA-256 the text was verified
        against: the entry's digest for an intact pack slice, ``None``
        for the loose file, which nothing verified."""
        frozen = entries is not None
        entry = (entries if frozen else self._entries).get(relpath)
        if entry is not None:
            try:
                blob = self._read_pack(entry["offset"], entry["length"])
                data = zlib.decompress(blob)
                if (
                    len(data) == entry["size"]
                    and hashlib.sha256(data).hexdigest() == entry["sha256"]
                ):
                    return data.decode("utf-8"), entry["sha256"]
            except (OSError, zlib.error, ValueError):
                pass
            # Corrupted or unreadable slice: drop the entry and recover
            # from the loose copy.
            if not frozen:
                with self._lock:
                    self._entries.pop(relpath, None)
                    self._dirty = True
        loose = self.root / relpath
        if loose.exists():
            return loose.read_text(encoding="utf-8"), None
        raise ArtifactNotFoundError(relpath)

    def read_compressed(self, relpath: str, entries: dict | None = None) -> bytes | None:
        """The raw zlib slice for ``relpath`` — the zero-copy download
        path: one ``pread``, no decompression, no parsing.

        The pack stores each payload as an RFC 1950 zlib stream, which
        is exactly the ``deflate`` HTTP content coding, so the serving
        layer can hand the slice bytes straight to a client that sent
        ``Accept-Encoding: deflate``.  Integrity still holds: the first
        serve of a given content digest decompresses and verifies the
        slice; subsequent serves of the same digest skip the check.
        Returns ``None`` when the path is unpacked or fails
        verification (callers fall back to :meth:`read_text`).
        """
        entry = (entries if entries is not None else self._entries).get(relpath)
        if entry is None:
            return None
        try:
            blob = self._read_pack(entry["offset"], entry["length"])
        except OSError:
            return None
        digest = entry["sha256"]
        if digest in self._verified:
            return blob
        try:
            data = zlib.decompress(blob)
        except zlib.error:
            return None
        if len(data) != entry["size"] or hashlib.sha256(data).hexdigest() != digest:
            return None
        with self._lock:
            self._verified.add(digest)
        return blob

    def read_texts(self, relpaths, entries: dict | None = None) -> list[str]:
        """Batch artifact read: all requested payloads in one sweep.

        This is the analytics layer's data plane.  Packed entries are
        fetched in **offset order** with adjacent pack slices coalesced
        into single ``pread`` calls, so a database-wide sweep touches
        the pack file a handful of times instead of once per artifact.
        Every slice is digest-verified exactly like :meth:`read_text`;
        any corrupt, missing or unpacked entry falls back to the
        single-artifact path (loose file included).  Result order
        matches ``relpaths``.
        """
        relpaths = list(relpaths)
        table = entries if entries is not None else self._entries
        texts: list[str | None] = [None] * len(relpaths)
        packed: list[tuple[int, int, int, dict]] = []  # (offset, length, slot, entry)
        for slot, relpath in enumerate(relpaths):
            entry = table.get(relpath)
            if entry is not None:
                packed.append((entry["offset"], entry["length"], slot, entry))
        packed.sort()
        # Coalesce runs of back-to-back slices into one read each.
        index = 0
        while index < len(packed):
            start_offset = packed[index][0]
            end_offset = start_offset + packed[index][1]
            run_end = index + 1
            while run_end < len(packed) and packed[run_end][0] == end_offset:
                end_offset += packed[run_end][1]
                run_end += 1
            try:
                blob = self._read_pack(start_offset, end_offset - start_offset)
            except OSError:
                blob = b""
            for offset, length, slot, entry in packed[index:run_end]:
                piece = blob[offset - start_offset : offset - start_offset + length]
                try:
                    data = zlib.decompress(piece)
                    if (
                        len(data) == entry["size"]
                        and hashlib.sha256(data).hexdigest() == entry["sha256"]
                    ):
                        texts[slot] = data.decode("utf-8")
                except (zlib.error, ValueError):
                    pass
            index = run_end
        for slot, relpath in enumerate(relpaths):
            if texts[slot] is None:
                # Unpacked, corrupt, or short read: the single-artifact
                # path handles fallback and entry invalidation.
                texts[slot] = self.read_text(relpath, entries=entries)
        return texts  # type: ignore[return-value]

    def load_layout(self, relpath: str, entries: dict | None = None) -> GateLayout:
        """Parse (or serve from the LRU) the layout stored at ``relpath``.

        Returns a private clone; the cached instance is never exposed.
        The LRU is keyed by content digest, so snapshot readers passing
        a frozen ``entries`` view share it safely with the live store.
        A verified pack slice is keyed by the digest it was verified
        against; only loose text (no entry, or a corrupt slice's
        fallback, which may not match its entry) is hashed here.
        """
        entry = (entries if entries is not None else self._entries).get(relpath)
        if entry is not None:
            cached = self._cache.get(entry["sha256"])
            if cached is not None:
                return cached.clone()
        text, digest = self._read_verified(relpath, entries)
        if digest is None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        cached = self._cache.get(digest)
        if cached is None:
            cached = fgl_to_layout(text)
            self._cache.put(digest, cached)
        return cached.clone()

    def entries_snapshot(self) -> dict[str, dict]:
        """A frozen copy of the current offset table, for snapshot
        pinning (entry dicts are never mutated in place, so a shallow
        copy suffices)."""
        with self._lock:
            return dict(self._entries)

    def adopt_entries(self, fresh: dict[str, dict]) -> None:
        """Merge a freshly re-read offset table over the live one.

        Used by the snapshot manager after a writer published new
        sidecars: the union (old ∪ fresh, fresh wins) is swapped in as
        one new dict so concurrent readers of the live table never see
        a half-updated mapping.
        """
        with self._lock:
            merged = dict(self._entries)
            merged.update(fresh)
            self._entries = merged

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Serving counters and pack geometry, for reports and benches."""
        pack_bytes = self.pack_path.stat().st_size if self.pack_path.exists() else 0
        raw_bytes = sum(entry["size"] for entry in self._entries.values())
        return {
            "packed_entries": len(self._entries),
            "pack_bytes": pack_bytes,
            "uncompressed_bytes": raw_bytes,
            "cache_entries": len(self._cache),
            "cache_hits": self._cache.hits,
            "cache_misses": self._cache.misses,
        }
