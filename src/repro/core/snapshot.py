"""Immutable point-in-time views of a benchmark database.

The serving layer (:mod:`repro.serve`) answers queries while
``generate``/``optimize`` keep appending to the same database directory.
The on-disk format already points at a safe concurrency story — the
pack is append-only, ``index.json`` and ``pack_index.json`` are
rewritten whole, and every pack slice is digest-verified — and this
module formalises it into a **snapshot/epoch API**:

* :class:`DatabaseSnapshot` pins one *epoch*: a frozen record tuple, a
  private :class:`~repro.core.facet_index.FacetIndex` built from it,
  and a frozen pack offset table (:class:`StoreView`).  Everything a
  reader touches through a snapshot is immutable, so its results are
  identical before, during and after any concurrent append — the
  differential test in ``tests/serve/test_snapshot.py`` proves it.
* :class:`SnapshotManager` owns the current snapshot and performs the
  **atomic epoch swap**: :meth:`~SnapshotManager.refresh` re-reads the
  sidecars from disk, builds a complete new snapshot off to the side,
  and publishes it with a single reference assignment.  Readers that
  already hold the old snapshot keep it; new requests see the new
  epoch.  :meth:`~SnapshotManager.maybe_refresh` makes the check cheap
  enough for the request path: a throttled ``os.stat`` signature
  comparison of the two sidecar files.

Why appends cannot corrupt a pinned reader:

* the pack only ever grows, so frozen ``(offset, length)`` slices stay
  valid; every read still verifies the content digest;
* records admitted by a writer land in rewritten sidecars the snapshot
  never re-reads;
* the writer's on-disk sequence is loose file → ``index.json`` →
  ``pack_index.json``, so a snapshot taken mid-write can at worst see
  a record whose pack entry is not yet visible — the read then falls
  back to the loose file, which already exists.

Snapshots share the live store's file descriptor (``os.pread`` is
seek-free) and its digest-keyed parsed-layout LRU, which is epoch-safe
by construction.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .bench import BenchmarkDatabase, BenchmarkFile
from .facet_index import FacetIndex, records_digest
from .selection import AbstractionLevel, Selection
from .store import PACK_INDEX_NAME, ArtifactStore, ArtifactNotFoundError

#: Sidecar files whose on-disk change means a new epoch is available.
_GENERATION_FILES = (BenchmarkDatabase.INDEX_NAME, PACK_INDEX_NAME)


def _generation_signature(root: Path) -> tuple:
    """A cheap change detector over the database's sidecar files:
    ``(mtime_ns, size)`` per sidecar, ``None`` for absent ones."""
    signature = []
    for name in _GENERATION_FILES:
        try:
            stat = os.stat(root / name)
            signature.append((name, stat.st_mtime_ns, stat.st_size))
        except OSError:
            signature.append((name, None, None))
    return tuple(signature)


class StoreView:
    """A frozen read-only view of the pack at snapshot time.

    Wraps the shared :class:`~repro.core.store.ArtifactStore` (one file
    descriptor, one parsed-layout LRU) with the offset table pinned at
    snapshot creation, so concurrent appends — which rewrite the live
    table — are invisible through this view.
    """

    def __init__(self, store: ArtifactStore, entries: dict[str, dict]) -> None:
        self._store = store
        self._entries = entries

    def entry(self, relpath: str) -> dict | None:
        return self._entries.get(relpath)

    def is_packed(self, relpath: str) -> bool:
        return relpath in self._entries

    def read_text(self, relpath: str) -> str:
        return self._store.read_text(relpath, entries=self._entries)

    def read_texts(self, relpaths) -> list[str]:
        return self._store.read_texts(relpaths, entries=self._entries)

    def read_compressed(self, relpath: str) -> bytes | None:
        return self._store.read_compressed(relpath, entries=self._entries)

    def load_layout(self, relpath: str):
        return self._store.load_layout(relpath, entries=self._entries)

    def stats(self) -> dict:
        stats = self._store.stats()
        stats["packed_entries"] = len(self._entries)
        stats["uncompressed_bytes"] = sum(
            entry["size"] for entry in self._entries.values()
        )
        return stats


@dataclass(frozen=True)
class DatabaseSnapshot:
    """One immutable epoch of a benchmark database.

    Duck-types the read side of
    :class:`~repro.core.bench.BenchmarkDatabase` (``files``, ``query``,
    ``artifact_text``, ``store``, ``root``), so the analytics engine's
    sweeps (:func:`repro.analytics.engine.best_database`,
    :func:`repro.analytics.report.build_report`) run against a pinned
    epoch unchanged.
    """

    epoch: int
    root: Path
    records: tuple
    #: Content digest of the record list — the ETag base for serving.
    digest: str
    store: StoreView
    facets: FacetIndex = field(hash=False)
    by_path: dict = field(hash=False)
    created_at: float = 0.0

    # -- the read-side BenchmarkDatabase surface ------------------------------

    def files(self) -> list:
        return list(self.records)

    def query(self, selection: Selection) -> list:
        """Identical semantics to :meth:`BenchmarkDatabase.query`, over
        the pinned facet index."""
        return self.facets.query(selection, self.records)

    def record_for(self, path: str):
        """The record serving ``path``, or ``None`` (artifact lookup)."""
        return self.by_path.get(path)

    def artifact_text(self, record) -> str:
        if record.abstraction_level is AbstractionLevel.GATE_LEVEL:
            return self.store.read_text(record.path)
        loose = self.root / record.path
        if not loose.exists():
            raise ArtifactNotFoundError(record.path)
        return loose.read_text(encoding="utf-8")

    # -- analytics passthroughs ----------------------------------------------

    def best(self, selection: Selection | None = None):
        from ..analytics.engine import best_database

        return best_database(self, selection)

    def report(self, selection: Selection | None = None):
        from ..analytics.report import build_report

        return build_report(self, selection)


def _build_snapshot(root: Path, store: ArtifactStore, epoch: int) -> DatabaseSnapshot:
    """Pin the on-disk state of ``root`` into a fresh snapshot."""
    index_path = root / BenchmarkDatabase.INDEX_NAME
    records: tuple = ()
    if index_path.exists():
        data = json.loads(index_path.read_text(encoding="utf-8"))
        records = tuple(BenchmarkFile.from_json(r) for r in data.get("files", []))
    entries, _ = ArtifactStore.load_entries(root)
    return DatabaseSnapshot(
        epoch=epoch,
        root=root,
        records=records,
        digest=records_digest(records),
        store=StoreView(store, entries),
        facets=FacetIndex.build(records),
        by_path={record.path: record for record in records},
        created_at=time.time(),
    )


class SnapshotManager:
    """Owns the current epoch of one database directory.

    One manager per server process: it keeps a single
    :class:`ArtifactStore` alive (shared descriptor + parsed-layout
    LRU across epochs) and swaps :class:`DatabaseSnapshot` instances
    atomically as writers publish new sidecars.
    """

    def __init__(self, root, check_interval: float = 1.0) -> None:
        self.root = Path(root)
        self.store = ArtifactStore(self.root)
        #: Seconds between on-disk generation checks in
        #: :meth:`maybe_refresh`; 0 checks on every call.
        self.check_interval = check_interval
        self._lock = threading.Lock()
        self._epoch = 0
        self._signature = _generation_signature(self.root)
        self._current = _build_snapshot(self.root, self.store, 0)
        self._last_check = time.monotonic()
        #: Epoch swaps performed (for ``/v1/stats``).
        self.refreshes = 0

    def current(self) -> DatabaseSnapshot:
        """The published snapshot — a plain reference read, never blocks
        on a concurrent refresh."""
        return self._current

    def refresh(self, force: bool = False) -> DatabaseSnapshot:
        """Re-read the sidecars and atomically publish a new epoch.

        Without ``force``, the swap only happens when the on-disk
        generation signature actually changed; the existing snapshot is
        returned untouched otherwise.
        """
        with self._lock:
            signature = _generation_signature(self.root)
            if not force and signature == self._signature:
                return self._current
            # The store's own table must also see appended entries so
            # *new* snapshots (and the shared LRU digests) stay fresh.
            fresh_entries, _ = ArtifactStore.load_entries(self.root)
            self.store.adopt_entries(fresh_entries)
            self._epoch += 1
            snapshot = _build_snapshot(self.root, self.store, self._epoch)
            self._signature = signature
            self._current = snapshot  # the atomic epoch swap
            self.refreshes += 1
            return snapshot

    def maybe_refresh(self) -> DatabaseSnapshot:
        """The request-path entry point: throttled change detection.

        At most one ``os.stat`` sweep per :attr:`check_interval`; a
        changed signature triggers a full :meth:`refresh`.
        """
        now = time.monotonic()
        if now - self._last_check < self.check_interval:
            return self._current
        self._last_check = now
        if _generation_signature(self.root) == self._signature:
            return self._current
        return self.refresh()

    def warm(self) -> dict:
        """Pre-parse the gate-level artifacts whose cell-level download
        loads a layout — the Bestagon ones (``format=sqd``) — into the
        shared layout LRU (up to its capacity), so first requests pay no
        cold-start parse; QCA ONE downloads compile the stored text's
        columns and never read the LRU.  Returns counters for
        observability."""
        snapshot = self.current()
        warmed = failed = 0
        for record in snapshot.records:
            if (
                record.abstraction_level is not AbstractionLevel.GATE_LEVEL
                or record.gate_library != "Bestagon"
            ):
                continue
            try:
                snapshot.store.load_layout(record.path)
                warmed += 1
            except (ArtifactNotFoundError, ValueError):
                failed += 1
        return {"layouts_warmed": warmed, "warm_failures": failed}

    def close(self) -> None:
        self.store.close()
