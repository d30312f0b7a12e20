"""Snapshot isolation under concurrent appends, and cache warming.

The load-bearing guarantee: a reader pinned to epoch N observes
*identical* results — record lists, query answers, artifact bytes —
before, during and after a writer appends epoch N+1, while new requests
atomically observe the new epoch.
"""

from __future__ import annotations

import http.client
import threading

import pytest

import repro.core.store as store_module
from repro.core import BenchmarkDatabase, DatabaseSnapshot, Selection, SnapshotManager
from repro.core.bench import BenchmarkFile
from repro.core.facet_index import records_digest
from repro.core.selection import AbstractionLevel
from repro.io import layout_to_fgl
from repro.serve import ServeConfig, make_server

from .conftest import build_serve_db


def _append_variant(root, tag: str) -> str:
    """What ``generate``/``optimize`` do on admission: loose file, then
    the sidecar rewrite sequence (index → pack index)."""
    db = BenchmarkDatabase(root)
    donor = next(
        r
        for r in db.files()
        if r.abstraction_level is AbstractionLevel.GATE_LEVEL
    )
    layout = db.load_layout(donor)
    layout.name = f"appended_{tag}"
    relpath = f"trindade16/mux21_appended_{tag}.fgl"
    (root / relpath).write_text(layout_to_fgl(layout), encoding="utf-8")
    width, height = layout.bounding_box()
    db._records.append(
        BenchmarkFile(
            suite="trindade16",
            name="mux21",
            abstraction_level=AbstractionLevel.GATE_LEVEL,
            path=relpath,
            gate_library="QCA ONE",
            clocking_scheme="2DDWave",
            algorithm="ortho",
            width=width,
            height=height,
            area=width * height,
        )
    )
    db._save_index()
    db.pack()
    db.store.close()
    return relpath


@pytest.fixture
def private_root(tmp_path):
    db = build_serve_db(tmp_path / "db")
    db.store.close()
    return tmp_path / "db"


def _observe(snapshot: DatabaseSnapshot, selections) -> dict:
    """Everything a reader can see through one snapshot."""
    return {
        "paths": [r.path for r in snapshot.records],
        "queries": {
            i: [r.path for r in snapshot.query(s)]
            for i, s in enumerate(selections)
        },
        "texts": {
            r.path: snapshot.artifact_text(r)
            for r in snapshot.records
            if r.abstraction_level is AbstractionLevel.GATE_LEVEL
        },
    }


SELECTIONS = (
    Selection.make(),
    Selection.make(best_only=True),
    Selection.make(gate_libraries=["QCA ONE"], names=["mux21"]),
)


def test_pinned_snapshot_identical_across_append(private_root):
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        pinned = manager.current()
        before = _observe(pinned, SELECTIONS)

        new_path = _append_variant(private_root, "epoch1")
        fresh = manager.maybe_refresh()

        # The pinned epoch is bit-for-bit undisturbed...
        assert _observe(pinned, SELECTIONS) == before
        assert pinned.record_for(new_path) is None
        assert pinned.store.entry(new_path) is None
        # ...while the new epoch sees the append.
        assert fresh.epoch == pinned.epoch + 1
        assert fresh.record_for(new_path) is not None
        assert fresh.store.entry(new_path) is not None
        assert len(fresh.records) == len(pinned.records) + 1
        assert fresh.digest != pinned.digest
    finally:
        manager.close()


def test_reader_sees_stable_results_during_concurrent_appends(private_root):
    """The differential: a reader hammering a pinned snapshot while a
    writer appends must never observe a deviation from its baseline."""
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        pinned = manager.current()
        baseline = _observe(pinned, SELECTIONS)
        mismatches: list[str] = []
        stop = threading.Event()

        def reader() -> None:
            while not stop.is_set():
                if _observe(pinned, SELECTIONS) != baseline:
                    mismatches.append("snapshot observation changed")
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(3):
                _append_variant(private_root, f"concurrent{i}")
                manager.refresh()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not mismatches
        # The writer really did publish new epochs underneath the reader.
        assert manager.current().epoch == 3
        assert len(manager.current().records) == len(pinned.records) + 3
        # Post-append check, once more, for the full differential.
        assert _observe(pinned, SELECTIONS) == baseline
    finally:
        manager.close()


def test_refresh_is_noop_without_on_disk_change(private_root):
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        first = manager.current()
        assert manager.refresh() is first
        assert manager.maybe_refresh() is first
        assert manager.refreshes == 0
    finally:
        manager.close()


def test_manager_snapshot_agrees_with_live_queries(private_root):
    db = BenchmarkDatabase(private_root)
    manager = SnapshotManager(private_root)
    try:
        snapshot = manager.current()
        for selection in SELECTIONS:
            assert [r.path for r in snapshot.query(selection)] == [
                r.path for r in db.query(selection)
            ]
        record = next(
            r
            for r in db.files()
            if r.abstraction_level is AbstractionLevel.GATE_LEVEL
        )
        assert snapshot.artifact_text(record) == db.artifact_text(record)
    finally:
        manager.close()
        db.store.close()


def test_old_facets_json_starts_no_epoch(private_root):
    """``facets.json`` is no generation file: an older version's sidecar
    written next to a served database neither swaps the epoch nor
    changes an answer."""
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        before = manager.current()
        answers = [[r.path for r in before.query(s)] for s in SELECTIONS]
        (private_root / "facets.json").write_text("{not json", encoding="utf-8")
        assert manager.maybe_refresh() is before
        assert manager.refresh() is before
        assert manager.refreshes == 0
        assert [[r.path for r in before.query(s)] for s in SELECTIONS] == answers
    finally:
        manager.close()


def test_snapshot_digest_and_facets_follow_the_records(private_root):
    """Each epoch's ETag base is the digest of its own records, and its
    facet index is built over exactly those records."""
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        first = manager.current()
        db = BenchmarkDatabase(private_root)
        assert first.digest == records_digest(db.files())
        assert first.facets.num_records == len(first.records)
        db.store.close()
        relpath = _append_variant(private_root, "digest")
        second = manager.refresh()
        assert second.epoch == first.epoch + 1
        assert second.digest != first.digest
        assert second.digest == records_digest(second.records)
        assert second.facets.num_records == len(first.records) + 1
        mux21 = Selection.make(names=["mux21"], gate_libraries=["QCA ONE"])
        assert relpath in [r.path for r in second.query(mux21)]
        assert relpath not in [r.path for r in first.query(mux21)]
    finally:
        manager.close()


def test_pinned_view_membership_ignores_later_appends(private_root):
    """``is_packed`` through a pinned view answers for its epoch's table;
    the shared store's answers for the latest one."""
    manager = SnapshotManager(private_root, check_interval=0.0)
    try:
        first = manager.current()
        packed = next(
            r.path
            for r in first.records
            if r.abstraction_level is AbstractionLevel.GATE_LEVEL
        )
        assert first.store.is_packed(packed)
        assert manager.store.is_packed(packed)
        relpath = _append_variant(private_root, "membership")
        second = manager.refresh()
        assert not first.store.is_packed(relpath)
        assert second.store.is_packed(relpath)
        assert manager.store.is_packed(relpath)
        assert first.store.is_packed(packed) and second.store.is_packed(packed)
    finally:
        manager.close()


def test_epoch_swap_visible_over_http(private_root):
    server = make_server(
        ServeConfig(database=private_root, port=0, check_interval=0.0)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)

    def count() -> int:
        import json

        conn.request("GET", "/v1/query")
        response = conn.getresponse()
        return json.loads(response.read())["count"]

    try:
        before = count()
        _append_variant(private_root, "http")
        after = count()
        assert after == before + 1
    finally:
        conn.close()
        server.close()
        thread.join(timeout=5)


# -- warming -----------------------------------------------------------------


def test_manager_warm_counters(private_root):
    """``warm`` parses exactly the Bestagon layouts into the shared LRU
    and reports how many; the facet index needs no warming."""
    manager = SnapshotManager(private_root)
    try:
        bestagon = [
            r for r in manager.current().records if r.gate_library == "Bestagon"
        ]
        assert len(bestagon) == 4
        assert manager.warm() == {"layouts_warmed": 4, "warm_failures": 0}
        assert manager.store.stats()["cache_entries"] == 4
    finally:
        manager.close()


def test_warm_server_serves_layouts_without_reparsing(
    private_root, monkeypatch
):
    """``--warm`` parses the artifacts whose cell-level download loads a
    layout (Bestagon, ``format=sqd``) and only those; their requests then
    come from the parsed-layout LRU: breaking the parser must not break
    serving."""
    server = make_server(
        ServeConfig(database=private_root, port=0, warm=True, check_interval=0.0)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def boom(text):
        raise AssertionError("cold-start parse during warmed serving")

    monkeypatch.setattr(store_module, "fgl_to_layout", boom)

    record = next(
        r
        for r in server.manager.current().records
        if r.gate_library == "Bestagon"
    )
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", f"/v1/artifact/{record.path}?format=sqd")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200
        assert b"<siqad>" in body
        assert server.service.counters["layouts_warmed"] == 4
        assert server.service.counters["warm_failures"] == 0
        assert server.manager.store.stats()["cache_entries"] == 4
    finally:
        conn.close()
        server.close()
        thread.join(timeout=5)
