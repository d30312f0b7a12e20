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
from repro.core.selection import AbstractionLevel
from repro.io import layout_to_fgl
from repro.serve import ServeConfig, make_server

from .conftest import build_serve_db


def _append_variant(root, tag: str) -> str:
    """What ``generate``/``optimize`` do on admission: loose file, then
    the sidecar rewrite sequence (index → facets → pack index)."""
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


def test_database_snapshot_method_agrees_with_live_queries(private_root):
    db = BenchmarkDatabase(private_root)
    try:
        snapshot = db.snapshot()
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
        db.store.close()


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


def test_database_warm_counters(private_root):
    db = BenchmarkDatabase(private_root)
    try:
        stats = db.warm()
        assert stats["facet_index_ready"] is True
        assert stats["layouts_warmed"] == 12
        assert stats["warm_failures"] == 0
        assert db.store.stats()["cache_entries"] > 0
    finally:
        db.store.close()


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
