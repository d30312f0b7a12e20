"""`/v1/stats` exposure of the generation scheduler's stats sidecar."""

from __future__ import annotations

import http.client
import json
import shutil
import threading
from pathlib import Path

import pytest

from repro.scheduler import GENERATION_STATS_NAME
from repro.scheduler.engine import SchedulerStats, write_stats_file
from repro.serve import ServeConfig, make_server

from .conftest import build_serve_db


@pytest.fixture
def own_server(tmp_path):
    """A server over a *private* database copy so the test can drop a
    generation-stats sidecar without touching the shared fixture."""
    db = build_serve_db(tmp_path)
    db.store.close()
    srv = make_server(ServeConfig(database=tmp_path, port=0, check_interval=0.0))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield tmp_path, srv
    srv.close()
    thread.join(timeout=5)


def _get_stats(srv) -> dict:
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        conn.close()


def test_stats_without_generation_sidecar(own_server):
    root, srv = own_server
    payload = _get_stats(srv)
    assert "generation" in payload
    assert payload["generation"] is None


def test_stats_surfaces_scheduler_sidecar(own_server):
    root, srv = own_server
    stats = SchedulerStats(
        queued=42, done=40, timeouts=1, cancelled=1,
        flow_seconds={"ortho": 1.5}, wall_seconds=12.0,
        mode="pool", node="host-1",
    )
    write_stats_file(root, stats)

    payload = _get_stats(srv)
    generation = payload["generation"]
    assert generation is not None
    assert generation["queued"] == 42
    assert generation["done"] == 40
    assert generation["failed"] == 1
    assert generation["cancelled"] == 1
    assert generation["mode"] == "pool"
    assert generation["flow_seconds"] == {"ortho": 1.5}


def test_recorded_sidecar_is_served_verbatim(own_server):
    """The checked-in ISCAS85+EPFL sweep's stats were recorded with an
    older key set (``remote_completed``, ``stolen``); ``/v1/stats``
    serves them as written rather than reshaping them."""
    root, srv = own_server
    recorded = (
        Path(__file__).resolve().parents[2]
        / "sweeps" / "iscas85_epfl" / GENERATION_STATS_NAME
    )
    shutil.copyfile(recorded, root / GENERATION_STATS_NAME)

    generation = _get_stats(srv)["generation"]
    assert generation == json.loads(recorded.read_text(encoding="utf-8"))
    assert {"remote_completed", "stolen"} <= set(generation)


def test_corrupt_sidecar_degrades_to_none(own_server):
    root, srv = own_server
    (root / GENERATION_STATS_NAME).write_text("{not json", encoding="utf-8")
    payload = _get_stats(srv)
    assert payload["generation"] is None
