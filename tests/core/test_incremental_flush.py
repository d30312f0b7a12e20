"""Regression: a sweep must flush the index incrementally.

The original implementation saved ``index.json`` once at the very end
of ``generate()``/``optimize()`` — an exception (or crash) partway
through a long merge lost every already-completed flow.  The scheduler
now flushes every ``SchedulerParams.flush_every`` merged tasks, so at
most one batch of records is lost.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import GenerationParams
from repro.core.selection import AbstractionLevel
from repro.scheduler import SchedulerParams

from tests.scheduler.conftest import DETERMINISTIC_PARAMS

#: ortho_opt admits two layouts (plain ortho and ortho + InOrd + PLO),
#: npr none (scale gate).
SPECS = [get_benchmark("trindade16", name) for name in ("mux21", "xor2", "xnor2")]
LIBRARIES = ("QCA ONE",)
PARAMS = GenerationParams(**DETERMINISTIC_PARAMS)


def _reference_merges(root) -> list[tuple[str, list[str]]]:
    """``(cache key, admitted paths)`` per task in merge order, from an
    uninterrupted sweep."""
    db = BenchmarkDatabase(root)
    db.generate(SPECS, libraries=LIBRARIES, params=PARAMS)
    return [
        (key, [record["path"] for record in entry["records"]])
        for key, entry in db._flow_cache.items()
    ]


def _crash_at_write(db: BenchmarkDatabase, monkeypatch, nth: int) -> None:
    """Make the ``nth`` (1-based) ``_write_layout`` call raise."""
    original = db._write_layout
    calls = []

    def failing(suite, name, candidate):
        calls.append(name)
        if len(calls) == nth:
            raise RuntimeError("boom mid-merge")
        return original(suite, name, candidate)

    monkeypatch.setattr(db, "_write_layout", failing)


def _surviving(merges, nth: int, flush_every: int):
    """When the ``nth`` write fails: the number of completed merges,
    plus the keys and layout paths a reopen must see — every task
    merged up to the last flush boundary."""
    writes = 0
    for completed, (_, paths) in enumerate(merges):
        writes += len(paths)
        if writes >= nth:
            break
    flushed = merges[: completed // flush_every * flush_every]
    keys = [key for key, _ in flushed]
    return completed, keys, [p for _, paths in flushed for p in paths]


def _assert_flushed_tasks_survive(tmp_path, monkeypatch, nth, flush_every):
    merges = _reference_merges(tmp_path / "reference")
    completed, keys, paths = _surviving(merges, nth, flush_every)
    assert keys, "the failure must land past the first flush boundary"
    assert len(keys) < len(merges)

    db = BenchmarkDatabase(tmp_path / "db")
    _crash_at_write(db, monkeypatch, nth)
    with pytest.raises(RuntimeError, match="boom mid-merge"):
        db.generate(SPECS, libraries=LIBRARIES, params=PARAMS,
                    scheduler=SchedulerParams(flush_every=flush_every))

    # A fresh process (or a resumed run) sees the flushed tasks: their
    # records are in index.json and their cache entries replay.
    reopened = BenchmarkDatabase(tmp_path / "db")
    layouts = [
        record.path for record in reopened.files()
        if record.abstraction_level is AbstractionLevel.GATE_LEVEL
    ]
    assert layouts == paths
    assert list(reopened._flow_cache) == keys
    # ...while the in-memory state still has every completed merge, so
    # the caller's final save (when it survives) would lose nothing.
    assert list(db._flow_cache) == [key for key, _ in merges[:completed]]


def test_flush_every_merge_survives_failure(tmp_path, monkeypatch):
    """With ``flush_every=1`` every completed task is durable before
    the next one merges.  The first task writes two layouts, so the
    third write is the first to fail past a flush boundary."""
    _assert_flushed_tasks_survive(tmp_path, monkeypatch, nth=3, flush_every=1)


def test_failure_loses_only_the_partial_flush_batch(tmp_path, monkeypatch):
    """A merge failure loses at most the merges since the last flush;
    everything before the boundary survives a reopen."""
    _assert_flushed_tasks_survive(tmp_path, monkeypatch, nth=5, flush_every=4)
