"""Per-task budget enforcement: wall-time kills, memory limits, worker
recycling — and the invariant that a budget kill never poisons sibling
tasks or the cache key space."""

from __future__ import annotations

import time

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import GenerationParams
from repro.scheduler import (
    JOURNAL_NAME,
    GenerationJournal,
    SchedulerParams,
    TaskBudget,
    WorkerPool,
)

from .conftest import DETERMINISTIC_PARAMS

SPECS = (("trindade16", "mux21"), ("trindade16", "xor2"))


def _specs():
    return [get_benchmark(suite, name) for suite, name in SPECS]


@pytest.fixture
def stall_npr(monkeypatch):
    """Make the two ``npr`` tasks hang far past any sane wall budget."""
    import repro.core.bench as bench

    original = bench._execute_flow_task

    def stalling(task):
        if task.flow == "npr":
            time.sleep(600)
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", stalling)


def test_wall_budget_kill_is_recorded_not_fatal(tmp_path, stall_npr):
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(
        **DETERMINISTIC_PARAMS, jobs=2, task_wall_budget=0.5
    )
    outcome = db.generate(_specs(), params=params)
    report = outcome.report

    # Exactly the two stalled npr tasks are killed; every sibling flow
    # in the same workers is unaffected.
    assert report.timeouts == 2
    assert report.admitted == 8
    assert report.no_layout == 2  # hex:npr produces no layout here
    assert report.executed_flows == 8
    assert "2 timed out" in report.summary()
    assert report.scheduler["timeouts"] == 2
    assert report.scheduler["workers_killed"] >= 2

    # The kill is a recorded rejection in the flow cache...
    timeout_entries = [
        entry for entry in db._flow_cache.values() if entry["flow"] == "npr"
    ]
    assert len(timeout_entries) == 2
    for entry in timeout_entries:
        (rejection,) = entry["rejections"]
        assert rejection["status"] == "timeout"
        assert "wall budget" in rejection["reason"]

    # ...and a committed journal line with the same status.
    journal = GenerationJournal.load(tmp_path / "db" / JOURNAL_NAME)
    statuses = [record.status for record in journal.records.values()]
    assert statuses.count("timeout") == 2
    assert statuses.count("done") == 6


def test_budget_change_invalidates_timeout_cache_entries(tmp_path, monkeypatch):
    """Budgets are cache-key material: lifting the budget re-runs a
    previously budget-killed task instead of replaying its rejection."""
    import repro.core.bench as bench

    original = bench._execute_flow_task

    def stalling(task):
        if task.flow == "npr":
            time.sleep(600)
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", stalling)
    db = BenchmarkDatabase(tmp_path / "db")
    strict = GenerationParams(
        **DETERMINISTIC_PARAMS, jobs=2, task_wall_budget=0.5
    )
    assert db.generate(_specs(), params=strict).report.timeouts == 2

    monkeypatch.undo()

    # Same budget again: the timeout rejections are replayed from the
    # cache — nothing re-executes, nothing is re-killed.
    db2 = BenchmarkDatabase(tmp_path / "db")
    replay = db2.generate(_specs(), params=strict).report
    assert replay.skipped_cached == 8
    assert replay.executed_flows == 0
    assert replay.timeouts == 0

    # Budget lifted: every cache key changes, so the previously killed
    # npr flows run again (and now succeed).
    db3 = BenchmarkDatabase(tmp_path / "db")
    relaxed = GenerationParams(**DETERMINISTIC_PARAMS, jobs=1)
    report = db3.generate(_specs(), params=relaxed).report
    assert report.skipped_cached == 0
    assert report.executed_flows == 8
    assert report.timeouts == 0
    assert report.admitted == 8


def test_wall_budget_unset_runs_inline(tmp_path):
    """Without budgets and with jobs=1 no worker pool is spun up."""
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(**DETERMINISTIC_PARAMS)
    report = db.generate(_specs(), params=params).report
    assert report.scheduler["mode"] == "inline"
    assert report.scheduler["workers_spawned"] == 0


def test_wall_budget_forces_pool_even_single_job(tmp_path):
    """A wall budget needs a killable worker, even at jobs=1."""
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(
        **DETERMINISTIC_PARAMS, jobs=1, task_wall_budget=30.0
    )
    report = db.generate(_specs(), params=params).report
    assert report.scheduler["mode"] == "pool"
    assert report.timeouts == 0
    assert report.admitted == 8


def _allocate_hugely(task):
    # Far past the budget under test; MemoryError fires at mmap time
    # under RLIMIT_AS, so nothing is actually committed.
    data = bytearray(8 << 30)
    return data[0]


def _echo(task):
    return ("echo", task)


def test_memory_budget_kills_task_and_recycles_worker():
    pool = WorkerPool(1, _allocate_hugely, memory_bytes=3 << 30)
    try:
        pool.dispatch(0, "hog")
        deadline = time.monotonic() + 30
        events = []
        while not events and time.monotonic() < deadline:
            events = pool.poll(0.05)
        assert events, "memory event never arrived"
        (status, idx, payload) = events[0]
        assert status == "memory"
        assert idx == 0
        # The worker that tripped the limit is replaced, not reused.
        assert pool.recycled >= 1
    finally:
        pool.shutdown()


def test_memory_budget_failure_recorded_in_sweep(tmp_path, monkeypatch):
    import repro.core.bench as bench

    original = bench._execute_flow_task

    def hungry(task):
        if task.flow == "npr":
            data = bytearray(8 << 30)
            return data[0]
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", hungry)

    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(
        **DETERMINISTIC_PARAMS, jobs=2, task_memory_budget_mb=3 * 1024
    )
    report = db.generate(_specs(), params=params).report
    assert report.memory_exceeded == 2
    assert report.admitted == 8
    assert "2 over memory budget" in report.summary()
    memory_entries = [
        entry for entry in db._flow_cache.values() if entry["flow"] == "npr"
    ]
    for entry in memory_entries:
        (rejection,) = entry["rejections"]
        assert rejection["status"] == "memory"


def test_worker_recycling_after_task_quota(tmp_path):
    db = BenchmarkDatabase(tmp_path / "db")
    params = GenerationParams(**DETERMINISTIC_PARAMS, jobs=2)
    scheduler = SchedulerParams(max_tasks_per_worker=2)
    report = db.generate(_specs(), params=params, scheduler=scheduler).report
    assert report.scheduler["mode"] == "pool"
    assert report.scheduler["workers_recycled"] >= 2
    assert report.admitted == 8
    assert report.executed_flows == 8


def test_task_budget_dataclass():
    assert not TaskBudget(None, None).bounded
    assert TaskBudget(1.0, None).bounded
    assert TaskBudget(None, 1024).bounded


@pytest.fixture
def generated_db(tmp_path):
    """A generated database with one optimizable artifact per spec."""
    db = BenchmarkDatabase(tmp_path / "db")
    db.generate(_specs(), params=GenerationParams(**DETERMINISTIC_PARAMS))
    return db


def _optimize_task_count(db) -> int:
    return sum(1 for record in db.files() if db._optimizable(record))


def test_optimize_wall_budget_kills_stalled_tasks(generated_db, monkeypatch):
    """``optimize`` honours the per-task wall budget (it used to wait
    out every stalled task)."""
    import repro.core.bench as bench

    def stalling(task):
        time.sleep(60)

    monkeypatch.setattr(bench, "_execute_optimize_task", stalling)
    tasks = _optimize_task_count(generated_db)
    assert tasks == 2
    params = GenerationParams(
        **DETERMINISTIC_PARAMS, jobs=1, task_wall_budget=0.5
    )
    started = time.monotonic()
    report = generated_db.optimize(params=params).report
    assert time.monotonic() - started < 20
    assert report.timeouts == tasks
    assert report.admitted == 0
    assert report.scheduler["mode"] == "pool"
    assert report.scheduler["workers_killed"] == tasks
    rejections = [
        entry["rejections"] for entry in generated_db._flow_cache.values()
        if entry["flow"].startswith("optimize:")
    ]
    assert [r[0]["status"] for r in rejections] == ["timeout"] * tasks


@pytest.mark.parametrize("jobs", [1, 2])
def test_optimize_task_error_is_recorded_not_fatal(generated_db, monkeypatch,
                                                   jobs):
    """One raising optimize task becomes a recorded worker error; the
    other tasks are still admitted."""
    import repro.core.bench as bench

    original = bench._execute_optimize_task

    def flaky(task):
        if task.name == "mux21":
            raise ValueError("injected optimize failure")
        return original(task)

    monkeypatch.setattr(bench, "_execute_optimize_task", flaky)
    tasks = _optimize_task_count(generated_db)
    params = GenerationParams(**DETERMINISTIC_PARAMS, jobs=jobs)
    report = generated_db.optimize(params=params).report
    assert report.worker_errors == 1
    assert report.admitted == tasks - 1
    assert "1 worker errors" in report.summary()
    (entry,) = [
        entry for entry in generated_db._flow_cache.values()
        if entry["flow"].startswith("optimize:mux21_")
    ]
    (rejection,) = entry["rejections"]
    assert rejection["status"] == "error"
    assert "injected optimize failure" in rejection["reason"]
