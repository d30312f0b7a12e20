"""Crash-injection tests: SIGKILLed sweeps must resume to a database
byte-identical to an uninterrupted run.

The acceptance scenario for the scheduler: a full Trindade'16 sweep is
killed with SIGKILL roughly halfway through (measured in journal
commits), relaunched with ``resume=True``, and the resulting database —
``index.json``, pack index, ``artifacts.pack`` bytes
and every loose artifact — is compared hash-for-hash against a
reference sweep that was never interrupted.  Journaled flows must not
re-execute.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
from repro.core.bench import GenerationParams
from repro.scheduler import GenerationJournal, JOURNAL_NAME, SchedulerParams, WorkerPool

from .conftest import (
    DETERMINISTIC_PARAMS,
    FULL_SUITE_FLOWS,
    assert_databases_identical,
    finish_generate,
    kill_at_journal_lines,
    run_generate,
    spawn_generate,
)


def _committed(db_root) -> GenerationJournal:
    return GenerationJournal.load(db_root / JOURNAL_NAME)


def test_sigkill_midsweep_resume_is_byte_identical(tmp_path, rng):
    """The headline invariant: kill at ~50%, resume, get identical bytes."""
    reference = tmp_path / "reference"
    victim = tmp_path / "victim"
    run_generate(reference, suite="trindade16")

    # Slow each flow down so the kill window is wide, and flush the
    # index frequently so the crash lands with partial index state.
    proc = spawn_generate(
        victim, suite="trindade16", delay=0.04, scheduler={"flush_every": 3}
    )
    threshold = rng.randint(
        FULL_SUITE_FLOWS * 2 // 5, FULL_SUITE_FLOWS * 3 // 5
    )
    kill_at_journal_lines(
        proc, victim / JOURNAL_NAME, threshold
    )
    committed = len(_committed(victim))
    assert 0 < committed < FULL_SUITE_FLOWS, "kill missed the sweep window"

    resumed = run_generate(
        victim, suite="trindade16", scheduler={"resume": True, "flush_every": 3}
    )
    # Every journaled flow is reused (either via the flushed flow cache
    # or seeded straight from the journal); only the rest re-execute.
    assert resumed["executed"] == FULL_SUITE_FLOWS - committed
    assert resumed["resumed"] + resumed["skipped_cached"] == committed
    assert_databases_identical(reference, victim)

    # The recovered database also passes the full verification oracle
    # (DRC + output-signature equivalence per artifact).
    db = BenchmarkDatabase(victim)
    verification = db.verify_all()
    assert verification.ok, [
        record for record in verification.records if record.status != "ok"
    ]


def test_double_crash_then_resume(tmp_path):
    """Two successive kills must not compound: resume remains exact."""
    reference = tmp_path / "reference"
    victim = tmp_path / "victim"
    run_generate(reference, suite="trindade16")

    proc = spawn_generate(victim, suite="trindade16", delay=0.04)
    kill_at_journal_lines(proc, victim / JOURNAL_NAME, FULL_SUITE_FLOWS // 4)
    proc = spawn_generate(
        victim, suite="trindade16", delay=0.04, scheduler={"resume": True}
    )
    kill_at_journal_lines(proc, victim / JOURNAL_NAME, FULL_SUITE_FLOWS // 2)
    committed = len(_committed(victim))
    assert committed < FULL_SUITE_FLOWS

    resumed = run_generate(
        victim, suite="trindade16", scheduler={"resume": True}
    )
    assert resumed["executed"] == FULL_SUITE_FLOWS - committed
    assert_databases_identical(reference, victim)


def test_resume_with_truncated_journal(tmp_path):
    """A journal torn mid-line replays its intact prefix; the torn task
    and everything after it re-execute — still byte-identical."""
    reference = tmp_path / "reference"
    victim = tmp_path / "victim"
    run_generate(reference, benchmarks=(("trindade16", "mux21"),
                                        ("trindade16", "xor2")))
    run_generate(victim, benchmarks=(("trindade16", "mux21"),
                                     ("trindade16", "xor2")))

    journal_path = victim / JOURNAL_NAME
    raw = journal_path.read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) == 8
    # Keep 5 intact lines plus half of the 6th; drop the index so the
    # journal is the *only* record of completed work.
    torn = b"".join(lines[:5]) + lines[5][: len(lines[5]) // 2]
    journal_path.write_bytes(torn)
    (victim / "index.json").unlink()

    resumed = run_generate(
        victim,
        benchmarks=(("trindade16", "mux21"), ("trindade16", "xor2")),
        scheduler={"resume": True},
    )
    assert resumed["resumed"] == 5
    assert resumed["executed"] == 8 - 5
    assert resumed["scheduler"]["journal_dropped_lines"] == 1
    assert_databases_identical(reference, victim)


def test_resume_with_corrupt_middle_line(tmp_path):
    """Corruption in the journal's *middle* re-runs exactly that task;
    definition-order merging keeps the database byte-identical."""
    reference = tmp_path / "reference"
    victim = tmp_path / "victim"
    specs = (("trindade16", "mux21"), ("trindade16", "xor2"))
    run_generate(reference, benchmarks=specs)
    run_generate(victim, benchmarks=specs)

    journal_path = victim / JOURNAL_NAME
    lines = journal_path.read_bytes().splitlines(keepends=True)
    lines[3] = b'{"v": 1, "key": "truncated-mid-wri\n'
    journal_path.write_bytes(b"".join(lines))
    (victim / "index.json").unlink()

    resumed = run_generate(
        victim, benchmarks=specs, scheduler={"resume": True}
    )
    assert resumed["resumed"] == 7
    assert resumed["executed"] == 1
    assert_databases_identical(reference, victim)


def test_resume_after_orphan_pack_tail(tmp_path):
    """A crash after a pack append but before the journal commit leaves
    an orphan pack tail; resume truncates it and re-appends the same
    bytes."""
    reference = tmp_path / "reference"
    victim = tmp_path / "victim"
    specs = (("trindade16", "mux21"),)
    run_generate(reference, benchmarks=specs)
    run_generate(victim, benchmarks=specs)

    # Fake the orphan: garbage appended to the pack that no index entry
    # references, as if the process died mid-task after the append.
    pack_path = victim / "artifacts.pack"
    with open(pack_path, "ab") as handle:
        handle.write(b"\x00" * 257)
    journal_path = victim / JOURNAL_NAME
    lines = journal_path.read_bytes().splitlines(keepends=True)
    journal_path.write_bytes(b"".join(lines[:-2]))
    (victim / "index.json").unlink()

    resumed = run_generate(
        victim, benchmarks=specs, scheduler={"resume": True}
    )
    assert resumed["executed"] == 2
    assert_databases_identical(reference, victim)


def _identity(task):
    return task


def test_dispatch_skips_past_a_dead_idle_worker():
    """An idle worker found dead at dispatch is replaced, and the task
    goes to the replacement even when the dead one was the last idle
    worker in the pool's list."""
    pool = WorkerPool(2, _identity)
    try:
        busy, idle = pool._workers
        busy.current = 99  # running some other task
        idle.process.kill()
        idle.process.join(timeout=5)
        pool.dispatch(0, "task")
        assert pool.deaths == 1
        assert [w.current for w in pool._workers] == [99, 0]
    finally:
        pool.shutdown()


def test_worker_sigkill_is_retried_in_process(tmp_path, monkeypatch):
    """A SIGKILLed *worker* (not the whole run) is detected and its task
    re-dispatched; the sweep completes with identical results."""
    import repro.core.bench as bench

    original = bench._execute_flow_task

    def slow(task):
        time.sleep(0.05)
        return original(task)

    monkeypatch.setattr(bench, "_execute_flow_task", slow)

    killed = threading.Event()

    def killer():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            children = multiprocessing.active_children()
            if children:
                os.kill(children[0].pid, signal.SIGKILL)
                killed.set()
                return
            time.sleep(0.005)

    thread = threading.Thread(target=killer)
    thread.start()
    try:
        specs = [get_benchmark("trindade16", "mux21"),
                 get_benchmark("trindade16", "xor2")]
        db = BenchmarkDatabase(tmp_path / "victim")
        outcome = db.generate(
            specs, params=GenerationParams(**DETERMINISTIC_PARAMS, jobs=2)
        )
    finally:
        thread.join(timeout=30)
    assert killed.is_set(), "no worker process ever appeared"

    report = outcome.report
    assert report.scheduler["mode"] == "pool"
    assert report.scheduler["worker_deaths"] >= 1
    # The retry succeeded: nothing surfaced as a worker error.
    assert report.worker_errors == 0
    assert report.executed_flows == 8

    reference = tmp_path / "reference"
    run_generate(
        reference, benchmarks=(("trindade16", "mux21"), ("trindade16", "xor2"))
    )
    assert_databases_identical(reference, tmp_path / "victim")


def test_resumed_journal_names_the_process_of_each_line(tmp_path):
    """A resumed sweep keeps the crashed process's journal lines and
    appends one line per flow it executes under its own ``hostname-pid``."""
    root = tmp_path / "db"
    crashed = spawn_generate(root, suite="trindade16", delay=0.04)
    committed = kill_at_journal_lines(crashed, root / JOURNAL_NAME, 5)
    assert 0 < committed < FULL_SUITE_FLOWS, "kill missed the sweep window"

    resumer = spawn_generate(root, suite="trindade16", scheduler={"resume": True})
    report = finish_generate(resumer)
    host = socket.gethostname()
    assert report["scheduler"]["node"] == f"{host}-{resumer.pid}"
    assert report["executed"] == FULL_SUITE_FLOWS - committed
    nodes = [
        json.loads(line)["node"]
        for line in (root / JOURNAL_NAME).read_text().splitlines()
    ]
    assert nodes == (
        [f"{host}-{crashed.pid}"] * committed
        + [f"{host}-{resumer.pid}"] * report["executed"]
    )


def test_resume_on_clean_database_executes_everything(tmp_path):
    """`--resume` with no journal behaves exactly like a fresh run."""
    root = tmp_path / "db"
    report = run_generate(
        root,
        benchmarks=(("trindade16", "mux21"),),
        scheduler={"resume": True},
    )
    assert report["executed"] == 4
    assert report["resumed"] == 0


def test_fresh_run_discards_stale_journal(tmp_path):
    """Without ``resume``, a leftover journal from a crashed sweep is
    truncated, not replayed."""
    root = tmp_path / "db"
    proc = spawn_generate(root, suite="trindade16", delay=0.04)
    kill_at_journal_lines(proc, root / JOURNAL_NAME, 5)
    assert len(_committed(root)) >= 5

    report = run_generate(root, benchmarks=(("trindade16", "mux21"),))
    # Only cache hits from the crashed run's flushed index survive — the
    # journal itself starts over and records exactly this sweep.
    assert report["resumed"] == 0
    journal = _committed(root)
    assert len(journal) == report["executed"]
