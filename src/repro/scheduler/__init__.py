"""Work-queue generation scheduler (checkpoint/resume, budgets).

``BenchmarkDatabase.generate`` used to fan a flat task list over one
process pool and lose every in-flight flow on a crash, timeout or OOM.
This package replaces that fan-out with a scheduler built for
unattended portfolio sweeps (the paper's Table I workload — every tool
× clocking scheme × gate library per benchmark, for hours):

* :mod:`repro.scheduler.journal` — a durable append-only journal of
  completed/failed ``(suite, name, flow, params-digest)`` keys.  Every
  merged task is fsync-committed as one JSON line, so a killed run
  resumes exactly where it left off (``mnt-bench generate --resume``)
  and a torn final line is dropped, not fatal.
* :mod:`repro.scheduler.budget` — per-task wall-time and memory
  budgets.  A pathological exact-search task is SIGKILLed at its wall
  budget (recorded as ``rejected: timeout``, never silently dropped)
  and an address-space limit turns runaway allocation into a recorded
  ``memory`` rejection.
* :mod:`repro.scheduler.worker` — the kill-safe worker pool: dedicated
  pipes per worker so the parent can target one task, worker recycling
  after N tasks, respawn-and-retry on unexpected worker death.
* :mod:`repro.scheduler.engine` — the orchestration loop tying the
  above together, plus :class:`SchedulerStats` (tasks queued / running
  / done / failed / cancelled, per-flow wall time) surfaced
  through :class:`~repro.core.bench.GenerationReport` and the serving
  layer's ``/v1/stats``.
"""

from .budget import TaskBudget, apply_memory_limit
from .engine import (
    GENERATION_STATS_NAME,
    SchedulerParams,
    SchedulerStats,
    run_generation,
)
from .journal import JOURNAL_NAME, GenerationJournal, JournalRecord
from .worker import WorkerPool, WorkerPoolUnavailable

__all__ = [
    "GENERATION_STATS_NAME",
    "JOURNAL_NAME",
    "GenerationJournal",
    "JournalRecord",
    "SchedulerParams",
    "SchedulerStats",
    "TaskBudget",
    "WorkerPool",
    "WorkerPoolUnavailable",
    "apply_memory_limit",
    "run_generation",
]
