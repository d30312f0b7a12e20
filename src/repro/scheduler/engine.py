"""The generation scheduler's orchestration loop.

:func:`run_generation` is the one executor of both task types: the flow
tasks of :meth:`BenchmarkDatabase.generate` and the optimize tasks of
:meth:`BenchmarkDatabase.optimize` (which runs without a journal).
Each task runs through ``bench._execute_task``, in a worker process or
in-process, under cProfile when ``GenerationParams.profile`` is set.
Tasks are dispatched out-of-order but **merged strictly in
task-definition order**, so the records list, flow-cache insertion
order and pack layout are identical no matter how execution
interleaves — that is what makes a killed-and-resumed sweep
byte-identical to an uninterrupted one.

Per-task crash-consistency protocol (the order matters):

1. admitted artifacts are written (loose file + pack append),
2. the pack index is flushed (``store.save()``),
3. the journal line is appended with fsync — **the commit point**,
4. every ``flush_every`` merges, ``index.json``/``facets.json`` and the
   scheduler stats are flushed.

Without a journal (``optimize``) steps 2 and 3 are skipped: the pack
index is flushed together with the index in step 4.

A crash between (2) and (3) leaves an orphan pack entry; resume calls
``store.repair_truncate()`` and re-runs the task, and the idempotent
pack append converges on identical bytes.
"""

from __future__ import annotations

import json
import os
import socket
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

from ..core import bench as _bench
from .budget import TaskBudget
from .journal import GenerationJournal
from .worker import WorkerPool, WorkerPoolUnavailable

GENERATION_STATS_NAME = "generation_stats.json"


@dataclass
class SchedulerParams:
    """How a sweep is executed (never part of flow cache keys —
    result-affecting knobs belong on :class:`GenerationParams`)."""

    #: Resume from the generation journal instead of starting fresh.
    resume: bool = False
    #: Recycle a worker process after this many tasks (0: never).
    max_tasks_per_worker: int = 25
    #: Re-dispatch attempts after an unexpected worker death.
    max_retries: int = 1
    #: Kill still-running exact tasks once their portfolio group already
    #: met the network's area lower bound.
    early_cancel: bool = False
    #: Flush index.json/facets.json every N merged tasks.
    flush_every: int = 8
    #: Event-loop poll granularity.
    poll_interval: float = 0.05
    #: Optional ``(stats, label)`` callback invoked when a task starts
    #: executing (``label`` names it, e.g. ``"iscas85/c432 (ortho)"``)
    #: and after every merge (``label`` is ``None``).  Purely
    #: observational — exceptions it raises are swallowed.
    progress: object | None = None

    def notify(self, stats: "SchedulerStats", label: str | None) -> None:
        if self.progress is None:
            return
        try:
            self.progress(stats, label)
        except Exception:  # noqa: BLE001 - reporting must never kill a sweep
            pass


@dataclass
class SchedulerStats:
    """Task accounting for one scheduled sweep (``/v1/stats`` payload)."""

    queued: int = 0
    done: int = 0
    resumed: int = 0
    timeouts: int = 0
    memory_exceeded: int = 0
    cancelled: int = 0
    worker_errors: int = 0
    retries: int = 0
    workers_spawned: int = 0
    workers_recycled: int = 0
    workers_killed: int = 0
    worker_deaths: int = 0
    journal_dropped_lines: int = 0
    #: Aggregate wall seconds per flow name ("ortho_opt", "exact:USE", ...).
    flow_seconds: dict[str, float] = field(default_factory=dict)
    #: Merged exact-search counters across every exact task this node
    #: merged (``ExactSearchStats.to_json``); ``None`` when no exact
    #: flow ran.
    exact_search: dict | None = None
    wall_seconds: float = 0.0
    mode: str = "inline"
    node: str = ""

    @property
    def failed(self) -> int:
        return self.timeouts + self.memory_exceeded + self.worker_errors

    def to_json(self) -> dict:
        return {
            "queued": self.queued,
            "done": self.done,
            "failed": self.failed,
            "resumed": self.resumed,
            "timeouts": self.timeouts,
            "memory_exceeded": self.memory_exceeded,
            "cancelled": self.cancelled,
            "worker_errors": self.worker_errors,
            "retries": self.retries,
            "workers_spawned": self.workers_spawned,
            "workers_recycled": self.workers_recycled,
            "workers_killed": self.workers_killed,
            "worker_deaths": self.worker_deaths,
            "journal_dropped_lines": self.journal_dropped_lines,
            "flow_seconds": dict(self.flow_seconds),
            "exact_search": self.exact_search,
            "wall_seconds": self.wall_seconds,
            "mode": self.mode,
            "node": self.node,
        }


def write_stats_file(root: Path, stats: SchedulerStats) -> None:
    """Persist scheduler stats next to the index (atomic replace)."""
    path = Path(root) / GENERATION_STATS_NAME
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(stats.to_json(), indent=2), encoding="utf-8")
    os.replace(tmp, path)


def _failure_result(flow: str, status: str, reason: str, seconds: float = 0.0):
    return _bench.FlowTaskResult(
        flow=flow, candidates=(), wall_seconds=seconds,
        failure={"status": status, "reason": reason},
    )


def _task_label(task) -> str:
    return f"{task.suite}/{task.name} ({task.flow})"


def _exact_group(flow: str) -> str | None:
    """Portfolio group an exact flow competes in, ``None`` otherwise."""
    if flow.startswith("exact:"):
        return "cart"
    if flow == "exact_hex":
        return "hex"
    return None


class _Merger:
    """Buffers out-of-order completions and merges strictly in
    task-definition order, journaling each merge as a commit point."""

    def __init__(self, db, pending, report, journal, stats, sched, node) -> None:
        self.db = db
        self.pending = pending
        self.report = report
        self.journal = journal
        self.stats = stats
        self.sched = sched
        self.node = node
        #: best admitted area per (suite, name, group) for early-cancel
        self.best_areas: dict[tuple[str, str, str], int] = {}
        self._next = 0
        self._buffer: dict[int, tuple] = {}
        self._done: set[int] = set()
        self._since_flush = 0

    def resolved(self, idx: int) -> bool:
        return idx in self._done or idx in self._buffer

    def pending_count(self) -> int:
        return len(self.pending) - len(self._done)

    def offer(self, idx: int, result) -> None:
        """Hand over a task result; ignored if ``idx`` already resolved
        (late result racing a budget kill)."""
        if self.resolved(idx):
            return
        self._buffer[idx] = ("result", result)
        self._drain()

    def offer_preloaded(self, idx: int, entry: dict) -> None:
        """Resolve a journaled task from its recorded flow-cache entry
        (resume path) — merged at its definition-order position so the
        records list stays identical to an uninterrupted run."""
        if self.resolved(idx):
            return
        self._buffer[idx] = ("preloaded", entry)
        self._drain()

    def _drain(self) -> None:
        while self._next in self._buffer:
            kind, payload = self._buffer.pop(self._next)
            _, key, task, slot, _ = self.pending[self._next]
            if kind == "preloaded":
                self._merge_preloaded(key, slot, payload)
            else:
                self._merge_result(key, task, slot, payload)
            self._done.add(self._next)
            self._next += 1
            self._since_flush += 1
            self.sched.notify(self.stats, None)
            if self._since_flush >= max(1, self.sched.flush_every):
                self.flush()

    def _merge_preloaded(self, key: str, slot, entry: dict) -> None:
        for record_json in entry.get("records", ()):
            record = _bench.BenchmarkFile.from_json(record_json)
            record = self.db._remember(record)
            slot.append(record)
            self._note_area(record.suite, record.name, record.gate_library,
                            record.area)
        self.db._flow_cache[key] = entry
        self.report.resumed += 1
        self.stats.resumed += 1

    def _merge_result(self, key: str, task, slot, result) -> None:
        status = self.db._merge_result(key, task, slot, result, self.report)
        for candidate in result.candidates:
            if candidate.status == "admitted" and candidate.width is not None:
                self._note_area(task.suite, task.name, candidate.library,
                                candidate.width * candidate.height)
        if self.journal is not None:
            # Commit point: artifacts and the pack index must be durable
            # *before* the journal says this task is done.
            self.db.store.save()
            self.journal.append(
                key=key, suite=task.suite, name=task.name, flow=task.flow,
                status=status, entry=self.db._flow_cache.get(key),
                seconds=result.wall_seconds, node=self.node,
            )
        counter = "done" if status == "done" else _bench._failure_counter(status)
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self.stats.flow_seconds[task.flow] = (
            self.stats.flow_seconds.get(task.flow, 0.0) + result.wall_seconds
        )
        # The report is per sweep, so its merged counters are this run's.
        self.stats.exact_search = self.report.exact_search

    def _note_area(self, suite: str, name: str, library: str | None,
                   area: int | None) -> None:
        if area is None:
            return
        group = "hex" if library == "Bestagon" else "cart"
        group_key = (suite, name, group)
        current = self.best_areas.get(group_key)
        if current is None or area < current:
            self.best_areas[group_key] = area

    def flush(self) -> None:
        self._since_flush = 0
        self.db._save_index()
        write_stats_file(self.db.root, self.stats)


class _Run:
    """One sweep's mutable execution state shared by both executors."""

    def __init__(self, db, pending, params, sched, report, journal,
                 bounds) -> None:
        self.db = db
        self.pending = pending
        self.params = params
        self.sched = sched
        self.bounds = bounds or {}
        self.node = f"{socket.gethostname()}-{os.getpid()}"
        self.budget = TaskBudget(
            wall_seconds=params.task_wall_budget,
            memory_bytes=(
                int(params.task_memory_budget_mb * 1024 * 1024)
                if params.task_memory_budget_mb is not None else None
            ),
        )
        self.stats = SchedulerStats(queued=len(pending), node=self.node)
        if journal is not None:
            self.stats.journal_dropped_lines = journal.dropped
        self.merger = _Merger(db, pending, report, journal, self.stats,
                              sched, self.node)

    # -- shared decisions ------------------------------------------------

    def dominated(self, idx: int) -> str | None:
        """Cancellation reason if this exact task can no longer win."""
        _, _, task, _, _ = self.pending[idx]
        if task is None:
            return None
        group = _exact_group(task.flow)
        if group is None:
            return None
        entry = self.bounds.get((task.suite, task.name), {})
        # Per-flow entries carry the clocking-period-aware bound, which
        # is never smaller than the scheme-agnostic group bound.
        bound = entry.get(task.flow, entry.get(group))
        if bound is None:
            return None
        best = self.merger.best_areas.get((task.suite, task.name, group))
        if best is not None and best <= bound:
            return (f"dominated: best admitted area {best} already meets "
                    f"the lower bound {bound}")
        return None


def run_generation(db, pending, params, sched: SchedulerParams, report,
                   journal: GenerationJournal | None,
                   bounds: dict | None = None) -> SchedulerStats:
    """Execute ``pending`` (see ``BenchmarkDatabase.generate``) and merge
    every result into ``db`` in definition order.

    ``pending`` items are ``(spec, key, task, slot, preloaded_entry)``
    tuples; items with a preloaded entry were journaled by a previous
    (killed) run and are merged without executing anything.
    """
    run = _Run(db, pending, params, sched, report, journal, bounds)
    started = monotonic()

    for idx, (_, _, task, _, preloaded) in enumerate(pending):
        if preloaded is not None:
            run.merger.offer_preloaded(idx, preloaded)

    live = [idx for idx, item in enumerate(pending)
            if item[2] is not None and item[4] is None]
    want_pool = live and (max(1, params.jobs) > 1 or run.budget.bounded)
    if want_pool:
        try:
            _run_pool(run, live)
        except WorkerPoolUnavailable:
            run.stats.mode = "inline-fallback"
            _run_inline(run, live)
    elif live:
        _run_inline(run, live)

    run.stats.wall_seconds = monotonic() - started
    if pending:
        write_stats_file(db.root, run.stats)
    report.scheduler = run.stats.to_json()
    return run.stats


# -- executors -----------------------------------------------------------------


def _run_pool(run: _Run, live: list[int]) -> None:
    """Budget-enforcing multi-process executor."""
    params, sched, merger = run.params, run.sched, run.merger
    pool = WorkerPool(
        max(1, params.jobs),
        _bench._execute_task,
        memory_bytes=run.budget.memory_bytes,
        max_tasks_per_worker=sched.max_tasks_per_worker,
    )
    run.stats.mode = "pool"
    backlog = deque(live)
    retries: dict[int, int] = {}
    try:
        while merger.pending_count() > 0:
            # 1. Dispatch onto idle workers.
            while backlog and pool.idle_count() > 0:
                idx = backlog.popleft()
                if merger.resolved(idx):
                    continue
                _, _, task, _, _ = run.pending[idx]
                reason = run.dominated(idx)
                if reason is not None:
                    merger.offer(idx, _failure_result(task.flow, "cancelled", reason))
                    continue
                pool.dispatch(idx, task)
                sched.notify(run.stats, _task_label(task))
            # 2. Collect completions.
            for status, idx, payload in pool.poll(
                sched.poll_interval if pool.busy_count > 0 else 0.0
            ):
                if merger.resolved(idx):
                    continue
                _, _, task, _, _ = run.pending[idx]
                if status == "ok":
                    merger.offer(idx, payload)
                elif status == "memory":
                    merger.offer(idx, _failure_result(task.flow, "memory", payload))
                else:
                    merger.offer(idx, _failure_result(task.flow, "error", payload))
            # 3. Enforce wall budgets.
            if run.budget.wall_seconds is not None:
                for idx, elapsed in pool.check_budgets(run.budget.wall_seconds):
                    if merger.resolved(idx):
                        continue
                    _, _, task, _, _ = run.pending[idx]
                    merger.offer(idx, _failure_result(
                        task.flow, "timeout",
                        f"task wall budget ({run.budget.wall_seconds:.2f} s) "
                        f"exceeded after {elapsed:.2f} s",
                        seconds=elapsed,
                    ))
            # 4. Early-cancel running dominated exact tasks.
            if run.bounds:
                for idx in pool.running_tasks():
                    if merger.resolved(idx):
                        continue
                    reason = run.dominated(idx)
                    if reason is None:
                        continue
                    elapsed = pool.kill_task(idx) or 0.0
                    _, _, task, _, _ = run.pending[idx]
                    merger.offer(idx, _failure_result(
                        task.flow, "cancelled", reason, seconds=elapsed))
            # 5. Retry tasks whose worker died without reporting.
            for idx in pool.reap():
                if merger.resolved(idx):
                    continue
                if retries.get(idx, 0) < sched.max_retries:
                    retries[idx] = retries.get(idx, 0) + 1
                    run.stats.retries += 1
                    backlog.appendleft(idx)
                else:
                    _, _, task, _, _ = run.pending[idx]
                    merger.offer(idx, _failure_result(
                        task.flow, "error",
                        "worker process died without reporting a result"))
    finally:
        run.stats.workers_spawned = pool.spawned
        run.stats.workers_recycled = pool.recycled
        run.stats.workers_killed = pool.killed
        run.stats.worker_deaths = pool.deaths
        pool.shutdown()


def _run_inline(run: _Run, live: list[int]) -> None:
    """In-process serial executor (``jobs=1`` without budgets, or the
    fallback when worker processes cannot be spawned).  Identical
    merge/journal behaviour; wall/memory budgets are not enforceable
    in-process."""
    for idx in live:
        if run.merger.resolved(idx):  # merged before a pool gave out
            continue
        _, _, task, _, _ = run.pending[idx]
        reason = run.dominated(idx)
        if reason is not None:
            run.merger.offer(idx, _failure_result(task.flow, "cancelled", reason))
            continue
        run.sched.notify(run.stats, _task_label(task))
        try:
            result = _bench._execute_task(task)
        except Exception as exc:  # noqa: BLE001 - recorded, not dropped
            result = _failure_result(task.flow, "error",
                                     f"{type(exc).__name__}: {exc}")
        run.merger.offer(idx, result)
