"""Parallel portfolio exact search with shared incumbent bounds.

The exact search enumerates aspect ratios in canonical ascending-area
order and returns the first feasible one; each per-ratio search is fully
independent of the others.  This module decomposes that dimension sweep
into speculative per-dimension subtasks executed on a fork pool:

* **Shared incumbent bound** — a ``multiprocessing.Value`` holds the
  smallest canonical ratio index proven feasible so far.  A worker that
  finds a layout lowers it under the lock *before* reporting, and every
  worker polls it inside the searcher's tick check, so a subtask whose
  dimension is dominated (``index > incumbent``) aborts within ~64
  search ticks of any improvement anywhere in the pool.
* **Early kill** — the parent additionally SIGKILLs workers that remain
  on a dominated dimension past a short grace period (a backstop for
  workers stuck outside the tick loop, e.g. deep in a router call), and
  cancels not-yet-dispatched dominated subtasks outright.
* **Determinism** — the returned layout is byte-identical to the
  sequential engine's: both walk the same canonical ratio list (same
  tie-break ``(area, |w - h|, w)``), run the identical ``_Searcher`` per
  ratio, and the parallel winner is the smallest feasible index whose
  whole prefix resolved infeasible — exactly the sequential fixpoint.
  Workers ship layouts as canonical ``.fgl`` text (byte-stable round
  trip), so the parent returns the same bytes the worker serialised.
  The one documented divergence: when the global ``timeout`` strikes
  with an unproven incumbent, the parallel engine returns the incumbent
  with ``timed_out=True`` where the sequential engine returns ``None``.
* **Budget semantics** — workers are forked, so they inherit the
  RLIMIT_AS set by the scheduler's ``task_memory_budget_mb`` (see
  :func:`repro.scheduler.budget.apply_memory_limit`); a subtask dying
  on ``MemoryError`` is recorded as a budget kill and not retried.
  Workers exit on pipe EOF and check ``os.getppid()`` during search, so
  a SIGKILLed parent flow worker (wall budget) cannot leak children.
* **Fault tolerance** — a worker that dies without reporting (crash,
  SIGKILL injection) has its subtask retried on a fresh worker, at most
  once per dimension; the retry reruns the identical deterministic
  search, so results are unchanged.  If the pool cannot be (re)built at
  all, the engine falls back to the sequential one.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections

from ..io.fgl import fgl_to_layout, layout_to_fgl
from ..networks.logic_network import LogicNetwork
from .exact import (
    ExactParams,
    ExactResult,
    ExactSearchStats,
    _Dominated,
    _prepare_search,
    _Searcher,
    _sequential_exact_layout,
    _Timeout,
)

#: Subtask states that resolve a dimension as "searched, not feasible"
#: for the purpose of proving the incumbent minimal.  ``failed`` (worker
#: died beyond the retry budget) is included so the run terminates; it
#: is surfaced via ``stats.subtask_failures`` as an incomplete proof.
_PREFIX_RESOLVED = frozenset({"infeasible", "ratio-timeout", "timeout", "failed"})

#: Any state other than ``pending``/``running`` — dimension needs no work.
_RESOLVED = _PREFIX_RESOLVED | frozenset({"feasible", "dominated", "pruned", "killed"})


def _subtask_worker(conn, worker_id, ntk, elements, ratios, params, incumbent,
                    deadline, parent_pid):
    """Worker loop: search one dimension per command until EOF.

    Results are reported on the worker's own duplex pipe (not a shared
    queue) so a SIGKILL mid-report can only corrupt the dying worker's
    stream, which the parent discards.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, kill_self = message
        if kill_self:
            # Crash-injection hook: die exactly as an external SIGKILL
            # (OOM killer, operator) would, without reporting.
            os.kill(os.getpid(), signal.SIGKILL)
        width, height = ratios[index]
        ratio_deadline = deadline
        if params.ratio_timeout is not None:
            ratio_deadline = min(deadline, time.monotonic() + params.ratio_timeout)
        searcher = _Searcher(
            ntk, elements, width, height, params, ratio_deadline,
            incumbent=incumbent, ratio_index=index, parent_pid=parent_pid,
        )
        try:
            layout = searcher.run()
        except _Dominated:
            _report(conn, (index, "dominated", None))
            continue
        except _Timeout:
            status = "timeout" if time.monotonic() > deadline else "ratio-timeout"
            _report(conn, (index, status, None))
            continue
        except MemoryError:
            # The heap may be unusable; report on a best-effort basis
            # and exit so the parent replaces this worker.
            _report(conn, (index, "memory", None))
            os._exit(1)
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            _report(conn, (index, "error", f"{type(exc).__name__}: {exc}"))
            continue
        if layout is not None:
            # Publish the improvement *before* reporting so every other
            # worker starts pruning against it immediately.
            with incumbent.get_lock():
                if index < incumbent.value:
                    incumbent.value = index
            _report(conn, (index, "feasible", layout_to_fgl(layout)))
        else:
            _report(conn, (index, "infeasible", None))
    try:
        conn.close()
    except OSError:
        pass


def _report(conn, event) -> None:
    try:
        conn.send(event)
    except (BrokenPipeError, OSError):
        os._exit(1)


class _Subworker:
    __slots__ = ("process", "conn", "current", "dominated_since")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.current: int | None = None
        self.dominated_since: float | None = None


class _PoolBroken(Exception):
    """No workers left and none can be spawned — fall back sequential."""


def parallel_exact_layout(
    network: LogicNetwork,
    params: ExactParams,
    *,
    kill_grace_seconds: float = 0.05,
    max_retries: int = 1,
    _kill_once=(),
) -> ExactResult:
    """Run the exact dimension sweep on a fork pool of ``params.jobs``.

    ``kill_grace_seconds`` is how long a worker may linger on a
    dominated dimension (past the cooperative incumbent poll) before
    the parent SIGKILLs it.  ``_kill_once`` is a test-only crash
    injection hook: a set of dimension indices whose first dispatch
    makes the worker SIGKILL itself, exercising the bounded retry path.
    """
    started = time.monotonic()
    deadline = started + params.timeout
    jobs = max(1, int(params.jobs))

    ntk, elements, ratios, filtered = _prepare_search(network, params)
    total = len(ratios)
    stats = ExactSearchStats(
        engine="parallel", jobs=jobs,
        dimensions_total=total + filtered, dimensions_filtered=filtered,
    )
    if total == 0:
        return ExactResult(None, time.monotonic() - started, False, 0, stats)
    if min(jobs, total) <= 1:
        # One worker (or one dimension) degenerates to the sequential
        # sweep; run it in-process and skip the fork overhead.
        return _sequential_exact_layout(network, params)

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return _sequential_exact_layout(network, params)

    incumbent = context.Value("i", total)
    parent_pid = os.getpid()
    kill_once = set(_kill_once)
    workers: list[_Subworker] = []

    def spawn() -> _Subworker | None:
        try:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_subtask_worker,
                args=(child_conn, len(workers), ntk, elements, ratios, params,
                      incumbent, deadline, parent_pid),
                daemon=True,
            )
            process.start()
        except (OSError, RuntimeError, ValueError):
            return None
        child_conn.close()
        worker = _Subworker(process, parent_conn)
        workers.append(worker)
        return worker

    statuses = ["pending"] * total
    fgl_by_index: dict[int, str] = {}
    backlog: deque[int] = deque(range(total))
    retries = [0] * total
    dispatched: set[int] = set()
    best = total  # parent's view of the incumbent (canonical ratio index)
    timed_out = False

    def note_feasible(index: int, payload: str) -> None:
        nonlocal best
        fgl_by_index[index] = payload
        statuses[index] = "feasible"
        if index < best:
            best = index
            stats.incumbent_updates += 1
            with incumbent.get_lock():
                if index < incumbent.value:
                    incumbent.value = index

    def retry_or_fail(index: int) -> None:
        if retries[index] < max_retries:
            retries[index] += 1
            stats.subtask_retries += 1
            statuses[index] = "pending"
            backlog.appendleft(index)
        else:
            statuses[index] = "failed"
            stats.subtask_failures += 1

    def drop(worker: _Subworker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        workers.remove(worker)

    try:
        for _ in range(min(jobs, total)):
            spawn()
        if not workers:
            raise _PoolBroken

        while True:
            now = time.monotonic()
            if now > deadline:
                timed_out = True
                break

            # Drain per-worker result pipes (each worker owns its pipe,
            # so a kill mid-report only corrupts a discarded stream).
            ready = _wait_connections(
                [w.conn for w in workers if w.current is not None], timeout=0.005
            ) if any(w.current is not None for w in workers) else []
            for conn in ready:
                worker = next((w for w in workers if w.conn is conn), None)
                if worker is None:
                    continue
                try:
                    index, status, payload = worker.conn.recv()
                except (EOFError, OSError, ValueError):
                    continue  # death is handled by the reap pass below
                if worker.current == index:
                    worker.current = None
                    worker.dominated_since = None
                if statuses[index] != "running":
                    continue  # stale report for an already-resolved dimension
                if status == "feasible":
                    note_feasible(index, payload)
                elif status == "memory":
                    stats.budget_kills += 1
                    statuses[index] = "failed"
                    stats.subtask_failures += 1
                elif status == "error":
                    retry_or_fail(index)
                else:  # infeasible / ratio-timeout / timeout / dominated
                    statuses[index] = status
                    if status == "timeout":
                        timed_out = True

            # Completion: the smallest feasible index wins once its
            # whole prefix is resolved; with no feasible index the run
            # ends when every dimension resolved.
            if best < total and all(
                statuses[i] in _PREFIX_RESOLVED for i in range(best)
            ):
                break
            if all(status in _RESOLVED for status in statuses):
                break

            # Reap workers that died without reporting and retry their
            # dimension on a fresh worker (bounded per dimension).
            for worker in list(workers):
                if worker.process.is_alive():
                    continue
                index = worker.current
                drop(worker)
                if index is not None and statuses[index] == "running":
                    retry_or_fail(index)

            # Early-kill workers stuck on a dominated dimension: the
            # cooperative incumbent poll aborts them within ~64 ticks,
            # the SIGKILL is the backstop past the grace period.
            for worker in list(workers):
                index = worker.current
                if index is None or index <= best:
                    worker.dominated_since = None
                    continue
                if worker.dominated_since is None:
                    worker.dominated_since = now
                elif now - worker.dominated_since >= kill_grace_seconds:
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                    drop(worker)
                    statuses[index] = "killed"
                    stats.dimensions_killed += 1

            # Keep the pool at strength while unresolved work remains,
            # then dispatch pending dimensions in canonical order.
            outstanding = sum(1 for s in statuses if s in ("pending", "running"))
            while len(workers) < min(jobs, max(outstanding, 1)):
                if spawn() is None:
                    if not workers:
                        raise _PoolBroken
                    break
            for worker in workers:
                if worker.current is not None:
                    continue
                while backlog:
                    index = backlog.popleft()
                    if statuses[index] != "pending":
                        continue
                    if index > best:
                        statuses[index] = "pruned"
                        stats.dimensions_pruned += 1
                        continue
                    kill_flag = index in kill_once
                    if kill_flag:
                        kill_once.discard(index)
                    try:
                        worker.conn.send((index, kill_flag))
                    except (BrokenPipeError, OSError):
                        backlog.appendleft(index)
                        break  # dead worker; the reap pass replaces it
                    worker.current = index
                    statuses[index] = "running"
                    if index not in dispatched:
                        dispatched.add(index)
                        stats.dimensions_explored += 1
                    break
    except _PoolBroken:
        return _sequential_exact_layout(network, params)
    finally:
        for worker in list(workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(workers):
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            drop(worker)

    # Unreached backlog dimensions (loop ended before dispatch) count as
    # pruned when dominated — they were never searched.
    for index, status in enumerate(statuses):
        if status == "pending" and index > best:
            statuses[index] = "pruned"
            stats.dimensions_pruned += 1

    runtime = time.monotonic() - started
    if best < total:
        layout = fgl_to_layout(fgl_by_index[best])
        proven = all(statuses[i] in _PREFIX_RESOLVED for i in range(best))
        return ExactResult(
            layout, runtime, timed_out and not proven,
            stats.dimensions_explored, stats,
        )
    return ExactResult(None, runtime, timed_out, stats.dimensions_explored, stats)
