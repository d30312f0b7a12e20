"""Kill-safe worker pool for generation tasks.

Unlike a :mod:`concurrent.futures` pool, every worker here has its own
command pipe, so the parent always knows *which* task a worker is
running and can SIGKILL exactly that worker when the task blows its
wall budget or is cancelled as dominated — then respawn a replacement
and keep the rest of the sweep moving.  Workers are also recycled after a bounded
number of tasks (and immediately after a ``MemoryError``) so leaked
C-extension state or a fragmented heap cannot poison later tasks.

Event model: :meth:`WorkerPool.poll` drains a shared result queue and
returns ``(status, idx, payload)`` tuples where ``status`` is ``ok``
(payload is the task's return value), ``memory`` or ``error`` (payload
is a reason string).  Tasks whose worker died without reporting are
surfaced by :meth:`WorkerPool.reap` so the engine can retry them.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from time import monotonic
from typing import Callable

from .budget import apply_memory_limit


class WorkerPoolUnavailable(RuntimeError):
    """Raised when worker processes cannot be spawned at all."""


def _worker_main(conn, results, worker_id: int, fn: Callable, memory_bytes: int | None) -> None:
    """Worker loop: apply the memory budget, then serve tasks until EOF."""
    if memory_bytes is not None:
        apply_memory_limit(memory_bytes)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        idx, task = item
        try:
            result = fn(task)
        except MemoryError:
            # The heap may be unusable now; report and exit so the
            # parent replaces this worker with a fresh one.
            try:
                results.put((worker_id, idx, "memory",
                             "address-space budget exhausted (MemoryError)"))
            finally:
                break
        except BaseException as exc:  # noqa: BLE001 - must not kill the loop silently
            results.put((worker_id, idx, "error", f"{type(exc).__name__}: {exc}"))
            continue
        results.put((worker_id, idx, "ok", result))
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    __slots__ = ("id", "process", "conn", "tasks_done", "current", "started_at")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn
        self.tasks_done = 0
        self.current: int | None = None
        self.started_at = 0.0


class WorkerPool:
    def __init__(self, workers: int, fn: Callable, *, memory_bytes: int | None = None,
                 max_tasks_per_worker: int = 0) -> None:
        self._fn = fn
        self._memory_bytes = memory_bytes
        self.max_tasks_per_worker = max_tasks_per_worker
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._by_id: dict[int, _Worker] = {}
        self._next_id = 0
        self.spawned = 0
        self.recycled = 0
        self.killed = 0
        self.deaths = 0
        try:
            self._results = self._ctx.Queue()
            for _ in range(max(1, workers)):
                self._spawn(required=True)
        except WorkerPoolUnavailable:
            self.shutdown()
            raise
        except (OSError, RuntimeError, ValueError) as exc:
            self.shutdown()
            raise WorkerPoolUnavailable(str(exc)) from exc

    # -- lifecycle -------------------------------------------------------

    def _spawn(self, required: bool = False) -> None:
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._results, self._next_id, self._fn,
                      self._memory_bytes),
                daemon=True,
            )
            process.start()
        except (OSError, RuntimeError, ValueError) as exc:
            # Mid-run a shrunken pool is survivable; an empty one is not.
            if required or not self._workers:
                raise WorkerPoolUnavailable(str(exc)) from exc
            return
        child_conn.close()
        worker = _Worker(self._next_id, process, parent_conn)
        self._next_id += 1
        self._workers.append(worker)
        self._by_id[worker.id] = worker
        self.spawned += 1

    def _drop(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker in self._workers:
            self._workers.remove(worker)
        self._by_id.pop(worker.id, None)

    def _retire(self, worker: _Worker, respawn: bool = True) -> None:
        """Gracefully stop a worker (recycling) and replace it."""
        try:
            worker.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        self._drop(worker)
        self.recycled += 1
        if respawn:
            self._spawn()

    def shutdown(self) -> None:
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers):
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            self._drop(worker)
        results = getattr(self, "_results", None)
        if results is not None:
            results.close()
            results.join_thread()

    # -- dispatch / events -----------------------------------------------

    def idle_count(self) -> int:
        return sum(1 for w in self._workers if w.current is None)

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.current is not None)

    def dispatch(self, idx: int, task) -> None:
        for worker in self._workers:
            if worker.current is None:
                try:
                    worker.conn.send((idx, task))
                except (BrokenPipeError, OSError):
                    # Worker died while idle; replace it and try the rest.
                    self._drop(worker)
                    self.deaths += 1
                    self._spawn()
                    continue
                worker.current = idx
                worker.started_at = monotonic()
                return
        raise RuntimeError("dispatch() called with no idle worker")

    def poll(self, timeout: float) -> list[tuple[str, int, object]]:
        items = []
        try:
            if timeout > 0:
                items.append(self._results.get(timeout=timeout))
            else:
                items.append(self._results.get_nowait())
        except queue_mod.Empty:
            pass
        while True:
            try:
                items.append(self._results.get_nowait())
            except queue_mod.Empty:
                break
        events = []
        for worker_id, idx, status, payload in items:
            worker = self._by_id.get(worker_id)
            if worker is not None and worker.current == idx:
                worker.current = None
                worker.tasks_done += 1
                if status == "memory":
                    self._retire(worker)
                elif (self.max_tasks_per_worker
                      and worker.tasks_done >= self.max_tasks_per_worker):
                    self._retire(worker)
            events.append((status, idx, payload))
        return events

    # -- enforcement -----------------------------------------------------

    def kill_task(self, idx: int) -> float | None:
        """SIGKILL the worker running ``idx``; returns elapsed seconds."""
        for worker in self._workers:
            if worker.current == idx:
                elapsed = monotonic() - worker.started_at
                worker.process.kill()
                worker.process.join(timeout=5.0)
                self._drop(worker)
                self.killed += 1
                self._spawn()
                return elapsed
        return None

    def check_budgets(self, wall_seconds: float) -> list[tuple[int, float]]:
        """Kill every task past its wall budget; returns (idx, elapsed)."""
        expired = []
        now = monotonic()
        for worker in list(self._workers):
            if worker.current is not None and now - worker.started_at > wall_seconds:
                idx = worker.current
                elapsed = self.kill_task(idx)
                expired.append((idx, elapsed if elapsed is not None else wall_seconds))
        return expired

    def reap(self) -> list[int]:
        """Collect tasks whose worker died without reporting a result."""
        orphans = []
        for worker in list(self._workers):
            if not worker.process.is_alive():
                if worker.current is not None:
                    orphans.append(worker.current)
                self._drop(worker)
                self.deaths += 1
                self._spawn()
        return orphans

    def running_tasks(self) -> list[int]:
        return [w.current for w in self._workers if w.current is not None]
