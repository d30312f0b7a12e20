"""Directory-based shared work queue for multi-process sweeps.

Several generator processes (possibly on several machines over a
shared filesystem) point ``--queue-dir`` at the same directory and
shard one sweep.  The protocol uses only atomic filesystem primitives:

``tasks/<key>.json``
    Task descriptor, created once with ``O_CREAT | O_EXCL`` (identical
    content from every publisher, so a lost race is harmless).
``claims/<key>.json``
    The lease.  Claiming is an ``O_CREAT | O_EXCL`` create — exactly
    one process wins — with the claimant's node id as content.  The
    owner touches the file's mtime as a heartbeat; a claim whose mtime
    is older than the lease timeout is considered dead and may be
    taken over by atomically replacing the file (``os.replace``) with
    the thief's node id.
``executions/<key>.<node>``
    Audit marker dropped by an executor immediately before running a
    task; tests use these to prove no task ran twice.
``results/<key>.json``
    The serialised :class:`~repro.core.bench.FlowTaskResult` plus the
    executing node, written with tmp-file + ``os.replace`` so readers
    never observe a torn result.  The claim is released only *after*
    the result is visible.  A non-owner's ``read_result`` can still
    miss a result that its owner writes just before releasing the
    claim, and the following ``try_claim`` then succeeds on a finished
    task; :meth:`DirectoryQueue.claim` therefore reads the result again
    after a successful claim, so a task runs once.

Every participant merges *all* results — its own and the spooled
remote ones — into its own database in task-definition order, so each
process ends the sweep with the same complete database.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from pathlib import Path

from ..core.bench import FlowArtifact, FlowTaskResult


def result_to_json(result: FlowTaskResult, executed_by: str) -> dict:
    """Serialise a task result for the queue's results spool."""
    return {
        "v": 1,
        "executed_by": executed_by,
        "flow": result.flow,
        "wall_seconds": result.wall_seconds,
        "profile_stats": result.profile_stats,
        "failure": result.failure,
        "exact_stats": result.exact_stats,
        "candidates": [asdict(candidate) for candidate in result.candidates],
    }


def result_from_json(data: dict) -> FlowTaskResult:
    """Rebuild a :class:`FlowTaskResult` from its spooled form."""
    candidates = []
    for raw in data.get("candidates", []):
        raw = dict(raw)
        raw["optimizations"] = tuple(raw.get("optimizations", ()))
        candidates.append(FlowArtifact(**raw))
    return FlowTaskResult(
        flow=data["flow"],
        candidates=tuple(candidates),
        wall_seconds=float(data.get("wall_seconds", 0.0)),
        profile_stats=data.get("profile_stats"),
        failure=data.get("failure"),
        exact_stats=data.get("exact_stats"),
    )


class DirectoryQueue:
    def __init__(self, root: Path, node: str) -> None:
        self.root = Path(root)
        self.node = node
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.executions_dir = self.root / "executions"
        for directory in (self.tasks_dir, self.claims_dir, self.results_dir,
                          self.executions_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: keys this process currently holds the lease for
        self._owned: set[str] = set()

    # -- publication -----------------------------------------------------

    def publish(self, key: str, descriptor: dict) -> bool:
        """Announce a task; ``False`` if some participant already did."""
        path = self.tasks_dir / f"{key}.json"
        payload = json.dumps(descriptor, sort_keys=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, payload.encode("utf-8"))
        finally:
            os.close(fd)
        return True

    # -- leases ----------------------------------------------------------

    def try_claim(self, key: str) -> bool:
        """Atomically acquire the lease for ``key`` (exclusive create)."""
        path = self.claims_dir / f"{key}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, self.node.encode("utf-8"))
        finally:
            os.close(fd)
        self._owned.add(key)
        return True

    def claim(self, key: str) -> tuple[bool, dict | None]:
        """Adopt ``key``'s spooled result or take its lease.

        Returns ``(False, result)`` when a result is spooled, ``(True,
        None)`` when this process now holds the lease of an unfinished
        task, and ``(False, None)`` when another process holds it.  The
        result is read again after a successful claim: its owner may
        have written it and released the lease in between.
        """
        data = self.read_result(key)
        if data is None and self.try_claim(key):
            data = self.read_result(key)
            if data is None:
                return True, None
            self.release(key)
        return False, data

    def heartbeat(self) -> None:
        """Refresh the mtime of every lease this process holds."""
        for key in list(self._owned):
            try:
                os.utime(self.claims_dir / f"{key}.json")
            except FileNotFoundError:
                # Someone stole the lease; stop heartbeating it.
                self._owned.discard(key)

    def steal(self, key: str, lease_timeout: float) -> bool:
        """Take over a stale lease whose owner stopped heartbeating.

        Replaces the claim file atomically.  Note the usual lease
        caveat: an owner that is merely *slow* (not dead) may still
        finish — results are deterministic per key, so a double
        execution converges on identical content.
        """
        path = self.claims_dir / f"{key}.json"
        try:
            stat = path.stat()
            owner = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return False
        if owner == self.node:
            return False
        if time.time() - stat.st_mtime <= lease_timeout:
            return False
        tmp = self.claims_dir / f".steal.{key}.{self.node}.tmp"
        tmp.write_text(self.node, encoding="utf-8")
        os.replace(tmp, path)
        self._owned.add(key)
        return True

    def release(self, key: str) -> None:
        """Drop our lease (call only after the result is spooled)."""
        path = self.claims_dir / f"{key}.json"
        try:
            if path.read_text(encoding="utf-8") == self.node:
                path.unlink()
        except (FileNotFoundError, OSError):
            pass
        self._owned.discard(key)

    # -- execution / results ---------------------------------------------

    def mark_execution(self, key: str) -> None:
        """Drop the audit marker: this node is about to run ``key``."""
        path = self.executions_dir / f"{key}.{self.node}"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            os.close(fd)
        except FileExistsError:
            pass

    def write_result(self, key: str, payload: dict) -> None:
        """Spool a result atomically, then release the lease."""
        path = self.results_dir / f"{key}.json"
        tmp = self.results_dir / f".{key}.{self.node}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        self.release(key)

    def read_result(self, key: str) -> dict | None:
        path = self.results_dir / f"{key}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):  # pragma: no cover - torn write
            return None

    # -- audit helpers ---------------------------------------------------

    def execution_nodes(self, key: str) -> list[str]:
        prefix = f"{key}."
        return sorted(
            entry.name[len(prefix):]
            for entry in self.executions_dir.iterdir()
            if entry.name.startswith(prefix)
        )

    def result_keys(self) -> list[str]:
        return sorted(
            entry.name[:-len(".json")]
            for entry in self.results_dir.iterdir()
            if entry.name.endswith(".json") and not entry.name.startswith(".")
        )
