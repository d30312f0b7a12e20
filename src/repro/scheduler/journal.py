"""Durable append-only journal of completed/failed generation tasks.

The journal is a JSONL file living next to ``index.json`` in the
database root.  Each line is one committed task::

    {"v": 1, "key": "<params-digest>", "suite": "trindade16",
     "name": "mux21", "flow": "ortho_opt", "status": "done",
     "entry": {...flow-cache entry...}, "seconds": 0.012,
     "node": "host-1234"}

``status`` is ``done`` for a merged result (including results with no
admitted layout) and ``timeout`` / ``memory`` / ``cancelled`` /
``error`` for budget or worker failures.  ``entry`` carries the full
flow-cache entry so a resumed run can reconstruct cache state for
tasks whose ``index.json`` flush had not happened yet at crash time.

Durability contract: a line is appended (with ``flush`` + ``fsync``)
only *after* the task's artifacts are on disk and the pack index has
been flushed — the journal line is the commit point.  The loader is
tolerant by design: a torn final line (crash mid-write) or corrupted
middle line is skipped and counted in :attr:`GenerationJournal.dropped`
rather than aborting the resume.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

JOURNAL_NAME = "generation_journal.jsonl"
JOURNAL_VERSION = 1

_VALID_STATUSES = frozenset({"done", "timeout", "memory", "cancelled", "error"})


@dataclass(frozen=True)
class JournalRecord:
    """One committed task, as read back from the journal."""

    key: str
    suite: str
    name: str
    flow: str
    status: str
    entry: dict | None
    seconds: float
    node: str


class GenerationJournal:
    """Append-only journal with fsync'd commit points.

    Use :meth:`fresh` to start a new sweep (truncates any stale file)
    and :meth:`load` to resume one.  ``key in journal`` answers "was
    this task committed?"; :meth:`cache_entry` returns the flow-cache
    entry a resumed run should seed for a journaled key.
    """

    def __init__(self, path: Path, records: dict[str, JournalRecord] | None = None,
                 dropped: int = 0) -> None:
        self.path = Path(path)
        self.records: dict[str, JournalRecord] = dict(records or {})
        #: malformed / truncated lines skipped by :meth:`load`
        self.dropped = dropped

    @classmethod
    def fresh(cls, path: Path) -> "GenerationJournal":
        """Start an empty journal, discarding any previous one."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        return cls(path)

    @classmethod
    def load(cls, path: Path) -> "GenerationJournal":
        """Read a journal back, skipping lines that fail validation."""
        path = Path(path)
        records: dict[str, JournalRecord] = {}
        dropped = 0
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return cls(path)
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            record = _parse_line(line)
            if record is None:
                dropped += 1
                continue
            records[record.key] = record
        return cls(path, records, dropped)

    def append(self, *, key: str, suite: str, name: str, flow: str, status: str,
               entry: dict | None, seconds: float, node: str) -> None:
        """Commit one task.  Returns only after the line is fsync'd."""
        record = JournalRecord(key=key, suite=suite, name=name, flow=flow,
                               status=status, entry=entry, seconds=seconds,
                               node=node)
        payload = {
            "v": JOURNAL_VERSION,
            "key": key,
            "suite": suite,
            "name": name,
            "flow": flow,
            "status": status,
            "entry": entry,
            "seconds": seconds,
            "node": node,
        }
        line = json.dumps(payload, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.records[key] = record

    def cache_entry(self, key: str) -> dict | None:
        record = self.records.get(key)
        return record.entry if record is not None else None

    def __contains__(self, key: str) -> bool:
        return key in self.records

    def __len__(self) -> int:
        return len(self.records)


def _parse_line(line: bytes) -> JournalRecord | None:
    """Validate one journal line; ``None`` means drop it."""
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict) or data.get("v") != JOURNAL_VERSION:
        return None
    key = data.get("key")
    status = data.get("status")
    entry = data.get("entry")
    if not isinstance(key, str) or status not in _VALID_STATUSES:
        return None
    if entry is not None and not isinstance(entry, dict):
        return None
    try:
        seconds = float(data.get("seconds", 0.0))
    except (TypeError, ValueError):
        return None
    return JournalRecord(
        key=key,
        suite=str(data.get("suite", "")),
        name=str(data.get("name", "")),
        flow=str(data.get("flow", "")),
        status=status,
        entry=entry,
        seconds=seconds,
        node=str(data.get("node", "")),
    )
