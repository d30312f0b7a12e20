"""Shared machinery for the scheduler's crash-injection test harness.

The heavy tests drive ``BenchmarkDatabase.generate`` in a *subprocess*
(so it can be SIGKILLed like a real crashed sweep) via a small driver
script that optionally wraps ``_execute_flow_task`` with a sleep —
slowing tasks down enough that a kill lands mid-sweep deterministically.

Byte-identity between a killed-and-resumed database and an
uninterrupted reference is the scheduler's core invariant; it is
asserted with :func:`database_fingerprint`, which hashes every durable
file (index, facets, pack, pack index, loose artifacts) while ignoring
the scheduler's own bookkeeping files (journal, stats).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Params that make every flow deterministic and fast: anytime
#: optimizers pinned to fixed evaluation counts with un-hittable
#: timeouts, exact/NanoPlacer disabled, runtimes zeroed for
#: byte-stable records.
DETERMINISTIC_PARAMS: dict = {
    "exact_max_elements": 0,
    "nanoplacer_max_gates": 0,
    "inord_evaluations": 3,
    "inord_timeout": 120.0,
    "plo_timeout": 120.0,
    "node_cap": 60,
    "reproducible": True,
}

#: trindade16 has 7 benchmarks x 4 non-exact flows under
#: DETERMINISTIC_PARAMS (ortho_opt, which also emits the plain ortho
#: layout, and npr, for each of the two libraries).
FULL_SUITE_FLOWS = 28

#: Files excluded from fingerprints: scheduler bookkeeping that is
#: *expected* to differ between a resumed and an uninterrupted run.
_FINGERPRINT_IGNORE = {"generation_journal.jsonl", "generation_stats.json"}


DRIVER = r"""
import json, sys, time

args = json.loads(sys.argv[1])

import repro.core.bench as bench
from repro.core.bench import BenchmarkDatabase, GenerationParams
from repro.benchsuite import benchmarks_of, get_benchmark
from repro.scheduler import SchedulerParams

delay = args.get("delay") or 0.0
if delay:
    _orig = bench._execute_flow_task

    def _slow(task):
        time.sleep(delay)
        return _orig(task)

    bench._execute_flow_task = _slow

if args.get("suite"):
    specs = benchmarks_of(args["suite"])
else:
    specs = [get_benchmark(s, n) for s, n in args["benchmarks"]]

params = GenerationParams(**args["params"])
scheduler = SchedulerParams(**args.get("scheduler", {}))
db = BenchmarkDatabase(args["db"])
outcome = db.generate(specs, params=params, scheduler=scheduler)
report = outcome.report
print("RESULT " + json.dumps({
    "summary": report.summary(),
    "executed": report.executed_flows,
    "admitted": report.admitted,
    "no_layout": report.no_layout,
    "resumed": report.resumed,
    "skipped_cached": report.skipped_cached,
    "timeouts": report.timeouts,
    "cancelled": report.cancelled,
    "scheduler": report.scheduler,
}), flush=True)
"""


def spawn_generate(
    db_root: Path,
    *,
    suite: str | None = None,
    benchmarks: tuple[tuple[str, str], ...] = (),
    params: dict | None = None,
    scheduler: dict | None = None,
    delay: float = 0.0,
) -> subprocess.Popen:
    """Launch the generation driver as a killable subprocess."""
    payload = {
        "db": str(db_root),
        "suite": suite,
        "benchmarks": list(benchmarks),
        "params": dict(params or DETERMINISTIC_PARAMS),
        "scheduler": dict(scheduler or {}),
        "delay": delay,
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER, json.dumps(payload)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_generate(proc: subprocess.Popen, timeout: float = 300.0) -> dict:
    """Wait for a driver subprocess and parse its report line."""
    out, err = proc.communicate(timeout=timeout)
    assert proc.returncode == 0, f"driver failed ({proc.returncode}):\n{err}"
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise AssertionError(f"driver produced no RESULT line:\n{out}\n{err}")


def run_generate(db_root: Path, **kwargs) -> dict:
    """Run the driver to completion and return its report dict."""
    return finish_generate(spawn_generate(db_root, **kwargs))


def journal_lines(journal_path: Path) -> int:
    """Committed (newline-terminated) journal lines right now."""
    try:
        raw = journal_path.read_bytes()
    except FileNotFoundError:
        return 0
    return raw.count(b"\n")


def kill_at_journal_lines(
    proc: subprocess.Popen,
    journal_path: Path,
    threshold: int,
    timeout: float = 120.0,
) -> int:
    """SIGKILL ``proc`` once its journal reaches ``threshold`` committed
    lines; returns the number of committed lines after death."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                "driver exited before reaching the kill threshold: "
                f"{journal_lines(journal_path)}/{threshold} lines\n"
                f"{proc.stderr.read() if proc.stderr else ''}"
            )
        if journal_lines(journal_path) >= threshold:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            return journal_lines(journal_path)
        time.sleep(0.002)
    proc.kill()
    proc.wait(timeout=30)
    raise AssertionError(
        f"journal never reached {threshold} lines within {timeout}s "
        f"(got {journal_lines(journal_path)})"
    )


def database_fingerprint(root: Path) -> dict[str, str]:
    """SHA-256 of every durable database file, keyed by relative path.

    Two equal fingerprints mean the index, facet sidecar, pack index,
    pack payload and every loose artifact are byte-identical.
    """
    root = Path(root)
    digests: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = path.name
        if name in _FINGERPRINT_IGNORE or name.endswith(".tmp"):
            continue
        if name.startswith("."):
            continue
        relative = str(path.relative_to(root))
        digests[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def assert_databases_identical(reference: Path, candidate: Path) -> None:
    ref = database_fingerprint(reference)
    got = database_fingerprint(candidate)
    missing = sorted(set(ref) - set(got))
    extra = sorted(set(got) - set(ref))
    assert not missing and not extra, (
        f"file sets differ: missing={missing} extra={extra}"
    )
    differing = sorted(path for path in ref if ref[path] != got[path])
    assert not differing, f"byte-divergent files: {differing}"
