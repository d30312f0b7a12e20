"""Scheduler benchmark: checkpoint/resume under SIGKILL, and scaling.

Three sections, written to ``BENCH_scheduler.json``:

* **kill_resume** — the acceptance scenario run as a benchmark: a sweep
  is launched in a subprocess, SIGKILLed once its generation journal
  reaches ~50 % of the task count, then relaunched with ``resume=True``.
  The embedded oracle checks that (a) not a single journaled flow was
  re-executed (``redone_flows == 0``) and (b) the recovered database is
  byte-identical — index, facet sidecar, pack index, pack payload and
  every loose artifact — to a reference sweep that was never killed.
* **scaling** — wall time of the same sweep at jobs ∈ {1, 2, 4}, plus
  the scheduler's bookkeeping overhead relative to the flows' own wall
  time (merge, journal fsyncs, index flushes).
* **journal** — fsync'd append throughput of the journal itself.

Runnable standalone (``python benchmarks/bench_scheduler.py``,
``--quick`` for a seconds-scale smoke) or under
``pytest benchmarks/bench_scheduler.py -m slow``.
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
from tempfile import TemporaryDirectory

sys.path.insert(0, str(Path(__file__).parent))

import pytest

REPO_ROOT = Path(__file__).parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_scheduler.json"

#: Sidecar files that legitimately differ between a resumed run and an
#: uninterrupted one.
FINGERPRINT_IGNORE = {"generation_journal.jsonl", "generation_stats.json"}

QUICK_BENCHMARKS = [["trindade16", "mux21"], ["trindade16", "xor2"]]

DETERMINISTIC_PARAMS = {
    "exact_max_elements": 0,
    "nanoplacer_max_gates": 0,
    "inord_evaluations": 3,
    "inord_timeout": 120.0,
    "plo_timeout": 120.0,
    "node_cap": 60,
    "reproducible": True,
}

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
started = time.perf_counter()
outcome = db.generate(specs, params=params, scheduler=scheduler)
wall = time.perf_counter() - started
report = outcome.report
print("RESULT " + json.dumps({
    "wall_seconds": wall,
    "executed": report.executed_flows,
    "admitted": report.admitted,
    "resumed": report.resumed,
    "skipped_cached": report.skipped_cached,
    "scheduler": report.scheduler,
}), flush=True)
"""


def _spawn(db_root: Path, *, suite=None, benchmarks=None, params=None,
           scheduler=None, delay=0.0) -> subprocess.Popen:
    payload = {
        "db": str(db_root),
        "suite": suite,
        "benchmarks": benchmarks or [],
        "params": params or DETERMINISTIC_PARAMS,
        "scheduler": scheduler or {},
        "delay": delay,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", DRIVER, json.dumps(payload)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"driver failed ({proc.returncode}):\n{err}")
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise RuntimeError(f"no RESULT line in driver output:\n{out}")


def _journal_lines(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def _fingerprint(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name in FINGERPRINT_IGNORE:
            continue
        if path.name.startswith(".") or path.name.endswith(".tmp"):
            continue
        digests[str(path.relative_to(root))] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    return digests


def bench_kill_resume(quick: bool) -> dict:
    """SIGKILL a sweep at ~50 % journal commits, resume, verify."""
    suite = None if quick else "trindade16"
    benchmarks = QUICK_BENCHMARKS if quick else None
    delay = 0.05

    with TemporaryDirectory(prefix="bench_scheduler_") as tmp:
        root = Path(tmp)
        reference, victim = root / "reference", root / "victim"

        started = time.perf_counter()
        total = _finish(_spawn(reference, suite=suite,
                               benchmarks=benchmarks))["executed"]
        reference_wall = time.perf_counter() - started
        threshold = total // 2

        proc = _spawn(victim, suite=suite, benchmarks=benchmarks,
                      delay=delay, scheduler={"flush_every": 3})
        journal = victim / "generation_journal.jsonl"
        deadline = time.monotonic() + 300
        while _journal_lines(journal) < threshold:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("sweep finished before the kill landed")
            time.sleep(0.002)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        committed = _journal_lines(journal)

        started = time.perf_counter()
        resumed = _finish(_spawn(victim, suite=suite, benchmarks=benchmarks,
                                 scheduler={"resume": True, "flush_every": 3}))
        resume_wall = time.perf_counter() - started

        redone = resumed["executed"] - (total - committed)
        identical = _fingerprint(reference) == _fingerprint(victim)

    return {
        "total_flows": total,
        "committed_at_kill": committed,
        "resume_executed_flows": resumed["executed"],
        "resume_reused_flows": resumed["resumed"] + resumed["skipped_cached"],
        "redone_flows": redone,
        "database_byte_identical": identical,
        "reference_wall_seconds": reference_wall,
        "resume_wall_seconds": resume_wall,
    }


def bench_scaling(quick: bool) -> dict:
    """The same sweep at several worker counts, fresh database each."""
    suite = None if quick else "trindade16"
    benchmarks = QUICK_BENCHMARKS if quick else None
    sweep = (1, 2) if quick else (1, 2, 4)
    levels = []
    for jobs in sweep:
        params = dict(DETERMINISTIC_PARAMS, jobs=jobs)
        with TemporaryDirectory(prefix="bench_scheduler_") as tmp:
            result = _finish(_spawn(Path(tmp) / "db", suite=suite,
                                    benchmarks=benchmarks, params=params))
        stats = result["scheduler"]
        flow_wall = sum(stats["flow_seconds"].values())
        levels.append({
            "jobs": jobs,
            "mode": stats["mode"],
            "wall_seconds": result["wall_seconds"],
            "executed_flows": result["executed"],
            "flows_per_second": (
                result["executed"] / result["wall_seconds"]
                if result["wall_seconds"] else None
            ),
            # reproducible=True zeroes recorded flow times, so overhead
            # is simply everything that is not a flow.
            "scheduler_overhead_seconds": result["wall_seconds"] - flow_wall,
        })
    return {"levels": levels}


def bench_journal(quick: bool) -> dict:
    """Fsync'd journal append throughput (the per-task commit cost)."""
    from repro.scheduler import GenerationJournal

    appends = 200 if quick else 1000
    entry = {"records": [], "rejections": [{"status": "timeout", "reason": "x"}]}
    with TemporaryDirectory(prefix="bench_scheduler_") as tmp:
        journal = GenerationJournal.fresh(Path(tmp) / "journal.jsonl")
        started = time.perf_counter()
        for i in range(appends):
            journal.append(key=f"k{i}", suite="s", name="n", flow="ortho",
                           status="done", entry=entry, seconds=0.01,
                           node="bench")
        wall = time.perf_counter() - started
        reloaded = len(GenerationJournal.load(journal.path))
    return {
        "appends": appends,
        "wall_seconds": wall,
        "appends_per_second": appends / wall if wall else None,
        "reloaded": reloaded,
    }


def run_all(quick: bool = False, write: bool = True,
            output: Path | None = None) -> dict:
    results = {
        "quick": quick,
        "kill_resume": bench_kill_resume(quick),
        "scaling": bench_scaling(quick),
        "journal": bench_journal(quick),
    }
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _check(results: dict) -> None:
    kill_resume = results["kill_resume"]
    assert kill_resume["database_byte_identical"], kill_resume
    assert kill_resume["redone_flows"] == 0, kill_resume
    assert kill_resume["committed_at_kill"] > 0, kill_resume
    journal = results["journal"]
    assert journal["reloaded"] == journal["appends"], journal


@pytest.mark.slow
@pytest.mark.benchmark(group="scheduler")
def test_scheduler_benchmark(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    _check(results)


def _print_results(results: dict) -> None:
    kill_resume = results["kill_resume"]
    print(
        f"kill/resume: killed at {kill_resume['committed_at_kill']}/"
        f"{kill_resume['total_flows']} journal commits, resume executed "
        f"{kill_resume['resume_executed_flows']} flows "
        f"({kill_resume['redone_flows']} redone), byte-identical: "
        f"{kill_resume['database_byte_identical']}"
    )
    for level in results["scaling"]["levels"]:
        print(
            f"jobs={level['jobs']} ({level['mode']:>6s}): "
            f"{level['wall_seconds']:6.2f} s wall, "
            f"{level['flows_per_second']:6.1f} flows/s, "
            f"overhead {level['scheduler_overhead_seconds']:.2f} s"
        )
    journal = results["journal"]
    print(
        f"journal: {journal['appends_per_second']:,.0f} fsync'd appends/s "
        f"(n={journal['appends']})"
    )


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_results(results)
    _check(results)
    print(f"written to {output or RESULT_PATH}")
