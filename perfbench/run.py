"""End-to-end benchmark of the MNT Bench reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload exact_portfolio --seed 1 --seconds 10 --trace 0

One pass of a workload (see :mod:`workloads`) goes through the public
API the ``mnt-bench`` CLI calls: ``generate`` on a fresh database, then
one or more rounds of ``optimize``, ``verify`` and ``report`` on a fresh
copy of it, each followed by ``make_server`` in a child process and an
HTTP client exporting and browsing that copy (:mod:`serving`).

``--trace 0`` reports the end-to-end metrics, medians over every sample
of the run's untraced passes and rounds; timings are CPU seconds
calibrated to a reference CPU speed (:mod:`speed`).  ``--trace 1`` makes one
untraced and one traced pass of one round and reports the per-layer
metrics (:mod:`metrics`), the share of the timed phases the layer spans
explain, and the tracing overhead.

Correctness checks run after the timed phases: every database
re-verifies with 0 DRC-failed and 0 inequivalent artifacts, every
exported cell-level payload equals the in-process gate library plus
writer on the same stored artifact, and every browse payload equals the
in-process query/best/report/artifact payload.  The last stdout line is
one JSON object; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: Where a traced run leaves its spans (both processes) for inspection.
TRACES = WORK / "traces"

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Round:
    """The later phases of one pass on one copy of its database."""

    db: object
    serve: object


@dataclass
class Pass:
    pipeline: object
    rounds: list
    trace: dict | None = None
    server_trace: dict | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(names) -> float:
    """Calibrated CPU seconds a fresh interpreter takes to import the
    CLI's package and build the workload's input networks (see
    ``workloads._timed`` for why CPU time)."""
    code = (
        "import sys; sys.path.insert(0, 'src'); import repro.cli; "
        "from repro.benchsuite import get_benchmark; "
        "[get_benchmark(*n.split('/', 1)).build(None) for n in sys.argv[1:]]"
    )
    started = speed.read(children_cpu())
    subprocess.run([sys.executable, "-c", code, *names], cwd=ROOT, check=True,
                   timeout=120)
    return speed.calibrated(started, speed.read(children_cpu()))


def pin_cpu() -> int:
    """Run this process and every child it starts on one CPU.

    The pipeline and the server each use one CPU at a time.  Left to the
    scheduler, client and server sit on one CPU in some runs and on two
    in others, and a request that must wake the other CPU costs several
    times more on a busy shared host: the browse throughput halved or
    doubled between runs.  Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_pass(workload, seed: int, directory: Path, tracer, trace: bool,
             rounds: int, share: float, etags: tuple[dict, dict]) -> Pass:
    """One ``generate``, then ``rounds`` rounds of the later phases;
    ``share`` is each round's part of the run's browse requests, and
    ``etags`` the browsing clients' ETags, kept across a run's passes."""
    from repro.core import BenchmarkDatabase
    from serving import ServeResult, ServerProcess, browse, export
    from workloads import (MAX_EXPORTS, REPEAT_SECONDS, fresh_copies, generate,
                           later_phases)

    generated = BenchmarkDatabase(directory / "db")
    done = Pass(generate(generated, workload, seed, tracer), [])
    copies = fresh_copies(generated, directory)
    rng = random.Random(seed)
    spans = directory / "server_spans.json"
    for _ in range(rounds):
        db = later_phases(copies, workload, tracer, done.pipeline)
        serve = ServeResult()
        with ServerProcess(db.root, trace, spans) as server:
            export(db, server, tracer, serve)
            browse(db, server, rng, tracer, serve, share, etags)
            done.server_trace = server.stop()
        serve.server_rss_mb.append(server.peak_rss_mb)
        # A short export repeats on fresh servers, since only a cold one
        # compiles every artifact.
        while (not trace and sum(serve.export_times) < REPEAT_SECONDS
               and len(serve.export_times) < MAX_EXPORTS):
            with ServerProcess(db.root, False, spans) as server:
                export(db, server, tracer, serve)
            serve.server_rss_mb.append(server.peak_rss_mb)
        done.rounds.append(Round(db, serve))
    return done


def check_pass(run_pass_: Pass, expected_cells: dict) -> list[str]:
    from serving import check_serving

    problems = []
    for round_ in run_pass_.rounds:
        summary = round_.db.verify_all()
        if not summary.ok:
            problems.append(f"re-verification: {summary.summary()}")
        problems += check_serving(round_.db, round_.serve, expected_cells)
    return problems


def artifact_digest(root: Path) -> str:
    """SHA-256 over the database's artifacts (path + bytes).

    Index, journal and stats files carry wall times, so they are left
    out; under pinned effort the artifacts themselves are deterministic."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.suffix in (".v", ".fgl")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb(passes) -> tuple[float, float]:
    """Peak RSS of this process, which runs the pipeline, and of the
    run's server children.  One server in about fifteen
    peaks some 20 MB (15 %) higher than the others on the same requests,
    depending on timing, and a run has as few as two servers, so the
    smallest of their peaks is taken."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own, min(mb for p in passes for r in p.rounds for mb in r.serve.server_rss_mb)


def run(args, work: Path) -> dict:
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
    from repro.analytics.backend import resolve_backend
    from serving import OPEN_LOOP_RATE, percentile
    from tracing import Tracer, instrument
    from workloads import WORKLOADS, best_area_sum, warm_up

    workload = WORKLOADS[args.workload]
    cpu = pin_cpu()
    started = speed.read()
    if args.trace:
        warm_up(work / "warm-up")
        untraced = run_pass(workload, args.seed, work / "untraced",
                            Tracer(enabled=False), False, 1, 1.0, ({}, {}))
        tracer = instrument(Tracer())
        try:
            traced = run_pass(workload, args.seed, work / "traced", tracer, True, 1,
                              1.0, ({}, {}))
        finally:
            tracer.restore()
        traced.trace = tracer.to_json()
        TRACES.mkdir(parents=True, exist_ok=True)
        (TRACES / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"client": traced.trace, "server": traced.server_trace}),
            encoding="utf-8",
        )
        passes = [untraced, traced]
        values = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setup = [cold_start(workload.specs) for _ in range(SETUP_REPEATS)]
        count = max(1, round(args.seconds / workload.pass_seconds))
        etags = ({}, {})
        passes = [
            run_pass(workload, args.seed, work / f"pass{i}", Tracer(enabled=False),
                     False, workload.rounds, 1.0 / (count * workload.rounds), etags)
            for i in range(count)
        ]
        # Before the checks, which load every artifact in this process.
        rss = peak_rss_mb(passes)
        print(f"peak RSS: benchmark process {rss[0]:.1f} MB, server child "
              f"{rss[1]:.1f} MB (smallest)")
        values = end_to_end(passes, setup, max(rss),
                            best_area_sum(passes[-1].rounds[0].db))
        units = {name: unit for name, unit, _, _ in END_TO_END}

    expected_cells: dict = {}
    problems = [problem for p in passes for problem in check_pass(p, expected_cells)]
    serves = [r.serve for p in passes for r in p.rounds]
    attempted = (sum(p.pipeline.attempted for p in passes)
                 + sum(s.attempted for s in serves))
    failed = sum(p.pipeline.failed for p in passes) + sum(s.failed for s in serves)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(passes[0].rounds)} round(s), "
          f"{os.cpu_count()} CPU(s) (all processes pinned to CPU {cpu}), "
          f"Python {platform.python_version()}, "
          f"analytics backend {resolve_backend()}, "
          f"CPU speed {speed.speed(started, speed.read()):.3f} of the reference")
    print(f"artifact digest {artifact_digest(passes[-1].rounds[0].db.root)}")
    latencies = [ms for s in serves for ms in s.latencies_ms]
    print(f"browse: {len(latencies)} open-loop samples at {OPEN_LOOP_RATE:g}/s "
          f"(median {percentile(latencies, 50):.4f} ms), "
          f"{sum(s.closed_requests for s in serves)} closed-loop requests")
    for name, value in values.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    for p in passes:
        for failure in p.pipeline.failures:
            print(f"failed: {failure}")
    print(f"attempted {attempted} failed {failed}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    speed.start()
    try:
        result = run(args, work)
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
