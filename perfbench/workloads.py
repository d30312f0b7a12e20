"""Workload definitions and the timed database pipeline.

Every workload is one user journey through the public API the
``mnt-bench`` CLI calls — ``generate``, ``optimize``, ``verify``,
``report`` on a fresh database, then serving it (see
:mod:`serving`).  Workloads differ in their inputs and pinned effort,
which decides the layers that do the work.

Effort is pinned so every flow finishes by search, not by its clock:
a flow that stops on a wall-clock budget measures the budget, and its
output depends on machine speed.  The budget guard
(:func:`clock_bound_flows`) counts any flow whose wall time reaches half
its budget as failed, so a later change cannot pass by quietly ending on
a clock.
"""

from __future__ import annotations

import itertools
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase, GenerationParams
from repro.networks.transforms import decompose_to_aoig, prepare_for_layout

import speed

#: Budgets no flow of these workloads comes near: every flow ends by
#: search.  ``exact_ratio_timeout=None`` drops the per-aspect-ratio
#: slices, which are clocks too.
PINNED = dict(
    exact_ratio_timeout=None,
    nanoplacer_timeout=600.0,
    inord_evaluations=3,
    inord_timeout=600.0,
    plo_passes=8,
    plo_timeout=600.0,
    node_cap=None,
    jobs=1,
    exact_jobs=1,
)


@dataclass(frozen=True)
class Batch:
    """One ``generate`` call: benchmark functions × gate libraries."""

    specs: tuple[str, ...]
    libraries: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """``generate`` inputs, with effort on top of :data:`PINNED`.

    A run makes ``max(1, round(seconds / pass_seconds))`` passes, each a
    fresh ``generate`` followed by ``rounds`` rounds of the later phases
    (optimize, verify, report, serve) on fresh copies of the generated
    database; the pass count depends only on ``--seconds``."""

    name: str
    batches: tuple[Batch, ...]
    params: dict = field(default_factory=dict)
    #: Rough seconds of one pass on a 2-CPU x86 box.
    pass_seconds: float = 13.0
    rounds: int = 1

    def generation_params(self) -> GenerationParams:
        return GenerationParams(**{**PINNED, **self.params})

    @property
    def specs(self) -> list[str]:
        return [name for batch in self.batches for name in batch.specs]


#: One full-size ISCAS85 circuit: its large layouts make InOrd, PLO,
#: DRC/equivalence, serialization, the pack and cell-level export
#: dominate.  It is too large for exact (not scheduled) and for
#: NanoPlaceR (refused by size, which is deterministic).
C432 = Batch(("iscas85/c432",), ("QCA ONE",))

WORKLOADS = {
    # Exact search and its router do nearly all the work.  At the CLI's
    # 6 s exact budget 17 of Trindade16's exact flows end on the clock,
    # so exact gets 120 s (the slowest flow here, xor2/USE, needs about
    # 11 s).  The Bestagon flows put the hexagonal mapping and the SiDB
    # writer on the path.  c432 rides along because the exact artifacts
    # alone leave the later phases a few milliseconds each, which on a
    # shared host measures the host rather than the code.  One generate
    # fills most of a run, so the later phases take their samples from
    # two rounds after it: measured once in wall time, their quartile
    # spread over ten runs was 0.35-0.5.
    "exact_portfolio": Workload(
        "exact_portfolio",
        (Batch(("trindade16/mux21", "trindade16/xor2"), ("QCA ONE", "Bestagon")), C432),
        dict(exact_timeout=120.0),
        pass_seconds=40.0,
        rounds=2,
    ),
    "ortho_iscas": Workload("ortho_iscas", (C432,)),
}


def ordered_specs(batch: Batch, seed: int) -> list[str]:
    """A batch's functions in a seeded order: the order of flow tasks
    changes with the seed, the work does not."""
    specs = list(batch.specs)
    random.Random(seed).shuffle(specs)
    return specs


def build_specs(names) -> list:
    return [get_benchmark(*name.split("/", 1)) for name in names]


# -- the budget guard ----------------------------------------------------------


def flow_budget(flow: str, params: GenerationParams) -> float | None:
    """The wall-clock budget that bounds one flow task, if any."""
    if flow.startswith("optimize:"):
        return params.plo_timeout
    base = flow.split(":", 1)[1] if flow.startswith("hex:") else flow
    if base.startswith("exact"):
        return params.exact_timeout
    if base == "npr":
        return params.nanoplacer_timeout
    if base == "ortho_opt":
        return min(params.inord_timeout, params.plo_timeout)
    return None  # ortho has no clock


def clock_bound_flows(report, params: GenerationParams) -> list[str]:
    """Flows of a generate/optimize report whose wall time reached half
    their budget."""
    flagged = []
    for key, seconds in sorted(report.flow_seconds.items()):
        budget = flow_budget(key.split(":", 1)[1], params)
        if budget is not None and seconds >= 0.5 * budget:
            flagged.append(key)
    return flagged


def nanoplacer_refusals(specs, libraries, params: GenerationParams) -> int:
    """NanoPlaceR flows that refuse their network by size — the one kind
    of flow without a layout that is not a failure.  Each library runs
    one NanoPlaceR flow per function (``npr``, ``hex:npr``)."""
    refused = 0
    for spec in specs:
        network = prepare_for_layout(decompose_to_aoig(spec.build(params.node_cap)))
        if network.num_gates() > params.nanoplacer_max_gates:
            refused += len(libraries)
    return refused


# -- the pipeline ----------------------------------------------------------------


@dataclass
class PipelineResult:
    """Timings and accounting of one pass through the pipeline."""

    #: Phase → every timed sample (calibrated CPU seconds) of it.
    seconds: dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    exact_search: dict = field(default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{count} {what}")

    def median(self, phase: str) -> float:
        return statistics.median(self.seconds[phase])


#: Short phases (``optimize``, ``verify``, ``report``, ``export``)
#: repeat in an untraced round until they have run this long: a few
#: milliseconds measured once mostly measure the host's noise.  The
#: traced pass runs each once so its per-layer totals describe one
#: pipeline.
REPEAT_SECONDS = 0.5
MAX_REPEATS = 200
#: An export repeat needs a fresh server (about 0.6 s to start).
MAX_EXPORTS = 5


def _timed(tracer, phase: str, fn):
    """``fn()`` and the calibrated CPU seconds it took (:mod:`speed`).

    Every phase runs in this process (``jobs=1``, ``exact_jobs=1``), so
    its CPU time is all of its work.  Wall time is not used: on a shared
    host the hypervisor also takes the virtual CPU away for minutes at a
    time, and wall times of the same code then swing by 1.4-4x, while
    the kernel's per-process CPU clock leaves that stolen time out.  The
    span, which the trace coverage compares with layer spans, keeps wall
    time."""
    with tracer.span(f"phase.{phase}"):
        started = speed.read()
        result = fn()
        elapsed = speed.calibrated(started, speed.read())
    return result, elapsed


def _repeated(tracer, out: PipelineResult, phase: str, run):
    """``run()`` timed, repeated per :data:`REPEAT_SECONDS`; each time
    goes to ``out.seconds[phase]``.  Returns the first result."""
    result, elapsed = _timed(tracer, phase, run)
    times = [elapsed]
    while (not tracer.enabled and sum(times) < REPEAT_SECONDS
           and len(times) < MAX_REPEATS):
        times.append(_timed(tracer, phase, run)[1])
    out.seconds.setdefault(phase, []).extend(times)
    return result


def generate(db: BenchmarkDatabase, workload: Workload, seed: int,
             tracer) -> PipelineResult:
    """``generate`` on the empty ``db``, with failure accounting."""
    params = workload.generation_params()
    out = PipelineResult()

    def run():
        return [
            db.generate(build_specs(ordered_specs(batch, seed)),
                        libraries=batch.libraries, params=params).report
            for batch in workload.batches
        ]

    reports, elapsed = _timed(tracer, "generate", run)
    out.seconds["generate"] = [elapsed]
    for batch, report in zip(workload.batches, reports):
        with tracer.paused():
            refusals = nanoplacer_refusals(build_specs(batch.specs), batch.libraries,
                                           params)
        _account(out, report, params, "flow", refusals)
        for key, value in (report.exact_search or {}).items():
            if key in ("dimensions_explored", "incumbent_updates"):
                out.exact_search[key] = out.exact_search.get(key, 0) + value
    return out


def fresh_copies(db: BenchmarkDatabase, directory: Path):
    """Endless fresh copies of ``db`` under ``directory``."""
    for index in itertools.count():
        copy = directory / f"copy{index}"
        shutil.copytree(db.root, copy)
        yield BenchmarkDatabase(copy)


def later_phases(copies, workload: Workload, tracer,
                 out: PipelineResult) -> BenchmarkDatabase:
    """``optimize`` → ``verify`` → ``report`` on a fresh copy of the
    generated database, taken from ``copies`` outside the timing.
    ``optimize`` is cached once it has run, so each of its repeats gets
    a copy of its own.  Returns the optimized database."""
    params = workload.generation_params()
    db = next(copies)
    optimized, elapsed = _timed(tracer, "optimize", lambda: db.optimize(params=params))
    times = [elapsed]
    while (not tracer.enabled and sum(times) < REPEAT_SECONDS
           and len(times) < MAX_REPEATS):
        copy = next(copies)
        times.append(_timed(tracer, "optimize", lambda: copy.optimize(params=params))[1])
    out.seconds.setdefault("optimize", []).extend(times)
    _account(out, optimized.report, params, "optimize task", 0)

    summary = _repeated(tracer, out, "verify", db.verify_all)
    out.attempted += len(summary.records)
    bad = [r for r in summary.records if r.status != "ok"]
    out.fail(len(bad), "artifacts failing re-verification")
    _repeated(tracer, out, "report", db.report)
    return db


def _account(out: PipelineResult, report, params, what: str, refusals: int) -> None:
    out.attempted += report.executed_flows
    out.fail(report.drc_failed, f"DRC-failed {what}s")
    out.fail(report.inequivalent, f"inequivalent {what}s")
    out.fail(report.timeouts + report.memory_exceeded, f"budget-killed {what}s")
    out.fail(report.worker_errors, f"{what}s with worker errors")
    out.fail(report.cancelled, f"cancelled {what}s")
    out.fail(report.no_layout - refusals, f"{what}s without a layout")
    out.fail(len(clock_bound_flows(report, params)), f"clock-bound {what}s")


def warm_up(directory) -> None:
    """Run lazily imported code paths and one-time tables once, so the
    untraced and traced passes of a trace run start equally warm."""
    db = BenchmarkDatabase(directory)
    params = GenerationParams(**{**PINNED, "exact_max_elements": 0})
    db.generate(build_specs(["trindade16/mux21"]), libraries=("QCA ONE", "Bestagon"),
                params=params)
    db.optimize(params=params)
    db.verify_all()
    db.report()


def best_area_sum(db: BenchmarkDatabase) -> int:
    """Σ over (function, gate library) of the area-best admitted layout's
    area — the paper's Table I quantity."""
    best: dict[tuple, int] = {}
    for record in db.files():
        if record.area is None:
            continue
        key = (record.suite, record.name, record.gate_library)
        best[key] = min(best.get(key, record.area), record.area)
    return sum(best.values())
