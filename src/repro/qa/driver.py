"""The seeded fuzz driver: sample → flow → oracle stack → shrink → corpus.

One fuzz *run* samples a flow configuration and a matching synthetic
network, executes the complete pipeline, and checks the oracle stack.
Failures are shrunk (greedy gate/fanin removal re-running the oracle)
and persisted to the crash corpus.  Everything is derived from one
master seed — run *i* of ``fuzz(seed=s)`` is bit-reproducible in
isolation, which is what makes corpus entries replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
import random

from ..networks.generators import GeneratorSpec, generate_network
from ..networks.logic_network import LogicNetwork
from .config import (
    DIFF_ANALYTICS,
    DIFF_SERVE,
    FlowConfig,
    FlowSkipped,
    sample_flow,
    sample_spec,
)
from .corpus import CrashCase, CrashCorpus
from .oracles import (
    OracleFailure,
    check_analytics_agreement,
    check_serve_agreement,
    run_oracle_stack,
)
from .shrink import shrink_network
from .triage import KnownIssue, triage


@dataclass
class FuzzParams:
    """Knobs of a fuzz campaign."""

    runs: int = 100
    seed: int = 0
    corpus_dir: str | Path | None = None
    #: Shrink failing networks before persisting them.
    shrink: bool = True
    #: Re-run budget (flow + oracle executions) per shrink.
    shrink_attempts: int = 120
    #: Stimulus vectors per equivalence check.
    num_vectors: int = 64


@dataclass
class RunRecord:
    """Outcome of one fuzz run (kept for reporting, not persisted)."""

    index: int
    flow: FlowConfig
    spec: GeneratorSpec
    status: str  # "ok" | "skipped" | "failed"
    detail: str = ""


@dataclass
class FuzzReport:
    """Aggregated outcome of a fuzz campaign."""

    params: FuzzParams
    records: list[RunRecord] = field(default_factory=list)
    cases: list[CrashCase] = field(default_factory=list)
    triaged: list[tuple[CrashCase, KnownIssue]] = field(default_factory=list)
    case_paths: list[Path] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if r.status != "skipped")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.records if r.status == "skipped")

    @property
    def untriaged(self) -> list[CrashCase]:
        covered = {id(case) for case, _ in self.triaged}
        return [case for case in self.cases if id(case) not in covered]

    @property
    def ok(self) -> bool:
        return not self.untriaged

    def summary(self) -> str:
        lines = [
            f"{len(self.records)} run(s), {self.executed} executed, "
            f"{self.skipped} skipped, {len(self.cases)} failure(s) "
            f"({len(self.triaged)} triaged) in {self.elapsed_seconds:.1f} s"
        ]
        for case in self.cases:
            mark = "known" if any(c is case for c, _ in self.triaged) else "NEW"
            lines.append(
                f"  [{mark}] run {case.run_index}: {case.oracle} — {case.message} "
                f"({case.flow.describe()}, shrunk {case.original_gates}→"
                f"{case.shrunk_gates} gates)"
            )
        return "\n".join(lines)


def run_seed(master_seed: int, run_index: int) -> random.Random:
    """The per-run RNG: independent of all other runs, replayable alone."""
    return random.Random((master_seed * 0x9E3779B1 + run_index) & 0xFFFFFFFF)


def fuzz_one(
    master_seed: int,
    run_index: int,
    num_vectors: int = 64,
) -> tuple[FlowConfig, GeneratorSpec, LogicNetwork, OracleFailure | None, str | None]:
    """Execute fuzz run ``run_index``: returns (flow, spec, network,
    failure, skip_reason)."""
    rng = run_seed(master_seed, run_index)
    flow = sample_flow(rng)
    spec = sample_spec(rng, flow, run_index)
    network = generate_network(spec)

    try:
        if flow.differential == DIFF_ANALYTICS:
            failure = check_analytics_agreement(network, flow)
            if failure is not None:
                return flow, spec, network, failure, None
        if flow.differential == DIFF_SERVE:
            failure = check_serve_agreement(network, flow)
            if failure is not None:
                return flow, spec, network, failure, None

        layout = flow.run(network)
    except FlowSkipped as exc:
        return flow, spec, network, None, str(exc)
    except Exception as exc:  # crash oracle: flows must never raise
        failure = OracleFailure("crash", f"{type(exc).__name__}: {exc}")
        return flow, spec, network, failure, None
    failure = run_oracle_stack(
        network, layout, library=flow.library, num_vectors=num_vectors
    )
    return flow, spec, network, failure, None


def _still_fails(flow: FlowConfig, oracle: str, num_vectors: int):
    """Predicate for the shrinker: does ``oracle`` still fail on ``net``?"""

    def predicate(network: LogicNetwork) -> bool:
        try:
            if oracle == "analytics_agreement":
                return check_analytics_agreement(network, flow) is not None
            if oracle == "serve_agreement":
                return check_serve_agreement(network, flow) is not None
            layout = flow.run(network)
        except FlowSkipped:
            return False
        except Exception:  # still crashing counts as still failing
            return oracle == "crash"
        if oracle == "crash":
            return False
        failure = run_oracle_stack(
            network, layout, library=flow.library, num_vectors=num_vectors
        )
        return failure is not None and failure.oracle == oracle

    return predicate


def fuzz(params: FuzzParams | None = None, progress=None) -> FuzzReport:
    """Run a fuzz campaign; ``progress`` is an optional line callback."""
    params = params or FuzzParams()
    report = FuzzReport(params)
    corpus = CrashCorpus(params.corpus_dir) if params.corpus_dir else None
    started = time.monotonic()

    for run_index in range(params.runs):
        flow, spec, network, failure, skip_reason = fuzz_one(
            params.seed, run_index, params.num_vectors
        )
        if skip_reason is not None:
            report.records.append(
                RunRecord(run_index, flow, spec, "skipped", skip_reason)
            )
            continue
        if failure is None:
            report.records.append(RunRecord(run_index, flow, spec, "ok"))
            continue

        shrunk = network
        original_gates = network.num_gates()
        if params.shrink:
            shrink_result = shrink_network(
                network,
                _still_fails(flow, failure.oracle, params.num_vectors),
                max_attempts=params.shrink_attempts,
            )
            shrunk = shrink_result.network
        case = CrashCase(
            oracle=failure.oracle,
            message=failure.message,
            flow=flow,
            network=shrunk,
            seed=params.seed,
            run_index=run_index,
            spec={
                "name": spec.name,
                "num_pis": spec.num_pis,
                "num_pos": spec.num_pos,
                "num_gates": spec.num_gates,
                "seed": spec.seed,
                "locality": spec.locality,
            },
            original_gates=original_gates,
            shrunk_gates=shrunk.num_gates(),
        )
        report.cases.append(case)
        known = triage(case)
        if known is not None:
            report.triaged.append((case, known))
        if corpus is not None:
            report.case_paths.append(corpus.save(case))
        report.records.append(
            RunRecord(run_index, flow, spec, "failed", str(failure))
        )
        if progress is not None:
            progress(f"run {run_index}: {failure}")

    report.elapsed_seconds = time.monotonic() - started
    return report
