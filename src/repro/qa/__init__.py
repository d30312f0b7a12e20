"""Flow fuzzing and differential conformance harness (``repro.qa``).

The standing correctness gate for the physical-design stack: a seeded
fuzz driver samples random logic networks and random flow configurations,
checks a fixed oracle stack on every produced layout (DRC, functional
equivalence, serialisation round-trips, cell-level invariants, and
columnar-vs-per-artifact analytics and HTTP-vs-in-process serving
differential agreement),
shrinks failing cases, and persists them to a replayable crash corpus.

Entry points: ``mnt-bench fuzz`` on the command line, :func:`fuzz` from
code, and the corpus replay tests in ``tests/qa``.
"""

from .config import (
    DIFF_ANALYTICS,
    DIFF_SERVE,
    EXACT_SCHEMES,
    HEXAGONALIZATION,
    INORD,
    PLO,
    WIRE_REDUCTION,
    FlowConfig,
    FlowSkipped,
    sample_flow,
    sample_spec,
)
from .corpus import SCHEMA_VERSION, CrashCase, CrashCorpus, replay_case
from .driver import FuzzParams, FuzzReport, RunRecord, fuzz, fuzz_one, run_seed
from .netjson import network_from_json, network_to_json
from .oracles import (
    ORACLE_NAMES,
    OracleFailure,
    check_analytics_agreement,
    check_serve_agreement,
    run_oracle_stack,
)
from .shrink import ShrinkResult, shrink_network
from .triage import KNOWN_ISSUES, KnownIssue, triage

__all__ = [
    "CrashCase",
    "CrashCorpus",
    "DIFF_ANALYTICS",
    "DIFF_SERVE",
    "EXACT_SCHEMES",
    "FlowConfig",
    "FlowSkipped",
    "FuzzParams",
    "FuzzReport",
    "HEXAGONALIZATION",
    "INORD",
    "KNOWN_ISSUES",
    "KnownIssue",
    "ORACLE_NAMES",
    "OracleFailure",
    "PLO",
    "RunRecord",
    "SCHEMA_VERSION",
    "ShrinkResult",
    "WIRE_REDUCTION",
    "check_analytics_agreement",
    "check_serve_agreement",
    "fuzz",
    "fuzz_one",
    "network_from_json",
    "network_to_json",
    "replay_case",
    "run_oracle_stack",
    "run_seed",
    "sample_flow",
    "sample_spec",
    "shrink_network",
    "triage",
]
