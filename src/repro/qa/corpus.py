"""Replayable crash corpus: persisted, shrunk oracle failures.

Every failure the fuzz driver finds is written to a corpus directory as
one self-contained JSON file carrying everything needed to reproduce it
deterministically: the master seed and run index it came from, the
generator spec of the original network, the sampled flow configuration,
the failing oracle with its message, and the *shrunk* network in the
portable node-list format of :mod:`repro.qa.netjson`.

The corpus doubles as a regression suite: ``mnt-bench fuzz --replay``
and the pytest entry point in ``tests/qa`` re-run every stored case
against the current code and report which still fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..networks.logic_network import LogicNetwork
from .config import FlowConfig, FlowSkipped
from .netjson import network_from_json, network_to_json
from .oracles import (
    OracleFailure,
    check_analytics_agreement,
    check_serve_agreement,
    run_oracle_stack,
)

#: Bumped when the on-disk format changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class CrashCase:
    """One persisted oracle failure."""

    oracle: str
    message: str
    flow: FlowConfig
    network: LogicNetwork
    seed: int = 0
    run_index: int = 0
    spec: dict | None = None
    original_gates: int = 0
    shrunk_gates: int = 0
    schema_version: int = SCHEMA_VERSION

    @property
    def case_id(self) -> str:
        return f"s{self.seed}_r{self.run_index}_{self.oracle}"

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "oracle": self.oracle,
            "message": self.message,
            "seed": self.seed,
            "run_index": self.run_index,
            "spec": self.spec,
            "flow": self.flow.to_json(),
            "network": network_to_json(self.network),
            "original_gates": self.original_gates,
            "shrunk_gates": self.shrunk_gates,
        }

    @staticmethod
    def from_json(record: dict) -> "CrashCase":
        version = record.get("schema_version", 0)
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"crash case schema {version} is newer than supported "
                f"({SCHEMA_VERSION}); upgrade the qa package"
            )
        return CrashCase(
            oracle=record["oracle"],
            message=record.get("message", ""),
            flow=FlowConfig.from_json(record["flow"]),
            network=network_from_json(record["network"]),
            seed=record.get("seed", 0),
            run_index=record.get("run_index", 0),
            spec=record.get("spec"),
            original_gates=record.get("original_gates", 0),
            shrunk_gates=record.get("shrunk_gates", 0),
            schema_version=version,
        )


def replay_case(case: CrashCase) -> OracleFailure | None:
    """Re-run a crash case against the current code.

    Returns the (first) oracle failure when the case still reproduces,
    ``None`` when the underlying bug is fixed.  A flow that can no
    longer produce a layout counts as reproduction only when the failing
    oracle was a flow-level one.  Cases of retired differential oracles
    (``engine_agreement``, ``exact_area``, ``plo_agreement``,
    ``sparse_agreement``) replay the per-layout oracle stack.
    """
    network = case.network
    flow = case.flow
    try:
        if case.oracle == "analytics_agreement":
            return check_analytics_agreement(network, flow)
        if case.oracle == "serve_agreement":
            return check_serve_agreement(network, flow)
        layout = flow.run(network)
    except FlowSkipped as exc:
        return OracleFailure(case.oracle, f"flow no longer yields a layout: {exc}")
    except Exception as exc:
        return OracleFailure("crash", f"{type(exc).__name__}: {exc}")
    return run_oracle_stack(network, layout, library=flow.library)


class CrashCorpus:
    """A directory of :class:`CrashCase` JSON files."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def save(self, case: CrashCase) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{case.case_id}.json"
        path.write_text(
            json.dumps(case.to_json(), indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        return path

    def paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("*.json"))

    def load(self, path) -> CrashCase:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        return CrashCase.from_json(record)

    def cases(self) -> list[tuple[Path, CrashCase]]:
        return [(path, self.load(path)) for path in self.paths()]

    def __len__(self) -> int:
        return len(self.paths())
