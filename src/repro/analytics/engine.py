"""Database-wide batch analytics: metrics, DRC verdicts, rankings and
re-verification over whole databases.

The pack store's batch slice reads feed
:class:`~repro.analytics.tables.LayoutBatch`, and the kernels of
:mod:`~repro.analytics.kernels` sweep its struct-of-arrays columns.
``tests/analytics`` and the ``analytics_agreement`` fuzz oracle check
every result against the per-artifact object path
(:func:`repro.qa.oracles.per_artifact_analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.selection import AbstractionLevel
from ..networks.simulation import output_signature
from ..networks.verilog import parse_verilog
from .kernels import (
    DEFAULT_MAX_FANOUT,
    DEFAULT_NUM_VECTORS,
    DEFAULT_SEED,
    LayoutAnalysis,
    analyze_batch,
)
from .tables import LayoutBatch

# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def analyze_texts(
    texts,
    max_fanout: int = DEFAULT_MAX_FANOUT,
    with_signatures: bool = False,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    seed: int = DEFAULT_SEED,
) -> list[LayoutAnalysis]:
    """Analyse ``.fgl`` payloads in one columnar batch."""
    return analyze_batch(
        LayoutBatch.from_texts(texts),
        max_fanout=max_fanout,
        with_signatures=with_signatures,
        num_vectors=num_vectors,
        seed=seed,
    )


def gate_level_records(db, selection=None) -> list:
    """The database's gate-level artifacts, optionally filtered."""
    records = db.files() if selection is None else db.query(selection)
    return [
        record
        for record in records
        if record.abstraction_level is AbstractionLevel.GATE_LEVEL
    ]


def sweep_database(db, records=None, with_signatures: bool = False) -> list[tuple]:
    """Analyse (record, analysis) pairs for the database's artifacts,
    pulling all payloads in one coalesced batch read from the pack."""
    if records is None:
        records = gate_level_records(db)
    texts = db.store.read_texts([record.path for record in records])
    analyses = analyze_texts(texts, with_signatures=with_signatures)
    return list(zip(records, analyses))


# ---------------------------------------------------------------------------
# Rankings
# ---------------------------------------------------------------------------


def ranking_key(analysis: LayoutAnalysis, ordinal: int) -> tuple:
    """Deterministic best-layout order: computed area, then wire count,
    then insertion order (``None`` metrics rank last)."""
    metrics = analysis.metrics
    if metrics is None:
        return (1, 0, 0, ordinal)
    return (0, metrics.area, metrics.num_wires, ordinal)


def best_pairs(pairs) -> list[tuple]:
    """Winner (record, analysis) per (suite, function, gate library).

    Unlike ``query(best_only=True)``, which trusts the recorded
    metadata, the ranking here uses metrics *computed from the decoded
    artifacts* — the figure Table I actually tabulates.
    """
    best: dict[tuple, tuple] = {}
    for ordinal, (record, analysis) in enumerate(pairs):
        key = (record.suite, record.name, record.gate_library)
        current = best.get(key)
        if current is None or ranking_key(analysis, ordinal) < ranking_key(
            current[1], current[2]
        ):
            best[key] = (record, analysis, ordinal)
    return [
        (record, analysis)
        for record, analysis, _ in sorted(
            best.values(),
            key=lambda item: (
                item[0].suite,
                item[0].name,
                item[0].gate_library or "",
            ),
        )
    ]


def best_database(db, selection=None) -> list[tuple]:
    """Best (record, analysis) per (suite, function, library)."""
    return best_pairs(sweep_database(db, gate_level_records(db, selection)))


# ---------------------------------------------------------------------------
# Fleet re-verification
# ---------------------------------------------------------------------------

STATUS_OK = "ok"
STATUS_DRC = "drc-failed"
STATUS_INEQUIVALENT = "inequivalent"
STATUS_NO_SPEC = "no-spec"


@dataclass(frozen=True)
class VerificationRecord:
    """Sign-off verdict of one gate-level artifact."""

    path: str
    suite: str
    name: str
    status: str
    violations: int
    warnings: int


@dataclass(frozen=True)
class VerificationSummary:
    """Outcome of a database-wide re-verification job."""

    records: tuple[VerificationRecord, ...]

    def count(self, status: str) -> int:
        return sum(1 for record in self.records if record.status == status)

    @property
    def ok(self) -> bool:
        """No artifact failed DRC or disagrees with its specification
        (missing specifications are reported, not failed)."""
        return all(
            record.status in (STATUS_OK, STATUS_NO_SPEC) for record in self.records
        )

    def summary(self) -> str:
        return (
            f"{len(self.records)} artifact(s): {self.count(STATUS_OK)} ok, "
            f"{self.count(STATUS_DRC)} DRC-failed, "
            f"{self.count(STATUS_INEQUIVALENT)} inequivalent, "
            f"{self.count(STATUS_NO_SPEC)} without specification "
            "[columnar engine]"
        )


def verify_database(
    db,
    selection=None,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    seed: int = DEFAULT_SEED,
) -> VerificationSummary:
    """Re-verify every gate-level artifact against DRC and its spec.

    Specifications are the ``<suite>/<name>.v`` files next to the
    database index (parsed once per function); artifacts without one
    are reported as ``no-spec``.  Mirroring ``verify_layout``, a
    DRC-failed artifact is not simulated.
    """
    records = gate_level_records(db, selection)
    pairs = sweep_database(db, records, with_signatures=True)
    spec_signatures: dict[tuple, tuple | None] = {}
    results = []
    for record, analysis in pairs:
        if not analysis.drc.ok:
            status = STATUS_DRC
        else:
            key = (record.suite, record.name)
            if key not in spec_signatures:
                spec_signatures[key] = _spec_signature(
                    db, record.suite, record.name, num_vectors, seed
                )
            expected = spec_signatures[key]
            if expected is None:
                status = STATUS_NO_SPEC
            elif analysis.signature == expected:
                status = STATUS_OK
            else:
                status = STATUS_INEQUIVALENT
        results.append(
            VerificationRecord(
                path=record.path,
                suite=record.suite,
                name=record.name,
                status=status,
                violations=analysis.drc.violations,
                warnings=analysis.drc.warnings,
            )
        )
    return VerificationSummary(records=tuple(results))


def _spec_signature(db, suite, name, num_vectors, seed) -> tuple | None:
    path = db.root / suite / f"{name}.v"
    if not path.exists():
        return None
    network = parse_verilog(path.read_text(encoding="utf-8"))
    return output_signature(network, num_vectors=num_vectors, seed=seed)


# ---------------------------------------------------------------------------
# Database statistics (mnt-bench info)
# ---------------------------------------------------------------------------


def database_info(db) -> dict:
    """One-shot database statistics for ``mnt-bench info``.

    Record counts per abstraction level, pack size and compression
    ratio, loose vs. packed artifact split, and fleet-wide tile totals
    from one columnar sweep.
    """
    records = db.files()
    levels: dict[str, int] = {}
    for record in records:
        levels[record.abstraction_level.value] = (
            levels.get(record.abstraction_level.value, 0) + 1
        )
    gate_records = gate_level_records(db)
    packed = sum(1 for record in gate_records if db.store.is_packed(record.path))

    texts = db.store.read_texts([record.path for record in gate_records])
    batch = LayoutBatch.from_texts(texts)
    totals = {"gates": 0, "wires": 0, "crossings": 0, "area": 0}
    for analysis in analyze_batch(batch):
        metrics = analysis.metrics
        if metrics is None:
            continue
        totals["gates"] += metrics.num_gates
        totals["wires"] += metrics.num_wires
        totals["crossings"] += metrics.num_crossings
        totals["area"] += metrics.area

    store_stats = db.store.stats()
    pack_bytes = store_stats["pack_bytes"]
    uncompressed = store_stats["uncompressed_bytes"]
    return {
        "root": str(db.root),
        "records": len(records),
        "records_by_level": dict(sorted(levels.items())),
        "gate_level_artifacts": len(gate_records),
        "packed_artifacts": packed,
        "loose_artifacts": len(gate_records) - packed,
        "pack_bytes": pack_bytes,
        "uncompressed_bytes": uncompressed,
        "compression_ratio": (
            round(uncompressed / pack_bytes, 2) if pack_bytes else None
        ),
        "layout_totals": totals,
        "fallback_decodes": batch.fallback_decodes,
        "backend": "numpy",
    }
