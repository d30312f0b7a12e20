"""Columnar batch analytics over the packed benchmark database.

The package decodes ``artifacts.pack`` slices directly into contiguous
struct-of-arrays tables (:mod:`~repro.analytics.tables`), runs metrics,
DRC and output-signature kernels over whole databases per call
(:mod:`~repro.analytics.kernels`), and feeds the fleet consumers —
rankings, Table I, re-verification, ``mnt-bench report``/``info``
(:mod:`~repro.analytics.engine`, :mod:`~repro.analytics.report`).  The
tests and the ``analytics_agreement`` fuzz oracle check every result
against the per-artifact object path
(:func:`repro.qa.oracles.per_artifact_analysis`).
"""

from .engine import (
    VerificationRecord,
    VerificationSummary,
    analyze_texts,
    best_database,
    best_pairs,
    database_info,
    gate_level_records,
    sweep_database,
    verify_database,
)
from .kernels import (
    DrcCounts,
    LayoutAnalysis,
    analyze_batch,
    analyze_layout,
    layout_drc,
    layout_metrics,
    layout_signature,
)
from .report import AggregateRow, AnalyticsReport, ReportRow, build_report
from .tables import LayoutBatch

__all__ = [
    "AggregateRow",
    "AnalyticsReport",
    "DrcCounts",
    "LayoutAnalysis",
    "LayoutBatch",
    "ReportRow",
    "VerificationRecord",
    "VerificationSummary",
    "analyze_batch",
    "analyze_layout",
    "analyze_texts",
    "best_database",
    "best_pairs",
    "build_report",
    "database_info",
    "gate_level_records",
    "layout_drc",
    "layout_metrics",
    "layout_signature",
    "sweep_database",
    "verify_database",
]
