"""MNT Bench core: benchmark database, selection, best-layout portfolio.

The names below resolve on first use (see :mod:`repro._lazy`): the
database and its query path do not import the best-layout portfolio,
the paper tables or the snapshot layer until something reads them.
"""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".bench": (
        "BenchmarkDatabase",
        "BenchmarkFile",
        "FlowTask",
        "GenerationOutcome",
        "GenerationParams",
        "GenerationReport",
    ),
    ".best": (
        "BESTAGON",
        "QCA_ONE",
        "BestParams",
        "BestResult",
        "FlowCandidate",
        "best_layout",
    ),
    ".facet_index": ("FacetIndex", "records_digest"),
    ".snapshot": ("DatabaseSnapshot", "SnapshotManager", "StoreView"),
    ".store": ("DEFAULT_LAYOUT_CACHE_SIZE", "ArtifactNotFoundError", "ArtifactStore"),
    ".paper_data": ("BESTAGON_TABLE", "QCA_ONE_TABLE", "PaperEntry", "paper_entry"),
    ".selection": (
        "ALGORITHMS",
        "CLOCKING_SCHEMES",
        "GATE_LIBRARIES",
        "OPTIMIZATIONS",
        "AbstractionLevel",
        "Selection",
        "facet_counts",
    ),
    ".table": (
        "TableRow",
        "baseline_area",
        "database_table_rows",
        "format_table",
        "table_row",
    ),
    ".contribute": ("SubmissionResult", "submit_fgl_file", "submit_layout"),
})
