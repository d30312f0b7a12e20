"""Gate-level layout substrate: grids, clocking, metrics, verification.

The names below resolve on first use (see :mod:`repro._lazy`), so a
layout is built, checked and stored without importing the SVG writer.
"""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".coordinates": (
        "Tile",
        "Topology",
        "adjacent",
        "cartesian_neighbors",
        "grid_distance",
        "hex_distance",
        "hex_neighbors",
        "manhattan",
        "neighbors",
    ),
    ".clocking": (
        "CARTESIAN_SCHEMES",
        "CFE",
        "ESR",
        "HEXAGONAL_SCHEMES",
        "OPEN",
        "RES",
        "ROW",
        "SCHEMES",
        "TWODDWAVE",
        "USE",
        "ClockingScheme",
        "get_scheme",
    ),
    ".gate_layout": ("GateLayout", "LayoutGate"),
    ".metrics": ("LayoutMetrics", "compute_metrics", "critical_path_length", "throughput"),
    ".verification": ("DrcReport", "check_layout"),
    ".equivalence": ("layout_equivalent", "verify_layout"),
    ".svg": ("layout_to_svg", "write_svg"),
})
