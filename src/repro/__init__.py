"""MNT Bench reproduction — benchmarking software and layout libraries
for Field-coupled Nanocomputing.

This package reimplements, in pure Python, the complete system behind
*MNT Bench* (Hofmann, Walter, Wille — DATE 2024): logic networks with
Verilog I/O, clocked gate-level layouts on Cartesian and hexagonal
grids, the physical design algorithms (exact, ortho, NanoPlaceR), the
optimisations (post-layout optimisation, input ordering, 45°
hexagonalization), the QCA ONE and Bestagon gate libraries, the ``.fgl``
gate-level file format, the benchmark suites of Table I, and the
benchmark database / selection platform itself.

Quickstart::

    from repro import orthogonal_layout, check_layout, layout_equivalent
    from repro.networks.library import full_adder

    net = full_adder()
    result = orthogonal_layout(net)
    assert check_layout(result.layout).ok
    assert layout_equivalent(result.layout, net)
    print(result.layout.render())

See ``examples/`` for complete flows and ``benchmarks/`` for the
harnesses regenerating the paper's Table I and Figure 1.
"""

from ._lazy import lazy_namespace

__version__ = "1.0.0"

# The public API, resolved on first use (see :mod:`repro._lazy`): a
# script that needs one flow does not import every other.
__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".networks": (
        "GateType",
        "GeneratorSpec",
        "LogicNetwork",
        "TruthTable",
        "check_equivalence",
        "decompose_to_aoig",
        "generate_network",
        "network_to_verilog",
        "parse_verilog",
        "prepare_for_layout",
        "propagate_constants",
        "read_verilog",
        "write_verilog",
    ),
    ".layout": (
        "CARTESIAN_SCHEMES",
        "ESR",
        "HEXAGONAL_SCHEMES",
        "RES",
        "ROW",
        "TWODDWAVE",
        "USE",
        "ClockingScheme",
        "GateLayout",
        "LayoutMetrics",
        "Tile",
        "Topology",
        "check_layout",
        "compute_metrics",
        "get_scheme",
        "layout_equivalent",
        "verify_layout",
    ),
    ".physical_design": (
        "ExactParams",
        "ExactResult",
        "NanoPlaceRParams",
        "NanoPlaceRResult",
        "OrthoParams",
        "OrthoResult",
        "exact_layout",
        "nanoplacer_layout",
        "orthogonal_layout",
    ),
    ".optimization": (
        "InputOrderingParams",
        "PostLayoutParams",
        "input_ordering",
        "post_layout_optimization",
        "to_hexagonal",
    ),
    ".gatelibs": ("BESTAGON", "QCA_ONE", "apply_gate_library"),
    ".io": ("read_fgl", "write_fgl"),
    ".benchsuite": ("all_benchmarks", "benchmarks_of", "get_benchmark", "suites"),
    ".core": (
        "BenchmarkDatabase",
        "GenerationParams",
        "Selection",
        "facet_counts",
        "format_table",
    ),
})
