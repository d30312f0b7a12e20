"""Shared fixtures: a fast fabricated database for the analytics tests.

The database is built from cheap ortho/PLO flows (no exact search, no
NanoPlaceR), with two artifacts per function so ranking has something to
rank, and a Verilog specification next to the index so re-verification
has something to verify against.
"""

import pytest

from repro.core import BenchmarkDatabase
from repro.core.bench import BenchmarkFile
from repro.core.selection import AbstractionLevel
from repro.io.fgl import layout_to_fgl
from repro.networks.library import half_adder, mux21, xor2
from repro.networks.verilog import write_verilog
from repro.optimization.post_layout import post_layout_optimization
from repro.physical_design.ortho import orthogonal_layout
from repro.qa.oracles import per_artifact_analysis

NETWORKS = (("mux21", mux21), ("xor2", xor2), ("half_adder", half_adder))

SUITE = "trindade16"


def build_analytics_db(root) -> BenchmarkDatabase:
    """Fabricate a packed database: 2 artifacts × 3 functions + specs."""
    db = BenchmarkDatabase(root)
    (root / SUITE).mkdir(parents=True, exist_ok=True)
    for name, factory in NETWORKS:
        network = factory()
        write_verilog(network, root / SUITE / f"{name}.v")
        plain = orthogonal_layout(network).layout
        optimized = post_layout_optimization(plain.clone()).layout
        for layout, opts in ((plain, ()), (optimized, ("PLO",))):
            file_name = BenchmarkDatabase.file_name(
                name, "QCA ONE", "2DDWave", "ortho", opts
            )
            relpath = f"{SUITE}/{file_name}"
            (root / relpath).write_text(layout_to_fgl(layout), encoding="utf-8")
            width, height = layout.bounding_box()
            db._records.append(
                BenchmarkFile(
                    suite=SUITE,
                    name=name,
                    abstraction_level=AbstractionLevel.GATE_LEVEL,
                    path=relpath,
                    gate_library="QCA ONE",
                    clocking_scheme="2DDWave",
                    algorithm="ortho",
                    optimizations=opts,
                    width=width,
                    height=height,
                    area=width * height,
                    runtime_seconds=0.1,
                )
            )
    db._save_index()
    db.pack()
    return db


@pytest.fixture(scope="module")
def analytics_db(tmp_path_factory) -> BenchmarkDatabase:
    return build_analytics_db(tmp_path_factory.mktemp("analytics_db"))


def per_artifact_sweep(db, records=None, with_signatures=False):
    """``sweep_database`` through the object model: one
    :func:`~repro.qa.oracles.per_artifact_analysis` per stored artifact.
    Takes the sweep's arguments, so tests can also patch it in."""
    from repro.analytics import gate_level_records

    if records is None:
        records = gate_level_records(db)
    return [
        (record, per_artifact_analysis(db.artifact_text(record), with_signatures))
        for record in records
    ]
