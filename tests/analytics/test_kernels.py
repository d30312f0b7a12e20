"""Columnar kernels vs. the per-artifact reference path, bit for bit."""

import pytest

from repro.analytics import LayoutBatch, analyze_batch, analyze_layout
from repro.io.fgl import layout_to_fgl
from repro.layout import GateLayout, TWODDWAVE, Tile, check_layout, compute_metrics
from repro.layout.clocking import ROW
from repro.networks import GateType
from repro.networks.library import full_adder, mux21, xor2
from repro.networks.simulation import output_signature
from repro.optimization.hexagonalization import to_hexagonal
from repro.physical_design.ortho import orthogonal_layout


def assert_parity(layout):
    """One layout: columnar analysis == reference computation."""
    batch = LayoutBatch.from_texts([layout_to_fgl(layout)])
    analysis = analyze_layout(batch, 0, with_signature=True)

    try:
        expected_metrics = compute_metrics(layout)
    except ValueError:
        expected_metrics = None
    assert analysis.metrics == expected_metrics

    report = check_layout(layout)
    assert analysis.drc.violations == len(report.violations)
    assert analysis.drc.warnings == len(report.warnings)
    assert analysis.drc.ok == report.ok

    if report.ok:
        assert analysis.signature == output_signature(layout.extract_network())
    else:
        assert analysis.signature is None

    assert analysis.num_pis == len(layout.pis())
    assert analysis.num_pos == len(layout.pos())
    return analysis


class TestCleanLayouts:
    @pytest.mark.parametrize("factory", [mux21, xor2, full_adder])
    def test_cartesian_parity(self, factory):
        assert_parity(orthogonal_layout(factory()).layout)

    @pytest.mark.parametrize("factory", [mux21, xor2])
    def test_hexagonal_parity(self, factory):
        cartesian = orthogonal_layout(factory(), None).layout
        assert_parity(to_hexagonal(cartesian).layout)


class TestViolatingLayouts:
    """DRC counts must match even on structurally broken layouts."""

    def test_fanout_capacity_violation(self):
        lay = GateLayout(5, 5, TWODDWAVE)
        a = lay.create_pi(Tile(1, 1))
        lay.create_wire(Tile(2, 1), a)
        lay.create_wire(Tile(1, 2), a)
        analysis = assert_parity(lay)
        assert not analysis.drc.ok

    def test_non_adjacent_and_clocking(self):
        lay = GateLayout(5, 5, TWODDWAVE)
        a = lay.create_pi(Tile(0, 0))
        w = lay.create_wire(Tile(1, 0), a)
        lay.create_po(Tile(2, 0), w)
        lay.replace_fanin(Tile(2, 0), w, a)
        assert_parity(lay)

    def test_po_read_by_wire(self):
        lay = GateLayout(4, 4, TWODDWAVE)
        a = lay.create_pi(Tile(0, 0))
        po = lay.create_po(Tile(1, 0), a)
        lay.create_wire(Tile(2, 0), po)
        assert_parity(lay)

    def test_missing_po(self):
        lay = GateLayout(3, 3, TWODDWAVE)
        lay.create_pi(Tile(0, 0))
        assert_parity(lay)

    def test_unread_gate_warning(self):
        lay = GateLayout(5, 5, TWODDWAVE)
        a = lay.create_pi(Tile(0, 0))
        lay.create_wire(Tile(1, 0), a)  # dangles: warning, not violation
        lay.create_po(Tile(0, 1), a)  # second reader of a PI: capacity
        assert_parity(lay)

    def test_hexagonal_row_scheme(self):
        lay = GateLayout(5, 5, ROW)
        a = lay.create_pi(Tile(2, 2))
        lay.create_po(Tile(2, 3), a)
        assert_parity(lay)


class TestBatchAnalysis:
    def test_analyze_batch_matches_per_layout(self, analytics_db):
        records = [
            r for r in analytics_db.files() if r.path.endswith(".fgl")
        ]
        texts = analytics_db.store.read_texts([r.path for r in records])
        batch = LayoutBatch.from_texts(texts)
        combined = analyze_batch(batch, with_signatures=True)
        singles = [
            analyze_layout(batch, i, with_signature=True)
            for i in range(batch.num_layouts)
        ]
        assert combined == singles

    def test_signatures_match_specs(self, analytics_db):
        from repro.networks.verilog import parse_verilog

        records = [
            r for r in analytics_db.files() if r.path.endswith(".fgl")
        ]
        texts = analytics_db.store.read_texts([r.path for r in records])
        batch = LayoutBatch.from_texts(texts)
        for index, record in enumerate(records):
            spec = parse_verilog(
                (analytics_db.root / record.suite / f"{record.name}.v").read_text()
            )
            analysis = analyze_layout(batch, index, with_signature=True)
            assert analysis.signature == output_signature(spec)
