"""Tests for the QCA ONE gate library application."""

import hashlib

import pytest

from repro.celllayout import QCACellType
from repro.gatelibs import QCAOneError, apply_gate_library, apply_qca_one
from repro.gatelibs.qca_one import TILE_SIZE, side_of
from repro.io.fgl import fgl_to_columns, fgl_to_layout, layout_to_fgl
from repro.layout import GateLayout, TWODDWAVE, Tile
from repro.networks import GateType
from repro.networks.library import full_adder, mux21
from repro.optimization import to_hexagonal
from repro.physical_design import orthogonal_layout


class TestSideOf:
    def test_all_sides(self):
        t = Tile(2, 2)
        assert side_of(t, Tile(2, 1)) == "N"
        assert side_of(t, Tile(3, 2)) == "E"
        assert side_of(t, Tile(2, 3)) == "S"
        assert side_of(t, Tile(1, 2)) == "W"

    def test_non_adjacent_rejected(self):
        with pytest.raises(QCAOneError):
            side_of(Tile(0, 0), Tile(2, 0))


class TestApplication:
    def test_and_layout(self, and_layout):
        layout, _ = and_layout
        cells = apply_qca_one(layout)
        assert cells.num_cells() > 0
        # One 5×5 block per occupied tile column/row extent.
        width, height = cells.bounding_box()
        assert width <= layout.width * TILE_SIZE
        assert height <= layout.height * TILE_SIZE

    def test_io_pins_labelled(self, and_layout):
        layout, _ = and_layout
        cells = apply_qca_one(layout)
        assert len(cells.inputs()) == 2
        assert len(cells.outputs()) == 1
        labels = {cells.cells[p].label for p in cells.inputs()}
        assert labels == {"a", "b"}

    def test_and_gets_fixed_zero_cell(self, and_layout):
        layout, _ = and_layout
        cells = apply_qca_one(layout)
        fixed = [c for c in cells.cells.values() if c.cell_type is QCACellType.FIXED_0]
        assert len(fixed) == 1

    def test_or_gets_fixed_one_cell(self):
        lay = GateLayout(3, 2, TWODDWAVE)
        a = lay.create_pi(Tile(1, 0), "a")
        b = lay.create_pi(Tile(0, 1), "b")
        g = lay.create_gate(GateType.OR, Tile(1, 1), [a, b])
        lay.create_po(Tile(2, 1), g, "f")
        cells = apply_qca_one(lay)
        fixed = [c for c in cells.cells.values() if c.cell_type is QCACellType.FIXED_1]
        assert len(fixed) == 1

    def test_crossings_use_upper_layers(self):
        net = full_adder()
        layout = orthogonal_layout(net).layout
        assert layout.num_crossings() > 0
        cells = apply_qca_one(layout)
        assert cells.num_crossing_cells() > 0

    def test_generated_layout_compiles(self):
        layout = orthogonal_layout(mux21()).layout
        cells = apply_qca_one(layout)
        assert cells.num_cells() >= len(layout) * 3  # every tile has cells

    def test_hexagonal_rejected(self):
        layout = to_hexagonal(orthogonal_layout(mux21()).layout).layout
        with pytest.raises(QCAOneError, match="Cartesian"):
            apply_qca_one(layout)

    def test_unsupported_gate_rejected(self):
        lay = GateLayout(3, 2, TWODDWAVE)
        a = lay.create_pi(Tile(1, 0), "a")
        b = lay.create_pi(Tile(0, 1), "b")
        g = lay.create_gate(GateType.XOR, Tile(1, 1), [a, b])
        lay.create_po(Tile(2, 1), g)
        with pytest.raises(QCAOneError, match="decompose"):
            apply_qca_one(lay)

    def test_cells_and_zones_keep_the_golden_order(self):
        """The cell and zone dicts, in insertion order, as the retired
        per-tile reference compile built them."""
        cells = apply_qca_one(orthogonal_layout(full_adder()).layout)
        items = repr([(p, c.cell_type.value, c.label) for p, c in cells.cells.items()])
        assert hashlib.sha256(items.encode()).hexdigest() == (
            "87719c33ee49e034fc468015f3bf76adeb418cc15c4b08b11e1bedfda933a50a"
        )
        zones = repr(list(cells.zones.items()))
        assert hashlib.sha256(zones.encode()).hexdigest() == (
            "94021e9bbec7812305198a6127c4778e870d9cc819748fceccae2844d2db1ce9"
        )


def _skipping_layout(crossing: bool) -> GateLayout:
    """A layout with one signal that skips a tile: on the ground layer,
    or into the crossing layer above a ground wire."""
    lay = GateLayout(4, 3, TWODDWAVE)
    a = lay.create_pi(Tile(1, 0), "a")
    wire = lay.create_wire(Tile(1, 1), a)
    lay.create_po(Tile(1, 2), wire, "f")
    b = lay.create_pi(Tile(3, 1), "b")
    if crossing:
        lay.create_po(Tile(0, 1), lay.create_wire(Tile(1, 1, 1), b), "g")
    else:
        lay.create_po(Tile(0, 2), b, "g")
    return lay


class TestAdjacency:
    @pytest.mark.parametrize(
        "crossing, message",
        [
            (False, "tiles (3,1,0) and (0,2,0) are not adjacent"),
            (True, "tiles (1,1,0) and (3,1,0) are not adjacent"),
        ],
        ids=["ground", "crossing"],
    )
    def test_non_adjacent_neighbour_rejected(self, crossing, message):
        layout = _skipping_layout(crossing)
        with pytest.raises(QCAOneError) as raised:
            apply_qca_one(layout)
        assert str(raised.value) == message
        # The text lists the gates in its own order, which decides the
        # first neighbour reported: the same one as for its layout.
        text = layout_to_fgl(layout)
        with pytest.raises(QCAOneError) as from_layout:
            apply_qca_one(fgl_to_layout(text))
        with pytest.raises(QCAOneError) as from_text:
            apply_qca_one(fgl_to_columns(text))
        assert str(from_text.value) == str(from_layout.value)


class TestDispatcher:
    def test_library_names(self, and_layout):
        layout, _ = and_layout
        assert apply_gate_library(layout, "QCA ONE").num_cells() > 0
        assert apply_gate_library(layout, "qca_one").num_cells() > 0
        assert apply_gate_library(layout, "ONE").num_cells() > 0

    def test_unknown_library(self, and_layout):
        layout, _ = and_layout
        with pytest.raises(ValueError, match="unknown gate library"):
            apply_gate_library(layout, "ToNeXT")

    def test_render(self, and_layout):
        layout, _ = and_layout
        art = apply_qca_one(layout).render()
        assert "i" in art and "o" in art and "0" in art
