"""Tests for the QCADesigner (.qca) and SiQAD (.sqd) exporters."""

import pytest

from repro.celllayout import QCACell, QCACellType, SiDBLayout
from repro.gatelibs import apply_bestagon, apply_qca_one
from repro.io import cell_layout_to_qca, sidb_layout_to_sqd, write_qca, write_sqd
from repro.networks.library import full_adder, mux21
from repro.optimization import to_hexagonal
from repro.physical_design import orthogonal_layout


def qca_cells(factory=mux21):
    return apply_qca_one(orthogonal_layout(factory()).layout)


def sidb(factory=mux21):
    return apply_bestagon(to_hexagonal(orthogonal_layout(factory()).layout).layout)


class TestQcaWriter:
    def test_structure(self):
        text = cell_layout_to_qca(qca_cells())
        assert text.startswith("[VERSION]")
        assert "[TYPE:DESIGN]" in text
        assert "[#TYPE:DESIGN]" in text
        assert text.count("[TYPE:QCADCell]") == text.count("[#TYPE:QCADCell]")

    def test_cell_count_matches(self):
        cells = qca_cells()
        text = cell_layout_to_qca(cells)
        assert text.count("[TYPE:QCADCell]") == cells.num_cells()

    def test_io_cells_functional(self):
        text = cell_layout_to_qca(qca_cells())
        assert "QCAD_CELL_INPUT" in text
        assert "QCAD_CELL_OUTPUT" in text

    def test_fixed_cells_polarised(self):
        text = cell_layout_to_qca(qca_cells())
        assert "QCAD_CELL_FIXED" in text
        assert "polarization=-1.000000" in text

    def test_crossing_layers_present(self):
        text = cell_layout_to_qca(qca_cells(full_adder))
        assert text.count("[TYPE:QCADLayer]") >= 2
        assert "QCAD_CELL_MODE_CROSSOVER" in text

    def test_labels_emitted(self):
        text = cell_layout_to_qca(qca_cells())
        assert "[TYPE:QCADLabel]" in text

    @pytest.mark.parametrize("label", ["a\nx=1", "a\r", "a\u2028b"])
    def test_label_with_line_break_rejected(self, label):
        cells = qca_cells()
        position = cells.inputs()[0]
        cells.cells[position] = QCACell(QCACellType.INPUT, label)
        with pytest.raises(ValueError, match="line break"):
            cell_layout_to_qca(cells)

    def test_file_write(self, tmp_path):
        path = tmp_path / "layout.qca"
        write_qca(qca_cells(), path)
        assert path.read_text().startswith("[VERSION]")


class TestSqdWriter:
    def test_structure(self):
        text = sidb_layout_to_sqd(sidb())
        assert "<siqad>" in text
        assert '<layer type="DB">' in text

    def test_dot_count_matches(self):
        layout = sidb()
        text = sidb_layout_to_sqd(layout)
        assert text.count("<dbdot>") == layout.num_dots()

    def test_latcoords_present(self):
        text = sidb_layout_to_sqd(sidb())
        assert "latcoord" in text

    def test_labels(self):
        text = sidb_layout_to_sqd(sidb())
        assert '<label type="input">' in text
        assert '<label type="output">' in text

    def test_escaped_names(self):
        """Text nodes are escaped as minidom escapes them (``&``, ``<``,
        ``"``, ``>``), the same escaper the ``.fgl`` writer uses."""
        layout = SiDBLayout(name="a\"b'c&d>e")
        layout.add_dot(0, 0, 0)
        layout.input_labels[(0, 0, 0)] = 'x"y<z'
        assert sidb_layout_to_sqd(layout) == (
            '<?xml version="1.0" ?>\n'
            "<siqad>\n"
            "    <program>\n"
            "        <file_purpose>save</file_purpose>\n"
            "        <name>a&quot;b'c&amp;d&gt;e</name>\n"
            "    </program>\n"
            "    <design>\n"
            '        <layer type="DB">\n'
            "            <dbdot>\n"
            "                <layer_id>2</layer_id>\n"
            '                <latcoord n="0" m="0" l="0"/>\n'
            '                <label type="input">x&quot;y&lt;z</label>\n'
            "            </dbdot>\n"
            "        </layer>\n"
            "    </design>\n"
            "</siqad>\n"
        )

    def test_file_write(self, tmp_path):
        path = tmp_path / "layout.sqd"
        write_sqd(sidb(), path)
        assert "<siqad>" in path.read_text()


class TestQcaReader:
    def test_roundtrip_cells(self):
        from repro.io import qca_to_cell_layout, cell_layout_to_qca

        cells = qca_cells()
        restored = qca_to_cell_layout(cell_layout_to_qca(cells))
        assert restored.num_cells() == cells.num_cells()
        assert set(restored.cells) == set(cells.cells)

    def test_roundtrip_cell_types(self):
        from repro.io import qca_to_cell_layout, cell_layout_to_qca
        from repro.celllayout import QCACellType

        cells = qca_cells()
        restored = qca_to_cell_layout(cell_layout_to_qca(cells))
        for key, cell in cells.cells.items():
            if cell.cell_type is QCACellType.ROTATED:
                continue  # rotation is encoded as crossover mode
            assert restored.cells[key].cell_type == cell.cell_type, key

    def test_roundtrip_labels(self):
        from repro.io import qca_to_cell_layout, cell_layout_to_qca

        cells = qca_cells()
        restored = qca_to_cell_layout(cell_layout_to_qca(cells))
        original_labels = {c.label for c in cells.cells.values() if c.label}
        restored_labels = {c.label for c in restored.cells.values() if c.label}
        assert original_labels == restored_labels

    def test_file_roundtrip(self, tmp_path):
        from repro.io import read_qca, write_qca

        cells = qca_cells()
        path = tmp_path / "cells.qca"
        write_qca(cells, path)
        assert read_qca(path).num_cells() == cells.num_cells()


class TestSqdReader:
    def test_roundtrip_dots(self):
        from repro.io import sqd_to_sidb_layout, sidb_layout_to_sqd

        layout = sidb()
        restored = sqd_to_sidb_layout(sidb_layout_to_sqd(layout))
        assert restored.dots == layout.dots

    def test_file_roundtrip(self, tmp_path):
        from repro.io import read_sqd, write_sqd

        layout = sidb()
        path = tmp_path / "layout.sqd"
        write_sqd(layout, path)
        assert read_sqd(path).num_dots() == layout.num_dots()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "well-formed"),
            ("<siqad>", "well-formed"),
            (
                '<siqad><design><layer type="DB"><dbdot>'
                '<latcoord n="x" m="0" l="0"/></dbdot></layer></design></siqad>',
                "non-integer latcoord",
            ),
        ],
        ids=["empty", "truncated", "non-numeric-latcoord"],
    )
    def test_malformed_input_raises_sqd_error(self, text, match):
        from repro.io import SqdError, sqd_to_sidb_layout

        with pytest.raises(SqdError, match=match):
            sqd_to_sidb_layout(text)
