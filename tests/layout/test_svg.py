"""Tests for the SVG layout renderer."""

import xml.etree.ElementTree as ET

from repro.layout import TWODDWAVE, GateLayout, Tile
from repro.layout.svg import layout_to_svg, write_svg
from repro.networks import GateType
from repro.networks.library import full_adder, mux21
from repro.optimization import to_hexagonal
from repro.physical_design import orthogonal_layout


def test_valid_xml(and_layout):
    layout, _ = and_layout
    svg = layout_to_svg(layout)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_tiles_and_arrows_present(and_layout):
    layout, _ = and_layout
    svg = layout_to_svg(layout)
    # One rect per background tile + one per occupied ground tile.
    assert svg.count("<rect") >= layout.width * layout.height
    assert svg.count("<line") == sum(len(g.fanins) for _, g in layout.tiles())


def test_io_labels(and_layout):
    layout, _ = and_layout
    svg = layout_to_svg(layout)
    assert ">a</text>" in svg and ">b</text>" in svg and ">f</text>" in svg


def test_clock_zones_optional(and_layout):
    layout, _ = and_layout
    with_zones = layout_to_svg(layout, show_clock_zones=True)
    without = layout_to_svg(layout, show_clock_zones=False)
    assert with_zones.count("<rect") > without.count("<rect")


def test_crossings_dashed():
    layout = orthogonal_layout(full_adder()).layout
    assert layout.num_crossings() > 0
    svg = layout_to_svg(layout)
    assert "stroke-dasharray" in svg


def test_hexagonal_rendering():
    layout = to_hexagonal(orthogonal_layout(mux21()).layout).layout
    svg = layout_to_svg(layout)
    assert "<polygon" in svg
    ET.fromstring(svg)


def test_write_svg(tmp_path, and_layout):
    layout, _ = and_layout
    path = tmp_path / "layout.svg"
    write_svg(layout, path)
    assert path.read_text().startswith("<svg")


def test_markup_in_names_is_escaped_as_before(monkeypatch):
    """Names with ``& < > " '`` render byte-identically to the
    ``xml.sax.saxutils.escape`` the renderer used before."""
    from xml.sax.saxutils import escape as sax_escape

    import repro.layout.svg as svg_module

    name = "a&<b>\"c'"
    layout = GateLayout(3, 2, TWODDWAVE, name=f"layout {name}")
    a = layout.create_pi(Tile(1, 0), name)
    b = layout.create_pi(Tile(0, 1), "b<&>")
    g = layout.create_gate(GateType.AND, Tile(1, 1), [a, b])
    layout.create_po(Tile(2, 1), g, "'f'\"")
    svg = layout_to_svg(layout)
    assert ">a&amp;&lt;b&gt;\"c'</text>" in svg
    assert "<title>layout a&amp;&lt;b&gt;\"c'</title>" in svg
    ET.fromstring(svg)

    monkeypatch.setattr(svg_module, "escape", lambda text, quote=False: sax_escape(text))
    assert layout_to_svg(layout) == svg
