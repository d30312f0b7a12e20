"""Tests for the .fgl gate-level file format."""

import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import LayoutBatch
from repro.gatelibs import apply_qca_one
from repro.io import (
    FglError,
    cell_layout_to_qca,
    fgl_to_layout,
    fgl_to_layout_xml,
    layout_to_fgl,
    read_fgl,
    write_fgl,
)
from repro.io.fgl import (
    FGL_VERSION,
    _TOPOLOGY_TO_TAG,
    _TYPE_TO_TAG,
    _serialisation_order,
)
from repro.layout import GateLayout, OPEN, ROW, TWODDWAVE, Tile, Topology, check_layout
from repro.networks import check_equivalence
from repro.networks.generators import GeneratorSpec, generate_network
from repro.networks.library import full_adder, mux21, ripple_carry_adder
from repro.optimization import to_hexagonal
from repro.physical_design import OrthoParams, orthogonal_layout


def roundtrip(layout):
    return fgl_to_layout(layout_to_fgl(layout))


class TestWriting:
    def test_header_fields(self, and_layout):
        layout, _ = and_layout
        text = layout_to_fgl(layout)
        assert "<fgl>" in text
        assert "<name>and2</name>" in text
        assert "<topology>cartesian</topology>" in text
        assert "<name>2DDWave</name>" in text

    def test_gate_entries(self, and_layout):
        layout, _ = and_layout
        text = layout_to_fgl(layout)
        assert "<type>PI</type>" in text
        assert "<type>AND</type>" in text
        assert "<type>PO</type>" in text
        assert "<incoming>" in text

    def test_inverter_spelled_inv(self):
        from repro.networks import GateType

        lay = GateLayout(3, 1, TWODDWAVE)
        a = lay.create_pi(Tile(0, 0), "a")
        n = lay.create_gate(GateType.NOT, Tile(1, 0), [a])
        lay.create_po(Tile(2, 0), n)
        assert "<type>INV</type>" in layout_to_fgl(lay)

    def test_file_roundtrip(self, tmp_path, and_layout):
        layout, spec = and_layout
        path = tmp_path / "and2.fgl"
        write_fgl(layout, path)
        loaded = read_fgl(path)
        assert check_equivalence(spec, loaded.extract_network()).equivalent


class TestRoundTrip:
    @pytest.mark.parametrize(
        "factory", [mux21, full_adder, lambda: ripple_carry_adder(2)]
    )
    def test_cartesian(self, factory):
        net = factory()
        layout = orthogonal_layout(net).layout
        loaded = roundtrip(layout)
        assert loaded.width == layout.width and loaded.height == layout.height
        assert check_layout(loaded).ok
        assert check_equivalence(net, loaded.extract_network()).equivalent

    def test_hexagonal(self):
        net = full_adder()
        layout = to_hexagonal(orthogonal_layout(net).layout).layout
        loaded = roundtrip(layout)
        assert loaded.topology is Topology.HEXAGONAL_EVEN_ROW
        assert loaded.scheme is ROW
        assert check_equivalence(net, loaded.extract_network()).equivalent

    def test_crossings_roundtrip(self):
        net = full_adder()
        layout = orthogonal_layout(net).layout
        assert layout.num_crossings() > 0
        loaded = roundtrip(layout)
        assert loaded.num_crossings() == layout.num_crossings()

    def test_open_clocking_zones(self, and_layout):
        layout, spec = and_layout
        open_layout = GateLayout(3, 2, OPEN, name="and2")
        for tile, _ in layout.tiles():
            open_layout.assign_zone(tile, layout.zone(tile))
        for tile in layout.topological_tiles():
            gate = layout.get(tile)
            if gate.is_pi:
                open_layout.create_pi(tile, gate.name)
            elif gate.is_po:
                open_layout.create_po(tile, gate.fanins[0], gate.name)
            else:
                open_layout.create_gate(gate.gate_type, tile, gate.fanins, gate.name)
        loaded = roundtrip(open_layout)
        assert loaded.zone(Tile(1, 0)) == 1
        assert check_equivalence(spec, loaded.extract_network()).equivalent

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=8, deadline=None)
    def test_random_layout_roundtrip(self, seed):
        net = generate_network(GeneratorSpec("f", 5, 2, 25, seed=seed))
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        loaded = roundtrip(layout)
        assert check_equivalence(net, loaded.extract_network()).equivalent


def layout_to_fgl_reference(layout: GateLayout) -> str:
    """The historical DOM writer (ElementTree + minidom pretty-print):
    the byte-level oracle for :func:`layout_to_fgl`."""
    root = ET.Element("fgl")
    ET.SubElement(root, "version").text = FGL_VERSION

    header = ET.SubElement(root, "layout")
    ET.SubElement(header, "name").text = layout.name or "layout"
    ET.SubElement(header, "topology").text = _TOPOLOGY_TO_TAG[layout.topology]
    size = ET.SubElement(header, "size")
    ET.SubElement(size, "x").text = str(layout.width)
    ET.SubElement(size, "y").text = str(layout.height)
    ET.SubElement(size, "z").text = "1"
    clocking = ET.SubElement(header, "clocking")
    ET.SubElement(clocking, "name").text = layout.scheme.name
    if not layout.scheme.regular:
        zones = ET.SubElement(clocking, "zones")
        for tile, _ in layout.tiles():
            if tile.z != 0:
                continue
            zone = ET.SubElement(zones, "zone")
            ET.SubElement(zone, "x").text = str(tile.x)
            ET.SubElement(zone, "y").text = str(tile.y)
            ET.SubElement(zone, "clock").text = str(layout.zone(tile))

    gates = ET.SubElement(root, "gates")
    ordered = _serialisation_order(layout)
    ids = {tile: index for index, tile in enumerate(ordered)}
    for tile in ordered:
        gate = layout.get(tile)
        node = ET.SubElement(gates, "gate")
        ET.SubElement(node, "id").text = str(ids[tile])
        ET.SubElement(node, "type").text = _TYPE_TO_TAG[gate.gate_type]
        if gate.name:
            ET.SubElement(node, "name").text = gate.name
        loc = ET.SubElement(node, "loc")
        ET.SubElement(loc, "x").text = str(tile.x)
        ET.SubElement(loc, "y").text = str(tile.y)
        ET.SubElement(loc, "z").text = str(tile.z)
        if gate.fanins:
            incoming = ET.SubElement(node, "incoming")
            for fanin in gate.fanins:
                signal = ET.SubElement(incoming, "signal")
                ET.SubElement(signal, "x").text = str(fanin.x)
                ET.SubElement(signal, "y").text = str(fanin.y)
                ET.SubElement(signal, "z").text = str(fanin.z)

    raw = ET.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="    ")


class TestStreamingWriterParity:
    """The streaming writer is the serving hot path; every output must
    match the historical minidom writer (the test-only
    :func:`layout_to_fgl_reference`) byte-for-byte."""

    @pytest.mark.parametrize(
        "factory", [mux21, full_adder, lambda: ripple_carry_adder(2)]
    )
    def test_cartesian_golden(self, factory):
        layout = orthogonal_layout(factory()).layout
        assert layout_to_fgl(layout) == layout_to_fgl_reference(layout)

    def test_hexagonal_golden(self):
        layout = to_hexagonal(orthogonal_layout(full_adder()).layout).layout
        assert layout_to_fgl(layout) == layout_to_fgl_reference(layout)

    def test_empty_layout(self):
        layout = GateLayout(2, 2, TWODDWAVE, name="empty")
        assert layout_to_fgl(layout) == layout_to_fgl_reference(layout)

    def test_escaped_names(self):
        from repro.networks import GateType

        layout = GateLayout(3, 1, TWODDWAVE, name='a&b<c>"d\'é')
        a = layout.create_pi(Tile(0, 0), 'in<&>"x')
        n = layout.create_gate(GateType.NOT, Tile(1, 0), [a])
        layout.create_po(Tile(2, 0), n, "out&<>")
        text = layout_to_fgl(layout)
        assert text == layout_to_fgl_reference(layout)
        restored = fgl_to_layout(text)
        assert restored.name == layout.name

    def test_open_scheme_zones_golden(self, and_layout):
        layout, _ = and_layout
        open_layout = GateLayout(3, 2, OPEN, name="and2")
        for tile, _ in layout.tiles():
            open_layout.assign_zone(tile, layout.zone(tile))
        for tile in layout.topological_tiles():
            gate = layout.get(tile)
            if gate.is_pi:
                open_layout.create_pi(tile, gate.name)
            elif gate.is_po:
                open_layout.create_po(tile, gate.fanins[0], gate.name)
            else:
                open_layout.create_gate(gate.gate_type, tile, gate.fanins, gate.name)
        assert layout_to_fgl(open_layout) == layout_to_fgl_reference(open_layout)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=8, deadline=None)
    def test_random_layout_golden(self, seed):
        net = generate_network(GeneratorSpec("f", 5, 2, 25, seed=seed))
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        assert layout_to_fgl(layout) == layout_to_fgl_reference(layout)


class TestErrors:
    def test_not_xml(self):
        with pytest.raises(FglError, match="well-formed"):
            fgl_to_layout("this is not xml")

    def test_wrong_root(self):
        with pytest.raises(FglError, match="expected <fgl>"):
            fgl_to_layout("<qca/>")

    def test_missing_header(self):
        with pytest.raises(FglError, match="missing <layout>"):
            fgl_to_layout("<fgl><gates/></fgl>")

    def test_unknown_topology(self):
        with pytest.raises(FglError, match="unknown topology"):
            fgl_to_layout(
                "<fgl><layout><name>x</name><topology>spherical</topology>"
                "<size><x>2</x><y>2</y><z>1</z></size>"
                "<clocking><name>2DDWave</name></clocking></layout>"
                "<gates/></fgl>"
            )

    def test_unknown_gate_type(self):
        with pytest.raises(FglError, match="unknown gate type"):
            fgl_to_layout(
                "<fgl><layout><name>x</name><topology>cartesian</topology>"
                "<size><x>2</x><y>2</y><z>1</z></size>"
                "<clocking><name>2DDWave</name></clocking></layout>"
                "<gates><gate><id>0</id><type>WARP</type>"
                "<loc><x>0</x><y>0</y><z>0</z></loc></gate></gates></fgl>"
            )

    def test_unresolvable_fanin(self):
        with pytest.raises(FglError, match="unresolvable"):
            fgl_to_layout(
                "<fgl><layout><name>x</name><topology>cartesian</topology>"
                "<size><x>3</x><y>3</y><z>1</z></size>"
                "<clocking><name>2DDWave</name></clocking></layout>"
                "<gates><gate><id>0</id><type>BUF</type>"
                "<loc><x>1</x><y>0</y><z>0</z></loc>"
                "<incoming><signal><x>0</x><y>0</y><z>0</z></signal></incoming>"
                "</gate></gates></fgl>"
            )

    def test_pi_with_fanin_rejected(self):
        with pytest.raises(FglError, match="PI"):
            fgl_to_layout(
                "<fgl><layout><name>x</name><topology>cartesian</topology>"
                "<size><x>3</x><y>3</y><z>1</z></size>"
                "<clocking><name>2DDWave</name></clocking></layout>"
                "<gates>"
                "<gate><id>0</id><type>PI</type><loc><x>0</x><y>0</y><z>0</z></loc></gate>"
                "<gate><id>1</id><type>PI</type><loc><x>1</x><y>0</y><z>0</z></loc>"
                "<incoming><signal><x>0</x><y>0</y><z>0</z></signal></incoming></gate>"
                "</gates></fgl>"
            )

    def test_alias_inv_and_not_accepted(self):
        text = (
            "<fgl><layout><name>x</name><topology>cartesian</topology>"
            "<size><x>3</x><y>1</y><z>1</z></size>"
            "<clocking><name>2DDWave</name></clocking></layout>"
            "<gates>"
            "<gate><id>0</id><type>PI</type><loc><x>0</x><y>0</y><z>0</z></loc></gate>"
            "<gate><id>1</id><type>NOT</type><loc><x>1</x><y>0</y><z>0</z></loc>"
            "<incoming><signal><x>0</x><y>0</y><z>0</z></signal></incoming></gate>"
            "<gate><id>2</id><type>PO</type><loc><x>2</x><y>0</y><z>0</z></loc>"
            "<incoming><signal><x>1</x><y>0</y><z>0</z></signal></incoming></gate>"
            "</gates></fgl>"
        )
        layout = fgl_to_layout(text)
        assert check_layout(layout).ok


def _pin_layout(layout_name: str = "lname", pin_name: str = "pin") -> GateLayout:
    layout = GateLayout(3, 1, TWODDWAVE, name=layout_name)
    source = layout.create_pi(Tile(0, 0), pin_name)
    wire = layout.create_wire(Tile(1, 0), source)
    layout.create_po(Tile(2, 0), wire, "out")
    return layout


def _outcome(read, text):
    """What ``read`` makes of ``text``: its result, or ``FglError``."""
    try:
        return read(text)
    except FglError:
        return FglError


class TestReaderTiers:
    """``fgl_to_layout`` scans canonical text and leaves the rest to the
    XML tier; both tiers, and the columnar decoder sharing the scanner,
    must read every text alike."""

    @pytest.mark.parametrize("field", ["layout", "gate"])
    @pytest.mark.parametrize(
        "name",
        [
            "a&#65;b",
            "q&apos;r",
            "a\rb",
            " lead",
            "trail ",
            "x&foo;y",
            "z]]>w",
            "a\x01b",
            "￾",
            "a&amp;b&lt;c&gt;d&quot;",
            "plain",
        ],
    )
    def test_names_read_alike(self, field, name):
        from repro.analytics import LayoutBatch

        text = layout_to_fgl(_pin_layout())
        original = "<name>lname</name>" if field == "layout" else "<name>pin</name>"
        text = text.replace(original, f"<name>{name}</name>")

        def columns(batch):
            return batch.names, batch.gate_names, list(batch.gx), list(batch.kind)

        expected = _outcome(fgl_to_layout_xml, text)
        if expected is FglError:
            assert _outcome(fgl_to_layout, text) is FglError
            assert _outcome(LayoutBatch.from_texts, [text]) is FglError
            return
        layout = fgl_to_layout(text)
        assert layout.name == expected.name
        assert layout_to_fgl(layout) == layout_to_fgl(expected)
        assert columns(LayoutBatch.from_texts([text])) == columns(
            LayoutBatch.from_layouts([expected])
        )

    def test_canonical_text_never_reaches_the_xml_tier(self, monkeypatch):
        import repro.io.fgl as fgl

        layout = orthogonal_layout(full_adder()).layout
        text = layout_to_fgl(layout)

        def refuse(source):
            raise AssertionError("canonical text reached the XML tier")

        monkeypatch.setattr(fgl, "_parse_fgl", refuse)
        assert layout_to_fgl(fgl_to_layout(text)) == text

    def test_named_ground_wire_keeps_its_name(self):
        from repro.networks import GateType

        layout = GateLayout(3, 1, TWODDWAVE, name="w")
        source = layout.create_pi(Tile(0, 0), "a")
        wire = layout.create_gate(GateType.BUF, Tile(1, 0), [source], "tap")
        layout.create_po(Tile(2, 0), wire, "f")
        text = layout_to_fgl(layout)
        for read in (fgl_to_layout, fgl_to_layout_xml):
            assert read(text).get(Tile(1, 0)).name == "tap"
            assert layout_to_fgl(read(text)) == text


def _canonical_and_compact(text):
    """The text itself and an equivalent non-canonical (unindented) form."""
    compact = "".join(line.strip() for line in text.splitlines())
    return [text, compact]


class TestTypedErrors:
    """Malformed content raises ``FglError`` (a ``ValueError``) from
    either tier, never a bare error from the layout classes."""

    # The PO of _pin_layout sits at (2, 0, 0).
    PO_LOC = "<x>2</x>\n                <y>0</y>\n                <z>0</z>"
    BROKEN = {
        "unknown scheme": ("<name>2DDWave</name>", "<name>SPIRAL</name>"),
        "zero width": ("<x>3</x>", "<x>0</x>"),
        "out of bounds": (PO_LOC, PO_LOC.replace("<x>2</x>", "<x>7</x>")),
        "duplicate tile": (PO_LOC, PO_LOC.replace("<x>2</x>", "<x>1</x>")),
        "crossing-layer pad": (PO_LOC, PO_LOC.replace("<z>0</z>", "<z>1</z>")),
    }

    def test_fgl_error_is_a_value_error(self):
        assert issubclass(FglError, ValueError)

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_content_raises_fgl_error(self, case):
        old, new = self.BROKEN[case]
        text = layout_to_fgl(_pin_layout())
        assert old in text
        for variant in _canonical_and_compact(text.replace(old, new, 1)):
            for read in (fgl_to_layout, fgl_to_layout_xml):
                with pytest.raises(FglError):
                    read(variant)

    def test_messages_name_the_element(self):
        text = layout_to_fgl(_pin_layout())
        with pytest.raises(FglError, match="<clocking>"):
            fgl_to_layout(text.replace("<name>2DDWave</name>", "<name>SPIRAL</name>"))
        with pytest.raises(FglError, match="<size>"):
            fgl_to_layout(text.replace("<x>3</x>", "<x>0</x>", 1))
        old, new = self.BROKEN["crossing-layer pad"]
        with pytest.raises(FglError, match="gate 2 \\(PO\\)"):
            fgl_to_layout(text.replace(old, new, 1))

    def test_zone_clock_out_of_range(self, and_layout):
        layout, _ = and_layout
        open_layout = GateLayout(3, 2, OPEN, name="and2")
        source = open_layout.create_pi(Tile(0, 0), "a")
        open_layout.create_po(Tile(1, 0), source, "f")
        open_layout.assign_zone(Tile(1, 0), 1)
        text = layout_to_fgl(open_layout)
        broken = text.replace("<clock>1</clock>", "<clock>9</clock>")
        assert broken != text
        for variant in _canonical_and_compact(broken):
            for read in (fgl_to_layout, fgl_to_layout_xml):
                with pytest.raises(FglError, match="<zone>"):
                    read(variant)

    @pytest.mark.parametrize("field", ["layout", "gate"])
    @pytest.mark.parametrize(
        "name", ["a\nx=1", "a&#10;x=1", "a&#13;b", "a\n[TYPE:QCADCell]\nx=9990"]
    )
    def test_line_break_in_name_raises_fgl_error(self, field, name):
        # A name's line break would reach the line-based .qca output as
        # file syntax (an injected cell), so the XML tier refuses it.
        text = layout_to_fgl(_pin_layout())
        original = "<name>lname</name>" if field == "layout" else "<name>pin</name>"
        text = text.replace(original, f"<name>{name}</name>")
        for read in (fgl_to_layout, fgl_to_layout_xml):
            with pytest.raises(FglError, match="control character"):
                read(text)

    @pytest.mark.parametrize("field", ["layout", "gate"])
    @pytest.mark.parametrize(
        "name",
        ["a\x85b", "a\u2028b", "a\u2029b", "a&#x2028;b", "a&#133;b", "a&#8233;b"],
    )
    def test_unicode_line_break_in_name_raises_fgl_error(self, field, name):
        # ``str.splitlines`` also breaks at U+0085, U+2028 and U+2029,
        # so the .qca writer would refuse such a label; both tiers and
        # the columnar decoder refuse the name up front instead.
        text = layout_to_fgl(_pin_layout())
        original = "<name>lname</name>" if field == "layout" else "<name>pin</name>"
        text = text.replace(original, f"<name>{name}</name>")
        for read in (fgl_to_layout, fgl_to_layout_xml):
            with pytest.raises(FglError, match="line break"):
                read(text)
        with pytest.raises(FglError, match="line break"):
            LayoutBatch.from_texts([text])

    @pytest.mark.parametrize("name", ["a\tb", "a\u00a0b", "a\u2027b", "a\u202fb"])
    def test_accepted_pin_names_export_to_qca(self, name):
        # A pin name both tiers accept is a label the .qca writer takes.
        text = layout_to_fgl(_pin_layout(pin_name=name))
        layout = fgl_to_layout(text)
        assert fgl_to_layout_xml(text).structural_diff(layout) is None
        assert name in cell_layout_to_qca(apply_qca_one(layout))

    def test_surrounding_line_breaks_are_stripped(self):
        text = layout_to_fgl(_pin_layout()).replace(
            "<name>pin</name>", "<name>\n  pin\n</name>"
        )
        assert fgl_to_layout(text).get(Tile(0, 0)).name == "pin"

    def test_undecodable_text(self):
        text = layout_to_fgl(_pin_layout(layout_name="a\ud800b"))
        with pytest.raises(FglError):
            fgl_to_layout(text)


class TestReadFglFile:
    def test_canonical_file_matches_text_reader(self, tmp_path):
        layout = orthogonal_layout(full_adder()).layout
        path = tmp_path / "fa.fgl"
        write_fgl(layout, path)
        text = path.read_text(encoding="utf-8")
        assert layout_to_fgl(read_fgl(path)) == text

    def test_invalid_utf8_raises_fgl_error(self, tmp_path):
        data = layout_to_fgl(_pin_layout()).encode("utf-8")
        path = tmp_path / "bad.fgl"
        path.write_bytes(data.replace(b"lname", b"l\xffname"))
        with pytest.raises(FglError):
            read_fgl(path)

    def test_declared_encoding_goes_through_the_xml_tier(self, tmp_path):
        text = layout_to_fgl(_pin_layout(layout_name="café"))
        declared = text.replace(
            '<?xml version="1.0" ?>', '<?xml version="1.0" encoding="ISO-8859-1"?>'
        )
        path = tmp_path / "latin1.fgl"
        path.write_bytes(declared.encode("latin-1"))
        layout = read_fgl(path)
        assert layout.name == "café"
        assert layout_to_fgl(layout) == text

    def test_unknown_declared_encoding_raises_fgl_error(self, tmp_path):
        path = tmp_path / "klingon.fgl"
        path.write_bytes(b'<?xml version="1.0" encoding="klingon"?><fgl/>')
        with pytest.raises(FglError):
            read_fgl(path)
