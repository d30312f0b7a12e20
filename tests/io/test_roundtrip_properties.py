"""Property-based round-trip tests for the .fgl/.qca/.sqd serialisers.

The fuzzing harness (``repro.qa``) checks round-trip fidelity on every
campaign run; these tests pin the same properties in tier-1 directly,
over hypothesis-generated layouts — including unicode element names,
empty layouts, and crossing-heavy circuits.
"""

import re

from hypothesis import given, settings, strategies as st

from repro.gatelibs import apply_bestagon, apply_qca_one
from repro.io import fgl_to_layout, fgl_to_layout_xml, layout_to_fgl
from repro.io.qca import cell_layout_to_qca, qca_to_cell_layout
from repro.io.sqd import sidb_layout_to_sqd, sqd_to_sidb_layout
from repro.layout import OPEN, TWODDWAVE, GateLayout, Tile
from repro.networks import GateType, LogicNetwork
from repro.networks.generators import GeneratorSpec, generate_network
from repro.networks.library import full_adder
from repro.optimization import to_hexagonal
from repro.physical_design import OrthoParams, orthogonal_layout

#: XML- and line-format-safe unicode names: printable, no control or
#: surrogate code points, no XML-hostile whitespace.
names = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters="\n\r"
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


def fgl_stable(layout: GateLayout) -> None:
    text = layout_to_fgl(layout)
    restored = fgl_to_layout(text)
    assert layout.structural_diff(restored) is None
    assert layout_to_fgl(restored) == text


class TestFglProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_generated_layouts_roundtrip_byte_stable(self, seed):
        net = generate_network(GeneratorSpec("p", 4, 2, 18, seed=seed))
        layout = orthogonal_layout(net).layout
        fgl_stable(layout)

    @given(pi_name=names, po_name=names, layout_name=names)
    @settings(max_examples=20, deadline=None)
    def test_unicode_names_survive(self, pi_name, po_name, layout_name):
        layout = GateLayout(2, 1, TWODDWAVE, name=layout_name)
        source = layout.create_pi(Tile(0, 0), pi_name)
        layout.create_po(Tile(1, 0), source, po_name)
        restored = fgl_to_layout(layout_to_fgl(layout))
        assert restored.name == layout_name
        assert restored.get(Tile(0, 0)).name == pi_name
        assert restored.get(Tile(1, 0)).name == po_name
        fgl_stable(layout)

    def test_empty_layout_roundtrips(self):
        layout = GateLayout(3, 3, TWODDWAVE, name="empty")
        restored = fgl_to_layout(layout_to_fgl(layout))
        assert layout.structural_diff(restored) is None
        assert restored.width == 3 and restored.height == 3

    def test_crossing_heavy_layout_roundtrips(self):
        layout = orthogonal_layout(full_adder()).layout
        assert layout.num_crossings() > 0
        fgl_stable(layout)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_sparse_ortho_roundtrips(self, seed):
        net = generate_network(GeneratorSpec("s", 5, 2, 20, seed=seed))
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        fgl_stable(layout)


def non_canonical_variants(text: str) -> list[str]:
    """The same document spelled as the writer never spells it: half
    the indentation, and attributes on the root and on every gate."""
    reindented = re.sub(r"(?m)^( +)", lambda m: " " * (len(m.group(1)) // 2), text)
    attributed = text.replace("<fgl>", '<fgl generator="test">').replace(
        "<gate>", '<gate kind="fixture">'
    )
    return [reindented, attributed]


def tiers_agree(layout: GateLayout) -> None:
    """Canonical text and its variants read to the writer's bytes
    through ``fgl_to_layout`` (scanner first) and the XML tier alone."""
    text = layout_to_fgl(layout)
    for variant in [text, *non_canonical_variants(text)]:
        assert layout_to_fgl(fgl_to_layout(variant)) == text
        assert layout_to_fgl(fgl_to_layout_xml(variant)) == text


class TestFglReaderTiers:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_generated_layouts(self, seed):
        net = generate_network(GeneratorSpec("t", 4, 2, 18, seed=seed))
        layout = orthogonal_layout(net).layout
        tiers_agree(layout)
        tiers_agree(to_hexagonal(layout).layout)

    @given(pi_name=names, po_name=names, layout_name=names)
    @settings(max_examples=20, deadline=None)
    def test_unicode_names(self, pi_name, po_name, layout_name):
        layout = GateLayout(2, 1, TWODDWAVE, name=layout_name)
        source = layout.create_pi(Tile(0, 0), pi_name)
        layout.create_po(Tile(1, 0), source, po_name)
        tiers_agree(layout)

    @given(clocks=st.lists(st.integers(0, 3), min_size=3, max_size=3))
    @settings(max_examples=10, deadline=None)
    def test_open_clocking_zones(self, clocks):
        layout = GateLayout(3, 1, OPEN, name="open")
        for x, clock in enumerate(clocks):
            layout.assign_zone(Tile(x, 0), clock)
        source = layout.create_pi(Tile(0, 0), "a")
        wire = layout.create_wire(Tile(1, 0), source)
        layout.create_po(Tile(2, 0), wire, "f")
        tiers_agree(layout)


class TestQcaProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=8, deadline=None)
    def test_cell_map_roundtrips(self, seed):
        net = generate_network(GeneratorSpec("q", 4, 2, 14, seed=seed))
        cells = apply_qca_one(orthogonal_layout(net).layout)
        restored = qca_to_cell_layout(cell_layout_to_qca(cells))
        assert {
            p: (c.cell_type, c.label or None) for p, c in restored.cells.items()
        } == {p: (c.cell_type, c.label or None) for p, c in cells.cells.items()}

    @given(pi_name=names, po_name=names)
    @settings(max_examples=15, deadline=None)
    def test_unicode_pin_labels_survive(self, pi_name, po_name):
        net = LogicNetwork("labels")
        a = net.create_pi(pi_name)
        b = net.create_pi(pi_name + "2")
        net.create_po(net.create_and(a, b), po_name)
        cells = apply_qca_one(orthogonal_layout(net).layout)
        restored = qca_to_cell_layout(cell_layout_to_qca(cells))
        labels = {c.label for c in restored.cells.values() if c.label}
        assert pi_name in labels
        assert po_name in labels


class TestSqdProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_dots_and_labels_roundtrip(self, seed):
        net = generate_network(GeneratorSpec("h", 3, 2, 10, seed=seed))
        layout = to_hexagonal(orthogonal_layout(net).layout).layout
        cells = apply_bestagon(layout)
        restored = sqd_to_sidb_layout(sidb_layout_to_sqd(cells))
        assert set(restored.dots) == set(cells.dots)
        assert restored.input_labels == cells.input_labels
        assert restored.output_labels == cells.output_labels

    @given(pi_name=names, po_name=names)
    @settings(max_examples=15, deadline=None)
    def test_unicode_labels_survive(self, pi_name, po_name):
        net = LogicNetwork("labels")
        a = net.create_pi(pi_name)
        net.create_po(net.create_not(a), po_name)
        layout = to_hexagonal(orthogonal_layout(net).layout).layout
        cells = apply_bestagon(layout)
        restored = sqd_to_sidb_layout(sidb_layout_to_sqd(cells))
        assert pi_name in restored.input_labels.values()
        assert po_name in restored.output_labels.values()
