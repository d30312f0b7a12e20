"""Bulk adoption of valid rows and the memoized sign-off order.

``GateLayout._adopt`` commits rows a caller has already checked: the
canonical ``.fgl`` reader (rows that read only earlier rows) and the
wiring-reduction rebuild.  It must leave exactly the indices one
``create_*`` call per row leaves — ``_tiles`` and ``_readers`` in the
same order, the same grid, interface lists and occupancy counters.
Texts the bulk path cannot take keep the per-row build and its
:class:`FglError`; ``create_wire_run`` commits inline and keeps its
errors; and the topological order a sign-off memoizes is dropped by
every mutation.
"""

from unittest import mock

import pytest

from repro.benchsuite import get_benchmark
from repro.io import fgl as fgl_module
from repro.io.fgl import FglError, fgl_to_layout, fgl_to_layout_xml, layout_to_fgl
from repro.io.fgl import scan_canonical
from repro.layout import GateLayout, OPEN, TWODDWAVE, Tile, check_layout
from repro.layout.equivalence import verify_layout
from repro.layout.gate_layout import is_sparse_area
from repro.networks import GateType, LogicNetwork, decompose_to_aoig, prepare_for_layout
from repro.networks.library import mux21
from repro.optimization import (
    PostLayoutParams,
    post_layout_optimization,
    to_hexagonal,
    wiring_reduction,
)
from repro.physical_design import OrthoParams, orthogonal_layout
from repro.qa.oracles import derived_index_diff
from tests.optimization.test_plo_golden import SMALL_GOLDEN, _small_case


def _networks():
    """The library and fuzz networks of the PLO/wiring-reduction goldens."""
    for case in SMALL_GOLDEN:
        network, compact = _small_case(case[0])
        name = case[0]
        yield name if isinstance(name, str) else f"{name[0]}-{name[4]}", network, compact


def _layouts():
    """Ortho, PLO, wiring-reduction and hexagonal layouts of each network."""
    for label, network, compact in _networks():
        ortho = orthogonal_layout(network, OrthoParams(compact=compact)).layout
        optimized = post_layout_optimization(ortho).layout
        yield f"{label}-ortho", ortho
        yield f"{label}-plo", optimized
        yield f"{label}-wr", wiring_reduction(optimized).layout
        yield f"{label}-hex", to_hexagonal(ortho).layout


LAYOUTS = dict(_layouts())


def _sparse_layout() -> GateLayout:
    """A small circuit on a canvas above ``DENSE_AREA_LIMIT``."""
    layout = GateLayout(1100, 1000, TWODDWAVE, name="sparse")
    assert is_sparse_area(layout.width, layout.height)
    a = layout.create_pi(Tile(0, 1), "a")
    b = layout.create_pi(Tile(1, 0), "b")
    g = layout.create_gate(GateType.AND, Tile(1, 1), [a, b])
    w = layout.create_wire(Tile(2, 1), g)
    layout.create_po(Tile(3, 1), w, "f")
    return layout


def _per_tile(text: str) -> GateLayout:
    """``text`` read with one ``create_*`` call per row, as before."""
    columns = scan_canonical(text)
    assert columns is not None
    layout = fgl_module._new_layout(
        columns.name, columns.topology, columns.width, columns.height,
        columns.scheme, columns.zones,
    )
    return fgl_module._place_records(layout, columns.records())


def _assert_same_indices(bulk: GateLayout, per_tile: GateLayout) -> None:
    assert bulk.structural_diff(per_tile) is None
    assert derived_index_diff(bulk, per_tile) is None
    assert (bulk._pis, bulk._pos) == (per_tile._pis, per_tile._pos)


@pytest.mark.parametrize("label", sorted(LAYOUTS))
def test_canonical_read_adopts_like_the_per_tile_build(label):
    text = layout_to_fgl(LAYOUTS[label])
    with mock.patch.object(fgl_module, "_place_records") as per_row:
        bulk = fgl_to_layout(text)
    per_row.assert_not_called()
    _assert_same_indices(bulk, _per_tile(text))
    _assert_same_indices(bulk, fgl_to_layout_xml(text))


def test_sparse_canonical_read_adopts_like_the_per_tile_build():
    text = layout_to_fgl(_sparse_layout())
    bulk = fgl_to_layout(text)
    assert bulk.uses_sparse_grid()
    _assert_same_indices(bulk, _per_tile(text))


def test_open_clocked_read_adopts_like_the_per_tile_build(and_layout):
    layout, _ = and_layout
    open_layout = GateLayout(layout.width, layout.height, OPEN, name="open")
    for tile, _gate in layout.tiles():
        open_layout.assign_zone(tile, layout.zone(tile))
    for tile, gate in layout.tiles():
        fgl_module._create(open_layout, (0, gate.gate_type, gate.name, tile, gate.fanins))
    text = layout_to_fgl(open_layout)
    _assert_same_indices(fgl_to_layout(text), _per_tile(text))


def _per_tile_copy(layout: GateLayout) -> GateLayout:
    """The rows of ``layout`` placed one ``create_*`` call each, in its
    tile order, with its interface order."""
    copy = GateLayout(
        layout.width, layout.height, layout.scheme, layout.topology, layout.name
    )
    for tile, gate in layout.tiles():
        fgl_module._create(copy, (0, gate.gate_type, gate.name, tile, gate.fanins))
    copy._pis, copy._pos = layout.pis(), layout.pos()
    return copy


#: The PLO layouts wiring reduction deletes lines of (the others it
#: only clones, in their PLO tile order, which is not topological).
REDUCED = sorted(
    label for label, result in (
        (label, wiring_reduction(layout))
        for label, layout in LAYOUTS.items() if label.endswith("-plo")
    )
    if result.rows_deleted + result.columns_deleted
)


def test_some_wiring_reduction_deletes_lines():
    """The rebuild parity below is not vacuous."""
    assert len(REDUCED) >= 2


@pytest.mark.parametrize("label", REDUCED)
def test_wiring_reduction_rebuild_adopts_like_the_per_tile_build(label):
    reduced = wiring_reduction(LAYOUTS[label]).layout
    _assert_same_indices(reduced, _per_tile_copy(reduced))


def test_c432_rebuild_and_read_adopt_like_the_per_tile_build():
    """The full c432 path the optimize phase takes: read, PLO, wiring
    reduction (14 columns), read again."""
    spec = get_benchmark("iscas85", "c432")
    network = prepare_for_layout(decompose_to_aoig(spec.build(None)))
    ortho = orthogonal_layout(network).layout
    text = layout_to_fgl(ortho)
    _assert_same_indices(fgl_to_layout(text), _per_tile(text))
    optimized = post_layout_optimization(
        fgl_to_layout(text), PostLayoutParams(max_passes=8, timeout=None)
    ).layout
    result = wiring_reduction(optimized)
    assert result.columns_deleted == 14
    _assert_same_indices(result.layout, _per_tile_copy(result.layout))
    reduced_text = layout_to_fgl(result.layout)
    _assert_same_indices(fgl_to_layout(reduced_text), _per_tile(reduced_text))


def _border_count(layout: GateLayout) -> int:
    w, h = layout.width, layout.height
    return sum(
        1 for x, y, z in layout._tiles
        if z == 0 and (x in (0, w - 1) or y in (0, h - 1))
    )


def _edge_layout(width: int, height: int) -> GateLayout:
    """Pads on every edge and corner, and one crossing on the border."""
    layout = GateLayout(width, height, TWODDWAVE)
    right, bottom = width - 1, height - 1
    for x, y in ((0, 0), (right, 0), (0, bottom), (right, bottom), (1, 0),
                 (right, 1), (2, bottom), (0, 2), (2, 2)):
        layout.create_pi(Tile(x, y))
    layout.create_wire(Tile(0, 2, 1), Tile(0, 0))
    return layout


@pytest.mark.parametrize("size", [(5, 4), (1100, 1000)], ids=["dense", "sparse"])
def test_resize_recounts_the_border_like_the_per_tile_build(size):
    layout = _edge_layout(*size)
    assert layout.uses_sparse_grid() == is_sparse_area(*size)
    expected = _border_count(layout)
    assert layout._border_occupied == expected == 8
    for width, height in ((size[0], size[1]), (size[0] + 1, size[1]),
                          (size[0], size[1] + 2)):
        layout.resize(width, height)
        assert layout._border_occupied == _border_count(layout)
        assert layout._ground_occupied == 9
    layout.shrink_to_fit()
    assert layout._border_occupied == _border_count(layout) == expected


def test_resize_recounts_single_row_and_column_grids():
    for width, height in ((4, 1), (1, 4), (1, 1)):
        layout = GateLayout(4, 4, TWODDWAVE)
        for x in range(width):
            for y in range(height):
                layout.create_pi(Tile(x, y))
        layout.resize(width, height)
        assert layout._border_occupied == width * height
        assert layout.num_free_border() == 0


# -- texts the bulk path leaves to the per-row build --------------------------


def _wire_chain_text() -> str:
    layout = GateLayout(4, 1, TWODDWAVE, name="chain")
    a = layout.create_pi(Tile(0, 0), "a")
    w = layout.create_wire(Tile(1, 0), a)
    w = layout.create_wire(Tile(2, 0), w)
    layout.create_po(Tile(3, 0), w, "f")
    return layout_to_fgl(layout)


def _gate_blocks(text: str) -> tuple[str, list[str], str]:
    head, rest = text.split("    <gates>\n")
    body, tail = rest.split("    </gates>\n")
    blocks = [b + "        </gate>\n" for b in body.split("        </gate>\n")[:-1]]
    return head + "    <gates>\n", blocks, "    </gates>\n" + tail


def _renumbered(head: str, blocks: list[str], tail: str) -> str:
    out = []
    for index, block in enumerate(blocks):
        start = block.index("<id>") + len("<id>")
        end = block.index("</id>")
        out.append(block[:start] + str(index) + block[end:])
    return head + "".join(out) + tail


def test_rows_reading_a_later_row_take_the_per_row_build():
    text = _wire_chain_text()
    head, blocks, tail = _gate_blocks(text)
    # PI, wire, wire, PO -> PI, PO, wire, wire: the PO reads a later row.
    shuffled = _renumbered(head, [blocks[0], blocks[3], blocks[1], blocks[2]], tail)
    assert scan_canonical(shuffled) is not None
    with mock.patch.object(
        fgl_module, "_place_records", wraps=fgl_module._place_records
    ) as per_row:
        layout = fgl_to_layout(shuffled)
    per_row.assert_called_once()
    assert layout.structural_diff(fgl_to_layout(text)) is None
    assert derived_index_diff(layout, fgl_to_layout_xml(shuffled)) is None


def test_dangling_fanin_raises_the_per_row_error():
    text = _wire_chain_text()
    # The PO reads (2,0,0); point it at the empty crossing tile above.
    head, blocks, tail = _gate_blocks(text)
    po = blocks[3].replace(
        "<x>2</x>\n                    <y>0</y>\n                    <z>0</z>",
        "<x>2</x>\n                    <y>0</y>\n                    <z>1</z>",
    )
    assert po != blocks[3]
    broken = head + "".join(blocks[:3] + [po]) + tail
    assert scan_canonical(broken) is not None
    with pytest.raises(FglError) as canonical:
        fgl_to_layout(broken)
    with pytest.raises(FglError) as xml:
        fgl_to_layout_xml(broken)
    assert str(canonical.value) == str(xml.value)
    assert "unresolvable fanins" in str(canonical.value)


# -- create_wire_run ----------------------------------------------------------


def _run_layout() -> tuple[GateLayout, Tile]:
    layout = GateLayout(5, 3, TWODDWAVE)
    return layout, layout.create_pi(Tile(0, 0), "a")


def test_wire_run_matches_per_tile_wires():
    layout, a = _run_layout()
    blocker = layout.create_wire(Tile(2, 1), layout.create_wire(Tile(1, 1), a))
    end = layout.create_wire_run([(1, 0), (2, 0), (2, 1), (3, 1)], a)
    reference, a2 = _run_layout()
    reference.create_wire(Tile(2, 1), reference.create_wire(Tile(1, 1), a2))
    previous = a2
    for tile in (Tile(1, 0), Tile(2, 0), Tile(2, 1, 1), Tile(3, 1)):
        previous = reference.create_wire(tile, previous)
    assert end == previous == Tile(3, 1)
    assert blocker == Tile(2, 1)
    _assert_same_indices(layout, reference)


def test_wire_run_rejects_an_empty_fanin():
    layout, _ = _run_layout()
    with pytest.raises(ValueError, match=r"fanin tile \(4,2,0\) of \(1,0,0\) is empty"):
        layout.create_wire_run([(1, 0)], Tile(4, 2))
    assert len(layout) == 1


@pytest.mark.parametrize("outside", [(5, 0), (9, 2), (-1, 0)])
def test_wire_run_rejects_an_out_of_bounds_segment_and_keeps_the_prefix(outside):
    layout, a = _run_layout()
    x, y = outside
    with pytest.raises(ValueError, match=rf"tile \({x},{y},0\) out of bounds"):
        layout.create_wire_run([(1, 0), (2, 0), outside], a)
    assert [t for t, _ in layout.tiles()] == [Tile(0, 0), Tile(1, 0), Tile(2, 0)]
    reference, a2 = _run_layout()
    reference.create_wire(Tile(2, 0), reference.create_wire(Tile(1, 0), a2))
    _assert_same_indices(layout, reference)


def test_wire_run_rejects_a_position_with_both_layers_taken():
    layout, a = _run_layout()
    layout.create_wire_run([(1, 0), (1, 1)], a)
    b = layout.create_pi(Tile(0, 1), "b")
    with pytest.raises(ValueError, match=r"tile \(1,1,1\) already occupied"):
        layout.create_wire_run([(1, 1), (1, 1)], b)
    # The first segment crossed over (1,1); the second found both taken.
    assert layout.get(Tile(1, 1, 1)).fanins == (b,)
    assert len(layout) == 5


# -- the memoized sign-off order ----------------------------------------------


def _chain_layout():
    layout = GateLayout(4, 1, TWODDWAVE, name="chain")
    a = layout.create_pi(Tile(0, 0), "a")
    w1 = layout.create_wire(Tile(1, 0), a)
    w2 = layout.create_wire(Tile(2, 0), w1)
    layout.create_po(Tile(3, 0), w2, "f")
    return layout, a, w1, w2


def _buffer_spec():
    spec = LogicNetwork("chain")
    spec.create_po(spec.create_pi("a"), "f")
    return spec


def test_cycle_made_after_a_sign_off_is_reported_by_the_next_drc():
    layout, a, w1, w2 = _chain_layout()
    drc, equivalence = verify_layout(layout, _buffer_spec())
    assert drc.ok and equivalence.equivalent
    layout.replace_fanin(w1, a, w2)  # w1 <- w2 <- w1
    report = check_layout(layout)
    assert "layout connectivity contains a cycle or dangling fanin" in report.violations
    with pytest.raises(ValueError, match="cycle"):
        layout.extract_network()


@pytest.mark.parametrize(
    "mutate", ["remove", "move", "place", "wire_run", "replace_fanin", "resize"]
)
def test_every_mutator_drops_the_memoized_order(mutate):
    layout, a, w1, w2 = _chain_layout()
    layout.resize(4, 2)
    first = layout._signoff_order()
    assert layout._signoff_order() is first
    if mutate == "remove":
        layout.remove(Tile(3, 0))
    elif mutate == "move":
        layout.move(Tile(3, 0), Tile(3, 1))
    elif mutate == "place":
        layout.create_wire(Tile(0, 1), a)
    elif mutate == "wire_run":
        layout.create_wire_run([(0, 1)], a)
    elif mutate == "replace_fanin":
        layout.replace_fanin(Tile(3, 0), w2, w1)
    else:
        layout.resize(5, 2)
    assert layout._order is None
    fresh = layout._signoff_order()
    assert fresh == layout.topological_tiles(layout.sparse_tiles())


def test_extraction_after_a_mutation_sees_the_new_logic():
    layout, a, w1, w2 = _chain_layout()
    spec = _buffer_spec()
    assert verify_layout(layout, spec)[1].equivalent
    layout.remove(w2)
    layout.create_gate(GateType.NOT, w2, [w1])
    drc, equivalence = verify_layout(layout, spec)
    assert drc.ok
    assert not equivalence.equivalent


def test_mux21_sign_off_sorts_once():
    layout = orthogonal_layout(prepare_for_layout(decompose_to_aoig(mux21()))).layout
    calls = []
    original = GateLayout.topological_tiles

    def counting(self, order_source=None):
        calls.append(order_source is not None)
        return original(self, order_source)

    with mock.patch.object(GateLayout, "topological_tiles", counting):
        drc, equivalence = verify_layout(layout, mux21())
    assert drc.ok and equivalence.equivalent
    assert calls == [True]
