"""Tests for the design-rule checker."""

import pytest

from repro.layout import GateLayout, ROW, TWODDWAVE, Tile, check_layout
from repro.layout.gate_layout import LayoutGate
from repro.networks import GateType


def _and2() -> GateLayout:
    """The clean 2DDWave AND layout of the ``and_layout`` fixture."""
    layout = GateLayout(3, 2, TWODDWAVE, name="and2")
    a = layout.create_pi(Tile(1, 0), "a")
    b = layout.create_pi(Tile(0, 1), "b")
    g = layout.create_gate(GateType.AND, Tile(1, 1), [a, b])
    layout.create_po(Tile(2, 1), g, "f")
    return layout


def missing_po() -> GateLayout:
    lay = GateLayout(3, 3, TWODDWAVE)
    lay.create_pi(Tile(0, 0))
    return lay


def clocking_violation() -> GateLayout:
    lay = GateLayout(4, 4, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    # West-flowing wire: (0,0) zone 0 feeding (1,0) zone 1 is fine,
    # but (1,1) zone 2 feeding (1,0) zone 1 is a violation.
    w = lay.create_wire(Tile(1, 0), a)
    b = lay.create_wire(Tile(1, 1), w)
    lay.create_po(Tile(2, 1), b)
    # manufacture violation: rewire w to read from b (backwards in clock)
    lay.replace_fanin(Tile(1, 0), a, b)
    lay.remove(Tile(0, 0))
    return lay


def non_adjacent_fanin() -> GateLayout:
    lay = GateLayout(5, 5, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    w = lay.create_wire(Tile(1, 0), a)
    lay.create_po(Tile(2, 0), w)
    lay.replace_fanin(Tile(2, 0), w, a)  # now reads a non-neighbour
    return lay


def arity_violation() -> GateLayout:
    layout = _and2()
    # Sneak in a malformed record through the private store.
    layout._tiles[Tile(2, 0)] = LayoutGate(GateType.AND, (Tile(1, 0),))
    return layout


def duplicate_fanin() -> GateLayout:
    lay = GateLayout(4, 4, TWODDWAVE)
    a = lay.create_pi(Tile(1, 0))
    lay._tiles[Tile(1, 1)] = LayoutGate(GateType.AND, (a, a))
    return lay


def fanout_capacity() -> GateLayout:
    lay = GateLayout(5, 5, TWODDWAVE)
    a = lay.create_pi(Tile(1, 1))
    lay.create_wire(Tile(2, 1), a)
    lay.create_wire(Tile(1, 2), a)
    return lay


def po_read() -> GateLayout:
    lay = GateLayout(4, 4, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    po = lay.create_po(Tile(1, 0), a)
    lay.create_wire(Tile(2, 0), po)
    return lay


def crossing_layer_gate() -> GateLayout:
    lay = GateLayout(4, 4, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    lay._tiles[Tile(1, 0, 1)] = LayoutGate(GateType.NOT, (a,))
    return lay


def unread_gate() -> GateLayout:
    layout = _and2()
    layout.remove(Tile(2, 1))
    return layout


def border_io() -> GateLayout:
    lay = GateLayout(5, 5, ROW)
    a = lay.create_pi(Tile(2, 2))
    lay.create_po(Tile(2, 3), a)
    return lay


def same_side_entry() -> GateLayout:
    lay = GateLayout(4, 4, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    b = lay.create_pi(Tile(0, 1))
    w_ground = lay.create_wire(Tile(1, 0), a)
    w_above = lay.create_gate(GateType.BUF, Tile(1, 0, 1), [b])
    # An AND whose fanins both arrive from the west side (z=0 and z=1).
    lay._tiles[Tile(2, 0)] = LayoutGate(GateType.AND, (w_ground, w_above))
    return lay


def many_rules() -> GateLayout:
    """One layout breaking every rule family at once, so the order the
    rules report in is pinned too."""
    lay = GateLayout(6, 6, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    b = lay.create_pi(Tile(0, 2))
    w = lay.create_wire(Tile(1, 0), a)
    lay.create_wire(Tile(0, 1), a)
    above = lay.create_gate(GateType.BUF, Tile(1, 0, 1), [a])  # a drives 3
    x = lay.create_wire(Tile(1, 1), Tile(0, 1))
    y = lay.create_wire(Tile(2, 1), x)
    lay.replace_fanin(x, Tile(0, 1), y)  # clocking, cycle
    tiles = lay._tiles
    tiles[Tile(2, 0)] = LayoutGate(GateType.AND, (w, above))  # same side
    tiles[Tile(4, 4)] = LayoutGate(GateType.OR, (b,))  # arity, adjacency
    tiles[Tile(0, 3, 1)] = LayoutGate(GateType.NOT, (b,))  # crossings
    tiles[Tile(1, 2)] = LayoutGate(GateType.BUF, (Tile(2, 2),))  # empty fanin
    return lay


#: builder -> (violations, warnings), text and order as reported.
PINNED = {
    missing_po: (
        [
            "layout has no primary outputs",
        ],
        [
            "(0,0,0): pi output is unread",
        ],
    ),
    clocking_violation: (
        [
            "(1,0,0) (zone 1): fanin (1,1,0) (zone 2) violates clocking",
            "(1,1,0): buf drives 2 readers",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [
            "layout has no primary inputs",
        ],
    ),
    non_adjacent_fanin: (
        [
            "(2,0,0): fanin (0,0,0) is not adjacent",
            "(2,0,0) (zone 2): fanin (0,0,0) (zone 0) violates clocking",
            "(0,0,0): pi drives 2 readers",
        ],
        [
            "(1,0,0): buf output is unread",
        ],
    ),
    arity_violation: (
        [
            "(2,0,0): and has 1 fanins, expected 2",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [],
    ),
    duplicate_fanin: (
        [
            "(1,1,0): duplicate fanin references",
            "(1,1,0): multiple fanins enter through the same side",
            "layout has no primary outputs",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [],
    ),
    fanout_capacity: (
        [
            "(1,1,0): pi drives 2 readers",
            "layout has no primary outputs",
        ],
        [
            "(2,1,0): buf output is unread",
            "(1,2,0): buf output is unread",
        ],
    ),
    po_read: (
        [
            "(1,0,0): PO is read by 1 tile(s)",
        ],
        [
            "(2,0,0): buf output is unread",
        ],
    ),
    crossing_layer_gate: (
        [
            "(1,0,1): crossing layer hosts not",
            "(1,0,1): crossing wire above an empty ground tile",
            "layout has no primary outputs",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [],
    ),
    unread_gate: (
        [
            "layout has no primary outputs",
        ],
        [
            "(1,1,0): and output is unread",
        ],
    ),
    border_io: (
        [],
        [
            "(2,2,0): I/O pad not on the layout border",
            "(2,3,0): I/O pad not on the layout border",
        ],
    ),
    same_side_entry: (
        [
            "(1,0,1): fanin (0,1,0) is not adjacent",
            "(2,0,0): multiple fanins enter through the same side",
            "(1,0,1) (zone 1): fanin (0,1,0) (zone 1) violates clocking",
            "layout has no primary outputs",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [],
    ),
    many_rules: (
        [
            "(4,4,0): or has 1 fanins, expected 2",
            "(4,4,0): fanin (0,2,0) is not adjacent",
            "(1,2,0): fanin (2,2,0) is an empty tile",
            "(2,0,0): multiple fanins enter through the same side",
            "(1,1,0) (zone 2): fanin (2,1,0) (zone 3) violates clocking",
            "(4,4,0) (zone 0): fanin (0,2,0) (zone 2) violates clocking",
            "(0,0,0): pi drives 3 readers",
            "(0,3,1): crossing layer hosts not",
            "(0,3,1): crossing wire above an empty ground tile",
            "layout has no primary outputs",
            "layout connectivity contains a cycle or dangling fanin",
        ],
        [],
    ),
}


@pytest.mark.parametrize("build", PINNED, ids=lambda build: build.__name__)
def test_drc_messages_pinned(build):
    report = check_layout(build(), require_border_io=build is border_io)
    assert (report.violations, report.warnings) == PINNED[build]


def test_clean_layout(and_layout):
    layout, _ = and_layout
    report = check_layout(layout)
    assert report.ok
    assert bool(report)
    assert report.summary() == "DRC clean"


def test_missing_po_flagged():
    report = check_layout(missing_po())
    assert not report.ok
    assert any("no primary outputs" in v for v in report.violations)


def test_clocking_violation_flagged():
    report = check_layout(clocking_violation())
    assert any("violates clocking" in v for v in report.violations)


def test_non_adjacent_fanin_flagged():
    report = check_layout(non_adjacent_fanin())
    assert any("not adjacent" in v for v in report.violations)


def test_arity_violation_flagged():
    report = check_layout(arity_violation())
    assert any("expected 2" in v for v in report.violations)


def test_duplicate_fanin_flagged():
    report = check_layout(duplicate_fanin())
    assert any("duplicate fanin" in v for v in report.violations)


def test_fanout_capacity():
    report = check_layout(fanout_capacity())
    assert any("drives 2 readers" in v for v in report.violations)


def test_fanout_tile_allows_two_readers():
    lay = GateLayout(5, 5, TWODDWAVE)
    a = lay.create_pi(Tile(0, 1))
    fo = lay.create_gate(GateType.FANOUT, Tile(1, 1), [a])
    w1 = lay.create_wire(Tile(2, 1), fo)
    w2 = lay.create_wire(Tile(1, 2), fo)
    lay.create_po(Tile(3, 1), w1)
    lay.create_po(Tile(1, 3), w2)
    report = check_layout(lay)
    assert report.ok, report.summary()


def test_po_must_not_be_read():
    report = check_layout(po_read())
    assert any("PO is read" in v for v in report.violations)


def test_crossing_layer_gate_flagged():
    report = check_layout(crossing_layer_gate())
    assert any("crossing layer hosts" in v for v in report.violations)


def test_unread_gate_warned():
    report = check_layout(unread_gate())
    assert any("unread" in w for w in report.warnings)


def test_border_io_warning():
    report = check_layout(border_io(), require_border_io=True)
    assert any("not on the layout border" in w for w in report.warnings)


def test_same_side_entry_flagged():
    report = check_layout(same_side_entry())
    assert any("same side" in v for v in report.violations)
