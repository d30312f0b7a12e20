"""Tests for the clocking-aware A* router."""

import pytest

from repro.layout import GateLayout, OPEN, ROW, TWODDWAVE, USE, Tile, Topology
from repro.networks import GateType
from repro.physical_design import RoutingOptions, find_path, route, unroute


def straight_layout():
    lay = GateLayout(6, 6, TWODDWAVE)
    lay.create_pi(Tile(0, 0), "a")
    return lay


class TestFindPath:
    def test_straight_east(self):
        lay = straight_layout()
        path = find_path(lay, Tile(0, 0), Tile(3, 0))
        assert path == [Tile(0, 0), Tile(1, 0), Tile(2, 0), Tile(3, 0)]

    def test_staircase_length_is_manhattan(self):
        lay = straight_layout()
        path = find_path(lay, Tile(0, 0), Tile(3, 2))
        assert path is not None
        assert len(path) == 6  # Δx + Δy + 1

    def test_no_backwards_path_on_2ddwave(self):
        lay = GateLayout(6, 6, TWODDWAVE)
        lay.create_pi(Tile(3, 3))
        assert find_path(lay, Tile(3, 3), Tile(1, 3)) is None

    def test_feedback_on_use(self):
        lay = GateLayout(8, 8, USE)
        lay.create_pi(Tile(3, 1))
        # USE admits loops, so a westward target is reachable.
        path = find_path(lay, Tile(3, 1), Tile(1, 1))
        assert path is not None

    def test_empty_source_rejected(self):
        lay = straight_layout()
        with pytest.raises(ValueError):
            find_path(lay, Tile(5, 5), Tile(0, 0))

    def test_irregular_scheme_rejected(self):
        # OPEN assigns zones per tile; the router has no successor
        # tables for it, so it refuses up front (as exact_layout does).
        lay = GateLayout(4, 4, OPEN)
        lay.create_pi(Tile(0, 0), "a")
        with pytest.raises(ValueError, match="regular clocking scheme"):
            find_path(lay, Tile(0, 0), Tile(2, 0))
        with pytest.raises(ValueError, match="regular clocking scheme"):
            route(lay, Tile(0, 0), Tile(2, 0))
        assert not lay.is_occupied(Tile(1, 0))

    def test_same_tile_returns_none(self):
        lay = straight_layout()
        assert find_path(lay, Tile(0, 0), Tile(0, 0)) is None

    def test_blocked_by_gates_detours(self):
        lay = straight_layout()
        b = lay.create_pi(Tile(1, 1), "b")
        lay.create_gate(GateType.NOT, Tile(1, 0), [lay.get(Tile(0, 0)) and Tile(0, 0)])
        # (1,0) hosts a gate; path must detour south.
        path = find_path(lay, Tile(1, 1), Tile(3, 1))
        assert path is not None
        del b

    def test_crossing_over_wire(self):
        lay = GateLayout(6, 6, TWODDWAVE)
        a = lay.create_pi(Tile(1, 0), "a")
        b = lay.create_pi(Tile(0, 1), "b")
        # Vertical wire through (1,1).
        w = lay.create_wire(Tile(1, 1), a)
        lay.create_wire(Tile(1, 2), w)
        # Horizontal route from b must cross over (1,1).
        path = find_path(lay, b, Tile(3, 1))
        assert path is not None
        assert Tile(1, 1, 1) in path

    def test_crossing_disabled(self):
        lay = GateLayout(3, 6, TWODDWAVE)
        a = lay.create_pi(Tile(1, 0), "a")
        b = lay.create_pi(Tile(0, 1), "b")
        w = lay.create_wire(Tile(1, 1), a)
        for y in range(2, 6):
            w = lay.create_wire(Tile(1, y), w)
        options = RoutingOptions(allow_crossings=False)
        assert find_path(lay, b, Tile(2, 1), options) is None

    def test_avoid_positions(self):
        lay = straight_layout()
        options = RoutingOptions(avoid=frozenset({Tile(1, 0), Tile(0, 1)}))
        # Both first steps are forbidden.
        assert find_path(lay, Tile(0, 0), Tile(2, 2), options) is None

    def test_max_length_bound(self):
        lay = straight_layout()
        options = RoutingOptions(max_length=2)
        assert find_path(lay, Tile(0, 0), Tile(5, 0), options) is None
        assert find_path(lay, Tile(0, 0), Tile(2, 0), options) is not None

    def test_hexagonal_routing(self):
        lay = GateLayout(6, 8, ROW, Topology.HEXAGONAL_EVEN_ROW)
        lay.create_pi(Tile(2, 0))
        path = find_path(lay, Tile(2, 0), Tile(3, 4))
        assert path is not None
        for a, b in zip(path, path[1:]):
            assert lay.is_incoming_clocked(b.ground, a.ground) or b.ground == a.ground


class TestRouteAndUnroute:
    def test_route_materialises_wires(self):
        lay = straight_layout()
        ref = route(lay, Tile(0, 0), Tile(3, 0))
        assert ref == Tile(2, 0)
        assert lay.get(Tile(1, 0)).is_wire
        assert lay.get(Tile(2, 0)).is_wire

    def test_adjacent_route_needs_no_wires(self):
        lay = straight_layout()
        ref = route(lay, Tile(0, 0), Tile(1, 0))
        assert ref == Tile(0, 0)
        assert lay.num_wires() == 0

    def test_unroute_removes_chain(self):
        lay = straight_layout()
        ref = route(lay, Tile(0, 0), Tile(4, 0))
        unroute(lay, ref, Tile(0, 0))
        assert lay.num_wires() == 0
        assert lay.is_occupied(Tile(0, 0))

    def test_unroute_stops_at_read_wires(self):
        lay = straight_layout()
        ref = route(lay, Tile(0, 0), Tile(4, 0))
        # Attach a PO to an intermediate wire — it must survive unrouting.
        lay.create_po(Tile(2, 1), Tile(2, 0))
        unroute(lay, ref, Tile(0, 0))
        assert lay.is_occupied(Tile(2, 0))
        assert lay.is_occupied(Tile(1, 0))
        assert not lay.is_occupied(Tile(3, 0))

    def test_route_failure_returns_none(self):
        lay = GateLayout(6, 6, TWODDWAVE)
        lay.create_pi(Tile(3, 3))
        assert route(lay, Tile(3, 3), Tile(0, 0)) is None
