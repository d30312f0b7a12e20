"""Regression tests: route → unroute round-trips restore the layout.

Backtracking search relies on unroute undoing exactly what route did —
including crossing-layer segments and chains that end next to shared
fanout stubs.  These tests snapshot the full layout state and require a
bit-for-bit restore.
"""

import pytest

from repro.layout import GateLayout, TWODDWAVE, Tile
from repro.physical_design import RoutingOptions, route, unroute


def _state(layout: GateLayout):
    """Full observable layout state, for bit-exact comparisons."""
    return (
        dict(layout._tiles),
        layout.pis(),
        layout.pos(),
        {k: list(v) for k, v in layout._readers.items() if v},
        layout.num_free_ground(),
        layout.num_free_border(),
    )


class TestRoundTrip:
    def test_ground_route_round_trip(self):
        layout = GateLayout(5, 5, TWODDWAVE)
        source = layout.create_pi(Tile(0, 0), "a")
        before = _state(layout)
        end = route(layout, source, Tile(4, 4))
        assert end is not None and end != source
        assert _state(layout) != before
        unroute(layout, end, source)
        assert _state(layout) == before

    def test_adjacent_route_round_trip(self):
        layout = GateLayout(4, 4, TWODDWAVE)
        source = layout.create_pi(Tile(1, 1), "a")
        before = _state(layout)
        end = route(layout, source, Tile(2, 1))
        assert end == source  # no wires materialised
        unroute(layout, end, source)
        assert _state(layout) == before

    def test_crossing_route_round_trip(self):
        layout = GateLayout(5, 5, TWODDWAVE)
        vertical_src = layout.create_pi(Tile(2, 0), "v")
        vertical_end = route(layout, vertical_src, Tile(2, 4))
        assert vertical_end is not None
        after_first = _state(layout)

        horizontal_src = layout.create_pi(Tile(0, 2), "h")
        before_second = _state(layout)
        horizontal_end = route(layout, horizontal_src, Tile(4, 2))
        assert horizontal_end is not None
        # The horizontal wire must jump the vertical one on layer 1.
        crossing = Tile(2, 2, 1)
        assert layout.get(crossing) is not None
        unroute(layout, horizontal_end, horizontal_src)
        assert layout.get(crossing) is None
        assert _state(layout) == before_second

        layout.remove(horizontal_src)
        assert _state(layout) == after_first

    def test_unroute_preserves_shared_prefix(self):
        # a ── w1 ── w2 ── (two readers); unrouting one branch must stop
        # at the shared stub instead of tearing the whole chain down.
        layout = GateLayout(6, 6, TWODDWAVE)
        src = layout.create_pi(Tile(0, 0), "a")
        w1 = layout.create_wire(Tile(1, 0), src)
        branch_a = layout.create_wire(Tile(2, 0), w1)
        branch_b = layout.create_wire(Tile(1, 1), w1)
        before = _state(layout)
        tail = layout.create_wire(Tile(3, 0), branch_a)
        unroute(layout, tail, src)
        # branch_a had only this reader, so it goes too — but w1 feeds
        # branch_b and must survive.
        assert layout.get(w1) is not None
        assert layout.get(branch_b) is not None
        assert layout.get(branch_a) is None
        expected = _state(layout)
        assert expected[0].keys() == before[0].keys() - {branch_a}

    def test_unroute_terminates_on_wire_cycle(self):
        # Malformed feedback chains (possible on USE/RES-style schemes
        # after manual edits) must not hang the cycle guard.
        layout = GateLayout(4, 4, TWODDWAVE)
        src = layout.create_pi(Tile(0, 0), "a")
        w1 = layout.create_wire(Tile(1, 0), src)
        w2 = layout.create_wire(Tile(2, 0), w1)
        layout.replace_fanin(w1, src, w2)  # w1 ↔ w2 cycle
        unroute(layout, w2, Tile(3, 3))  # unreachable source: must stop
        assert layout.get(src) is not None

    def test_unroute_accepts_plain_tuples(self):
        layout = GateLayout(5, 5, TWODDWAVE)
        source = layout.create_pi(Tile(0, 0), "a")
        before = _state(layout)
        end = route(layout, source, Tile(3, 3))
        unroute(layout, (end.x, end.y, end.z), (0, 0))
        assert _state(layout) == before


class TestSearchStyleRoundTrip:
    @pytest.mark.parametrize("allow_crossings", [True, False])
    def test_route_with_avoid_round_trips(self, allow_crossings):
        layout = GateLayout(6, 6, TWODDWAVE)
        src = layout.create_pi(Tile(0, 1), "a")
        blocker = layout.create_pi(Tile(2, 1), "b")
        before = _state(layout)
        options = RoutingOptions(
            allow_crossings=allow_crossings, avoid=frozenset({Tile(1, 2)})
        )
        end = route(layout, src, Tile(4, 3), options)
        assert end is not None
        assert Tile(1, 2) not in layout._tiles
        unroute(layout, end, src)
        assert _state(layout) == before
        assert layout.get(blocker) is not None
