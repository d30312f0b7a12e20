"""Tests for the exact search's undo log (O(1) snapshot/rollback).

The optimized exact search places, routes and backtracks on a
search-local :class:`~repro.physical_design.exact._SearchState` instead
of a :class:`GateLayout`.  These tests pin down that a rollback restores
its complete observable state — both occupancy layers, the free-tile
counters, the occupancy hash and the surviving ops — bit for bit.
"""

import pytest

from repro.layout import TWODDWAVE, Tile, Topology
from repro.networks import GateType
from repro.physical_design.exact import _SearchState


def _state(state: _SearchState):
    return (
        [list(layer) for layer in state._grid],
        state.occupancy_hash,
        state.num_free_ground(),
        state.num_free_border(),
        [entry[3] for entry in state._log],
    )


def small_state():
    return _SearchState(5, 5, TWODDWAVE, Topology.CARTESIAN)


class TestSnapshotRollback:
    def test_rollback_undoes_placements(self):
        state = small_state()
        a = Tile(0, 0)
        state.create_pi(a, "a")
        before = _state(state)
        mark = state.snapshot()
        b, w = Tile(0, 1), Tile(1, 0)
        state.create_pi(b, "b")
        state.create_wire(w, a)
        state.create_gate(GateType.AND, Tile(1, 1), [w, b], "g")
        state.rollback(mark)
        assert _state(state) == before

    def test_nested_snapshots_unwind_lifo(self):
        state = small_state()
        state.create_pi(Tile(0, 0), "a")
        outer_state = _state(state)
        outer = state.snapshot()
        state.create_pi(Tile(0, 1), "b")
        inner_state = _state(state)
        inner = state.snapshot()
        state.create_pi(Tile(0, 2), "c")
        state.rollback(inner)
        assert _state(state) == inner_state
        state.rollback(outer)
        assert _state(state) == outer_state

    def test_rollback_restores_crossings(self):
        state = small_state()
        a, w = Tile(0, 1), Tile(1, 1)
        state.create_pi(a, "a")
        state.create_wire(w, a)
        before = _state(state)
        mark = state.snapshot()
        state.create_wire(Tile(1, 1, 1), w)
        assert state._grid[1][1 * 5 + 1] is not None
        assert state.num_free_ground() == before[2]  # crossings are not ground
        state.rollback(mark)
        assert _state(state) == before
        assert state._grid[1][1 * 5 + 1] is None


class TestJournalGuards:
    def test_stale_mark_rejected(self):
        state = small_state()
        mark = state.snapshot()
        with pytest.raises(ValueError):
            state.rollback(mark + 1)

    def test_digest_stable_under_rollback(self):
        state = small_state()
        a, w = Tile(0, 0), Tile(1, 0)
        state.create_pi(a, "a")
        digest = state.occupancy_hash
        mark = state.snapshot()
        state.create_wire(w, a)
        assert state.occupancy_hash != digest
        state.rollback(mark)
        assert state.occupancy_hash == digest
        # Re-doing the identical placement reproduces the identical hash,
        # and a wire hashes apart from a non-wire element on that tile.
        state.create_wire(w, a)
        redo = state.occupancy_hash
        state.rollback(mark)
        state.create_pi(w, "b")
        assert state.occupancy_hash not in (digest, redo)
        state.rollback(mark)
        state.create_wire(w, a)
        assert state.occupancy_hash == redo
