"""Tests for the exact search's undo log (O(1) snapshot/rollback).

The optimized exact search places, routes and backtracks on a
search-local :class:`~repro.physical_design.exact._SearchState` instead
of a :class:`GateLayout`, addressing positions and fanin refs by flat
``z * width * height + y * width + x`` indices.  These tests pin down
that a rollback restores its complete observable state — both occupancy
layers, the free-tile counters, the occupancy hash and the surviving
log entries — bit for bit.
"""

import pytest

from repro.layout import TWODDWAVE, Topology
from repro.networks import GateType
from repro.physical_design.exact import _SearchState

W = 5
N = W * W


def _at(x: int, y: int, z: int = 0) -> int:
    return z * N + y * W + x


def _state(state: _SearchState):
    return (
        [list(layer) for layer in state._grid],
        state.occupancy_hash,
        state.num_free_ground(),
        state.num_free_border(),
        list(state._log),
    )


def small_state():
    return _SearchState(W, W, TWODDWAVE, Topology.CARTESIAN)


class TestSnapshotRollback:
    def test_rollback_undoes_placements(self):
        state = small_state()
        a = _at(0, 0)
        state.create_pi(a, "a")
        before = _state(state)
        mark = state.snapshot()
        b = _at(0, 1)
        state.create_pi(b, "b")
        w = state.create_wires([a, _at(1, 0), _at(1, 1)])
        state.create_gate(GateType.AND, _at(1, 1), [w, b], "g")
        state.rollback(mark)
        assert _state(state) == before

    def test_nested_snapshots_unwind_lifo(self):
        state = small_state()
        state.create_pi(_at(0, 0), "a")
        outer_state = _state(state)
        outer = state.snapshot()
        state.create_pi(_at(0, 1), "b")
        inner_state = _state(state)
        inner = state.snapshot()
        state.create_pi(_at(0, 2), "c")
        state.rollback(inner)
        assert _state(state) == inner_state
        state.rollback(outer)
        assert _state(state) == outer_state

    def test_rollback_restores_crossings(self):
        state = small_state()
        a = _at(0, 1)
        state.create_pi(a, "a")
        w = state.create_wires([a, _at(1, 1), _at(2, 1)])
        before = _state(state)
        mark = state.snapshot()
        assert state.create_wires([w, _at(1, 1, 1), _at(1, 2)]) == _at(1, 1, 1)
        assert state._grid[1][1 * W + 1] is not None
        assert state.num_free_ground() == before[2]  # crossings are not ground
        state.rollback(mark)
        assert _state(state) == before
        assert state._grid[1][1 * W + 1] is None


class TestJournalGuards:
    def test_stale_mark_rejected(self):
        state = small_state()
        mark = state.snapshot()
        with pytest.raises(ValueError):
            state.rollback(mark + 1)

    def test_digest_stable_under_rollback(self):
        state = small_state()
        a, w = _at(0, 0), _at(1, 0)
        state.create_pi(a, "a")
        digest = state.occupancy_hash
        mark = state.snapshot()
        state.create_wires([a, w, _at(2, 0)])
        assert state.occupancy_hash != digest
        state.rollback(mark)
        assert state.occupancy_hash == digest
        # Re-doing the identical placement reproduces the identical hash,
        # and a wire hashes apart from a non-wire element on that tile.
        state.create_wires([a, w, _at(2, 0)])
        redo = state.occupancy_hash
        state.rollback(mark)
        state.create_pi(w, "b")
        assert state.occupancy_hash not in (digest, redo)
        state.rollback(mark)
        state.create_wires([a, w, _at(2, 0)])
        assert state.occupancy_hash == redo
