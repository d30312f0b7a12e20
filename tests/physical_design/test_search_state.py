"""Property tests for the exact search's flat search state.

Seeded random place/rollback sequences run on 2DDWave, USE and
hexagonal ROW grids.  After every rollback the incrementally maintained
occupancy lists, free-tile counters and occupancy hash must equal a
from-scratch recompute over the surviving placements, and
``materialize()`` must serialize to the same ``.fgl`` bytes as the same
placements applied directly to a :class:`GateLayout`.
"""

import random

import pytest

from repro.io.fgl import layout_to_fgl
from repro.layout import ROW, TWODDWAVE, USE, GateLayout, Tile, Topology
from repro.networks import GateType
from repro.physical_design.exact import _ELEMENT, _WIRE, _SearchState

GRIDS = [
    pytest.param(TWODDWAVE, Topology.CARTESIAN, 5, 4, id="2ddwave"),
    pytest.param(USE, Topology.CARTESIAN, 4, 6, id="use"),
    pytest.param(ROW, Topology.HEXAGONAL_EVEN_ROW, 5, 5, id="hex-row"),
]


def _recompute(state: _SearchState, placed):
    """Occupancy, hash and free counters derived from ``placed`` alone."""
    w, h = state.width, state.height
    n = w * h
    grid = [[None] * n, [None] * n]
    digest = ground = border = 0
    for tile, wire, _call in placed:
        index = tile.y * w + tile.x
        grid[tile.z][index] = _WIRE if wire else _ELEMENT
        widx = 2 * (tile.z * n + index)
        digest ^= state._zobrist[widx]
        if wire:
            digest ^= state._zobrist[widx + 1]
        if tile.z == 0:
            ground += 1
            border += tile.x in (0, w - 1) or tile.y in (0, h - 1)
    total_border = sum(
        1 for y in range(h) for x in range(w) if x in (0, w - 1) or y in (0, h - 1)
    )
    return grid, digest, n - ground, total_border - border


def _observed(state: _SearchState):
    return (
        [list(layer) for layer in state._grid],
        state.occupancy_hash,
        state.num_free_ground(),
        state.num_free_border(),
    )


def _random_call(rng: random.Random, state: _SearchState, placed):
    """One valid placement: ``(tile, is_wire, (method, args))`` or None."""
    w, h = state.width, state.height
    ground, above = state._grid
    free = [Tile(x, y) for y in range(h) for x in range(w) if ground[y * w + x] is None]
    sources = [t for t, _wire, (method, _a) in placed if method != "create_po"]
    crossable = [
        Tile(t.x, t.y, 1)
        for t, wire, _c in placed
        if wire and t.z == 0 and above[t.y * w + t.x] is None
    ]
    kind = rng.choice(["pi", "wire", "wire", "gate", "po", "crossing"])
    if kind == "crossing" and crossable and sources:
        tile = rng.choice(crossable)
        return tile, True, ("create_wire", (tile, rng.choice(sources)))
    if not free:
        return None
    tile = rng.choice(free)
    if kind == "pi" or not sources:
        return tile, False, ("create_pi", (tile, f"pi{len(placed)}"))
    if kind == "gate":
        fanins = [rng.choice(sources), rng.choice(sources)]
        return tile, False, ("create_gate", (GateType.AND, tile, fanins, f"g{len(placed)}"))
    if kind == "po":
        return tile, False, ("create_po", (tile, rng.choice(sources), f"po{len(placed)}"))
    return tile, True, ("create_wire", (tile, rng.choice(sources)))


@pytest.mark.parametrize("scheme, topology, width, height", GRIDS)
@pytest.mark.parametrize("seed", range(6))
def test_random_place_rollback_matches_recompute(scheme, topology, width, height, seed):
    rng = random.Random(seed)
    state = _SearchState(width, height, scheme, topology)
    placed: list = []
    marks: list[tuple[int, int]] = []
    rollbacks = 0
    for _step in range(160):
        roll = rng.random()
        if roll < 0.2 and marks:
            mark, depth = marks.pop()
            state.rollback(mark)
            del placed[depth:]
            rollbacks += 1
            assert _observed(state) == _recompute(state, placed)
        elif roll < 0.4:
            marks.append((state.snapshot(), len(placed)))
        else:
            call = _random_call(rng, state, placed)
            if call is None:
                continue
            method, args = call[2]
            getattr(state, method)(*args)
            placed.append(call)
    assert rollbacks > 0
    assert _observed(state) == _recompute(state, placed)

    direct = GateLayout(width, height, scheme, topology, "prop")
    for _tile, _wire, (method, args) in placed:
        getattr(direct, method)(*args)
    direct.shrink_to_fit()
    replayed = state.materialize("prop")
    assert replayed.structurally_equal(direct)
    assert layout_to_fgl(replayed) == layout_to_fgl(direct)


def test_rollback_to_zero_empties_the_state():
    state = _SearchState(3, 3, USE, Topology.CARTESIAN)
    pristine = _observed(state)
    state.create_pi(Tile(0, 0), "a")
    state.create_wire(Tile(1, 0), Tile(0, 0))
    state.create_wire(Tile(1, 0, 1), Tile(0, 0))
    state.rollback(0)
    assert _observed(state) == pristine
    assert len(state.materialize()) == 0
