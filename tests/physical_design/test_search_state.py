"""Property tests for the exact search's flat search state.

Seeded random place/rollback sequences run on 2DDWave, USE and
hexagonal ROW grids, on the state's index-level ops: positions and
fanin refs are flat ``z * width * height + y * width + x`` indices.
After every rollback the incrementally maintained occupancy lists,
free-tile counters and occupancy hash must equal a from-scratch
recompute over the surviving placements, and ``materialize()`` must
serialize to the same ``.fgl`` bytes as the same placements applied
directly to a :class:`GateLayout`.
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


def _tile(state: _SearchState, index: int) -> Tile:
    n = state.width * state.height
    return Tile(index % state.width, index % n // state.width, index // n)


def _recompute(state: _SearchState, ops):
    """Occupancy, hash and free counters derived from ``ops`` alone."""
    w, h = state.width, state.height
    n = w * h
    grid = [[None] * n, [None] * n]
    digest = ground = border = 0
    for positions, _call, _replay in ops:
        for index, wire in positions:
            z, g = divmod(index, n)
            grid[z][g] = _WIRE if wire else _ELEMENT
            digest ^= state._zobrist[2 * index]
            if wire:
                digest ^= state._zobrist[2 * index + 1]
            if z == 0:
                ground += 1
                x, y = g % w, g // w
                border += x in (0, w - 1) or y in (0, h - 1)
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


def _random_op(rng: random.Random, state: _SearchState, ops):
    """One valid op or None.

    An op is ``(positions, call, replay)``: the ``(index, is_wire)``
    positions it occupies, the ``_SearchState`` call on indices and the
    equivalent ``GateLayout`` calls on tiles.
    """
    n = state.width * state.height
    ground, above = state._grid
    free = [i for i in range(n) if ground[i] is None]
    sources = [
        index
        for positions, (method, _a), _r in ops
        if method != "create_po"
        for index, _wire in positions
    ]
    wires = [index for positions, _c, _r in ops for index, wire in positions if wire]
    crossable = [i + n for i in wires if i < n and above[i] is None]
    kind = rng.choice(["pi", "wire", "wire", "gate", "po", "crossing"])
    if not sources:
        kind = "pi"
    if kind == "crossing" and crossable:
        chain = [rng.choice(crossable)]
    elif not free:
        return None
    else:
        chain = [rng.choice(free)]
    tile = _tile(state, chain[0])
    if kind == "pi":
        name = f"pi{len(ops)}"
        return [(chain[0], False)], ("create_pi", (chain[0], name)), [
            ("create_pi", (tile, name))
        ]
    if kind == "gate":
        fanins = [rng.choice(sources), rng.choice(sources)]
        name = f"g{len(ops)}"
        return [(chain[0], False)], (
            "create_gate", (GateType.AND, chain[0], fanins, name)
        ), [("create_gate", (GateType.AND, tile, [_tile(state, f) for f in fanins], name))]
    if kind == "po":
        fanin = rng.choice(sources)
        name = f"po{len(ops)}"
        return [(chain[0], False)], ("create_po", (chain[0], fanin, name)), [
            ("create_po", (tile, _tile(state, fanin), name))
        ]
    # A routed path: up to three wires, each reading the one before; the
    # path's last entry is its (unplaced) target.
    for _ in range(rng.randint(0, 2)):
        more = [i for i in free if i not in chain]
        if not more:
            break
        chain.append(rng.choice(more))
    source = rng.choice(sources)
    replay = []
    previous = source
    for index in chain:
        replay.append(("create_wire", (_tile(state, index), _tile(state, previous))))
        previous = index
    path = [source, *chain, rng.randrange(n)]
    return [(index, True) for index in chain], ("create_wires", (path,)), replay


@pytest.mark.parametrize("scheme, topology, width, height", GRIDS)
@pytest.mark.parametrize("seed", range(6))
def test_random_place_rollback_matches_recompute(scheme, topology, width, height, seed):
    rng = random.Random(seed)
    state = _SearchState(width, height, scheme, topology)
    ops: list = []
    marks: list[tuple[int, int]] = []
    rollbacks = 0
    for _step in range(160):
        roll = rng.random()
        if roll < 0.2 and marks:
            mark, depth = marks.pop()
            state.rollback(mark)
            del ops[depth:]
            rollbacks += 1
            assert _observed(state) == _recompute(state, ops)
        elif roll < 0.4:
            marks.append((state.snapshot(), len(ops)))
        else:
            op = _random_op(rng, state, ops)
            if op is None:
                continue
            method, args = op[1]
            result = getattr(state, method)(*args)
            if method == "create_wires":
                assert result == op[0][-1][0]
            ops.append(op)
    assert rollbacks > 0
    assert _observed(state) == _recompute(state, ops)

    direct = GateLayout(width, height, scheme, topology, "prop")
    for _positions, _call, replay in ops:
        for method, args in replay:
            getattr(direct, method)(*args)
    direct.shrink_to_fit()
    replayed = state.materialize("prop")
    assert replayed.structurally_equal(direct)
    assert layout_to_fgl(replayed) == layout_to_fgl(direct)


def test_gate_reads_a_crossing_layer_wire():
    # 2DDWave 4x4: b's wire runs south through (1, 1) to an output; a's
    # signal crosses over it on layer 1 into the gate at (2, 1), so the
    # gate's first fanin ref is a crossing-layer index (>= n).
    state = _SearchState(4, 4, TWODDWAVE, Topology.CARTESIAN)
    n, w = 16, 4
    a, b, c = 1 * w + 0, 0 * w + 1, 0 * w + 2
    under, gate = 1 * w + 1, 1 * w + 2
    for index, name in ((a, "a"), (b, "b"), (c, "c")):
        state.create_pi(index, name)
    assert state.create_wires([b, under, 2 * w + 1]) == under
    over = state.create_wires([a, under + n, gate])
    assert over == under + n
    state.create_gate(GateType.AND, gate, [over, c], "g")
    state.create_po(2 * w + 1, under, "f")
    state.create_po(1 * w + 3, gate, "h")

    direct = GateLayout(4, 4, TWODDWAVE, Topology.CARTESIAN, "x")
    direct.create_pi(Tile(0, 1), "a")
    direct.create_pi(Tile(1, 0), "b")
    direct.create_pi(Tile(2, 0), "c")
    direct.create_wire(Tile(1, 1), Tile(1, 0))
    direct.create_wire(Tile(1, 1, 1), Tile(0, 1))
    direct.create_gate(GateType.AND, Tile(2, 1), [Tile(1, 1, 1), Tile(2, 0)], "g")
    direct.create_po(Tile(1, 2), Tile(1, 1), "f")
    direct.create_po(Tile(3, 1), Tile(2, 1), "h")
    direct.shrink_to_fit()
    replayed = state.materialize("x")
    assert replayed.get(Tile(2, 1)).fanins == (Tile(1, 1, 1), Tile(2, 0))
    assert layout_to_fgl(replayed) == layout_to_fgl(direct)


def test_rollback_to_zero_empties_the_state():
    state = _SearchState(3, 3, USE, Topology.CARTESIAN)
    pristine = _observed(state)
    state.create_pi(0, "a")
    state.create_wires([0, 1, 2])
    state.create_wires([0, 9 + 1, 2])
    state.rollback(0)
    assert _observed(state) == pristine
    assert len(state.materialize()) == 0
