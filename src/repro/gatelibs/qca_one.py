"""The QCA ONE gate library (Reis et al., ISCAS'16 [15]).

QCA ONE is a standard-cell library for Quantum-dot Cellular Automata:
every gate-level tile becomes a 5×5 block of QCA cells.  Logic is built
around the majority gate (a cross of cells); AND and OR are majority
gates with one arm replaced by a fixed-polarisation cell, inverters use
the diagonal-displacement construction, and wire crossings are coplanar
(the vertical wire uses 45°-rotated cells).

Rather than storing one bitmap per (gate, orientation) pair, the blocks
are composed programmatically from *arms* (cell runs from a tile side to
the centre), which yields every orientation the clocking scheme can
produce and is how this module covers Cartesian layouts on 2DDWave as
well as USE/RES/ESR.
"""

from __future__ import annotations

from ..celllayout.cell_layout import QCACell, QCACellLayout, QCACellType
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import GateLayout
from ..networks.logic_network import GateType

#: Side names, as (dx, dy) tile offsets.
_SIDES = {
    (0, -1): "N",
    (1, 0): "E",
    (0, 1): "S",
    (-1, 0): "W",
}

#: Cell offsets (within the 5×5 block) of the arm touching each side,
#: excluding the centre cell at (2, 2).
_ARM = {
    "N": ((2, 0), (2, 1)),
    "S": ((2, 4), (2, 3)),
    "W": ((0, 2), (1, 2)),
    "E": ((4, 2), (3, 2)),
}

_CENTER = (2, 2)

#: Unit vector pointing from the centre toward each side.
_DIRECTION = {"N": (0, -1), "S": (0, 1), "W": (-1, 0), "E": (1, 0)}
_OPPOSITE = {"N": "S", "S": "N", "W": "E", "E": "W"}

TILE_SIZE = 5

#: Gate types QCA ONE provides standard cells for.
SUPPORTED_GATES = frozenset(
    {
        GateType.PI,
        GateType.PO,
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.OR,
        GateType.MAJ,
        GateType.FANOUT,
    }
)


class QCAOneError(ValueError):
    """Raised for layouts the library has no standard cells for."""


def side_of(tile: Tile, neighbor: Tile) -> str:
    """Which side of ``tile`` faces ``neighbor`` (ground projections)."""
    offset = (neighbor.x - tile.x, neighbor.y - tile.y)
    if offset not in _SIDES:
        raise QCAOneError(f"tiles {tile} and {neighbor} are not adjacent")
    return _SIDES[offset]


def apply_qca_one(layout: GateLayout, engine: str = "blocks") -> QCACellLayout:
    """Compile a Cartesian gate-level layout into QCA ONE cells.

    The default ``"blocks"`` engine reads each ground tile's side
    signature straight from raw coordinate offsets (fanins, the reader
    lists of ``layout._readers`` and the crossing gate in
    ``layout._grid[1]``), memoizes one precompiled 5×5 cell block per
    (gate type, entry sides, exit sides, crossing signature), and stamps
    it per tile into flat position/cell/zone lists that fill the cell
    and zone dicts in one bulk update each — the cost scales with
    occupied tiles and *distinct* tile shapes, with no ``Tile`` built
    per neighbour and no per-cell dict write.  The ``"reference"``
    engine builds each block anew per tile (the retained
    original); both produce equal cell and zone dicts in the same
    insertion order, which the differential tests and the cell golden
    corpus assert.
    """
    if layout.topology is not Topology.CARTESIAN:
        raise QCAOneError("QCA ONE targets Cartesian layouts")
    if engine == "reference":
        return _apply_reference(layout)
    if engine != "blocks":
        raise ValueError(f"unknown QCA ONE engine {engine!r}")
    cell_layout = QCACellLayout(name=layout.name, tile_size=TILE_SIZE)
    cells = cell_layout.cells
    zones = cell_layout.zones
    templates: dict[tuple, tuple] = {}
    readers = layout._readers
    crossings = layout._grid[1]
    width = layout.width
    sides = _SIDES
    positions, blocks, tile_zones, labels = [], [], [], []
    for tile, gate in layout.tiles():
        gate_type = gate.gate_type
        if gate_type not in SUPPORTED_GATES:
            raise QCAOneError(
                f"QCA ONE has no cell implementation for {gate_type.value}; "
                "decompose the network to AOIG first"
            )
        x, y, z = tile
        if z:
            # The crossing layer is realised coplanarly inside the ground
            # tile's block (rotated cells); handled when visiting z = 0.
            continue
        above = crossings[y * width + x]
        try:
            in_sides = tuple([sides[(fx - x, fy - y)] for fx, fy, _ in gate.fanins])
            # Readers on the same ground position are the vertical hop
            # into the crossing layer, realised by the crossing overlay.
            out_sides = tuple([
                sides[(rx - x, ry - y)]
                for rx, ry, _ in readers.get(tile, ())
                if rx != x or ry != y
            ])
            if above is None:
                crossing = None
            else:
                fx, fy, _ = above.fanins[0]
                crossing = (
                    sides[(fx - x, fy - y)],
                    tuple([
                        sides[(rx - x, ry - y)]
                        for rx, ry, _ in readers.get((x, y, 1), ())
                        if rx != x or ry != y
                    ]),
                )
        except KeyError:
            # A neighbour that is not adjacent: side_of raises the typed error.
            in_sides, out_sides, crossing = _signature(layout, tile, gate, above)
        key = (gate_type, in_sides, out_sides, crossing)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _template(
                gate_type, in_sides, out_sides, crossing, tile
            )
        offsets, block = template
        base_x, base_y = x * TILE_SIZE, y * TILE_SIZE
        positions += [(base_x + dx, base_y + dy, layer) for dx, dy, layer in offsets]
        blocks += block
        tile_zones += [layout.zone(tile)] * len(block)
        if gate.name is not None and (
            gate_type is GateType.PI or gate_type is GateType.PO
        ):
            # Templates are label-free so they are shareable; pin labels
            # land on the centre cell afterwards (an existing key, so the
            # insertion order stays that of the stamped blocks).
            centre_type = (
                QCACellType.INPUT if gate_type is GateType.PI else QCACellType.OUTPUT
            )
            labels.append((
                (base_x + _CENTER[0], base_y + _CENTER[1], 0),
                QCACell(centre_type, gate.name),
            ))
    cells.update(zip(positions, blocks))
    cells.update(labels)
    zones.update(zip(positions, tile_zones))
    return cell_layout


def _signature(layout: GateLayout, tile: Tile, gate, above) -> tuple:
    """A ground tile's (in sides, out sides, crossing) through
    :func:`side_of`, which raises :class:`QCAOneError` for a neighbour
    that is not adjacent."""
    crossing = None
    if above is not None:
        crossing = (
            side_of(tile, above.fanins[0].ground),
            tuple(_out_sides(layout, tile.above)),
        )
    return (
        tuple(_in_sides(layout, tile, gate)),
        tuple(_out_sides(layout, tile)),
        crossing,
    )


def _template(gate_type, in_sides, out_sides, crossing, tile: Tile) -> tuple:
    """One label-free block as (cell offsets with layer, cells)."""
    block = _block_from_sides(gate_type, list(in_sides), list(out_sides), None, tile)
    if crossing is not None:
        _overlay_crossing(block, crossing[0], list(crossing[1]))
    offsets = tuple(k if len(k) == 3 else (k[0], k[1], 0) for k in block)
    return offsets, tuple(block.values())


def _apply_reference(layout: GateLayout) -> QCACellLayout:
    """Per-tile block construction — the retained reference oracle."""
    cell_layout = QCACellLayout(name=layout.name, tile_size=TILE_SIZE)
    for tile, gate in layout.tiles():
        if gate.gate_type not in SUPPORTED_GATES:
            raise QCAOneError(
                f"QCA ONE has no cell implementation for {gate.gate_type.value}; "
                "decompose the network to AOIG first"
            )
        if tile.z == 1:
            # The crossing layer is realised coplanarly inside the ground
            # tile's block (rotated cells); handled when visiting z = 0.
            continue
        block = _block_for(layout, tile, gate)
        above = layout.get(tile.above)
        if above is not None:
            _merge_crossing(block, layout, tile, above)
        _blit(cell_layout, tile, block, layout.zone(tile))
    return cell_layout


def _in_sides(layout: GateLayout, tile: Tile, gate) -> list[str]:
    return [side_of(tile, f.ground) for f in gate.fanins]


def _out_sides(layout: GateLayout, tile: Tile) -> list[str]:
    sides = []
    for reader in layout.readers(tile):
        if reader.ground == tile.ground:
            continue  # vertical hop, handled by the crossing merge
        sides.append(side_of(tile, reader.ground))
    return sides


def _block_for(layout: GateLayout, tile: Tile, gate) -> dict:
    return _block_from_sides(
        gate.gate_type,
        _in_sides(layout, tile, gate),
        _out_sides(layout, tile),
        gate.name,
        tile,
    )


def _block_from_sides(
    t, in_sides: list[str], out_sides: list[str], name, tile: Tile
) -> dict:
    """Pure block construction from a tile's side signature.

    ``tile`` is used only for error messages; the block depends solely on
    (gate type, in sides, out sides, name), which is what makes blocks
    memoizable by the ``"blocks"`` engine.
    """
    block: dict[tuple[int, int], QCACell] = {}

    def arm(side: str, cell_type=QCACellType.NORMAL) -> None:
        for offset in _ARM[side]:
            block[offset] = QCACell(cell_type)

    def centre(cell_type=QCACellType.NORMAL, label=None) -> None:
        block[_CENTER] = QCACell(cell_type, label)

    if t is GateType.PI:
        centre(QCACellType.INPUT, name)
        for side in out_sides:
            arm(side)
    elif t is GateType.PO:
        centre(QCACellType.OUTPUT, name)
        for side in in_sides:
            arm(side)
    elif t in (GateType.BUF, GateType.FANOUT):
        centre()
        for side in in_sides + out_sides:
            arm(side)
    elif t is GateType.NOT:
        # Diagonal-displacement inverter: the signal crosses a diagonal
        # gap whose geometric kink factor anti-aligns the next cell.
        # For corner inverters (in ⊥ out) the two arm inner cells are
        # already diagonal to each other across the *omitted* centre;
        # straight-through inverters add a displaced two-cell bridge.
        in_side = in_sides[0]
        out_side = out_sides[0] if out_sides else _OPPOSITE[in_side]
        arm(in_side)
        arm(out_side)
        d_in = _DIRECTION[in_side]
        d_out = _DIRECTION[out_side]
        if d_out == (-d_in[0], -d_in[1]):
            inner = (_CENTER[0] + d_in[0], _CENTER[1] + d_in[1])
            perp = (d_out[1], -d_out[0])
            hop = (inner[0] + d_out[0] + perp[0], inner[1] + d_out[1] + perp[1])
            hop2 = (hop[0] + d_out[0], hop[1] + d_out[1])
            block[hop] = QCACell(QCACellType.NORMAL)
            block[hop2] = QCACell(QCACellType.NORMAL)
    elif t in (GateType.AND, GateType.OR, GateType.MAJ):
        centre()
        for side in in_sides + out_sides:
            arm(side)
        if t is not GateType.MAJ:
            free = [s for s in ("N", "E", "S", "W") if s not in in_sides + out_sides]
            if not free:
                raise QCAOneError(f"no free side for the fixed cell at {tile}")
            fixed = QCACellType.FIXED_0 if t is GateType.AND else QCACellType.FIXED_1
            # The fixed cell sits on the free arm, adjacent to the centre.
            block[_ARM[free[0]][1]] = QCACell(fixed)
    else:  # pragma: no cover - guarded by SUPPORTED_GATES
        raise QCAOneError(f"unhandled gate type {t}")
    return block


def _merge_crossing(block: dict, layout: GateLayout, tile: Tile, above) -> None:
    """Overlay the crossing wire onto the block's crossing plane.

    The crossing wire runs on cell layer 2 with via cells (layer 1) at
    its entry and exit arms — the multilayer realisation fiction's QCA
    ONE application emits for ``z = 1`` gate-level wires.
    """
    in_side = side_of(tile, above.fanins[0].ground)
    out_sides = [
        side_of(tile, reader.ground)
        for reader in layout.readers(tile.above)
        if reader.ground != tile.ground
    ]
    _overlay_crossing(block, in_side, out_sides)


def _overlay_crossing(block: dict, in_side: str, out_sides: list[str]) -> None:
    """Pure crossing overlay from the crossing wire's side signature."""
    for side in [in_side] + out_sides:
        outer, inner = _ARM[side]
        # Ground landing cell so the via stack couples to the incoming
        # wire of the neighbouring tile (shared-side cases reuse the
        # ground element's own arm cell).
        block.setdefault(outer, QCACell(QCACellType.NORMAL))
        block[(outer[0], outer[1], 1)] = QCACell(QCACellType.NORMAL)  # via
        block[(outer[0], outer[1], 2)] = QCACell(QCACellType.NORMAL)
        block[(inner[0], inner[1], 2)] = QCACell(QCACellType.NORMAL)
    block[(_CENTER[0], _CENTER[1], 2)] = QCACell(QCACellType.NORMAL)


def _blit(cell_layout: QCACellLayout, tile: Tile, block: dict, zone: int) -> None:
    base_x, base_y = tile.x * TILE_SIZE, tile.y * TILE_SIZE
    for key, cell in block.items():
        if len(key) == 2:
            dx, dy = key
            layer = 0
        else:
            dx, dy, layer = key
        cell_layout.set_cell(base_x + dx, base_y + dy, cell, layer, zone)
