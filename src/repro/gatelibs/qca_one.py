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

from itertools import count

from ..celllayout.cell_layout import QCACell, QCACellLayout, QCACellType
from ..io.fgl import CanonicalFgl, layout_to_columns
from ..layout.clocking import neighbor_tables
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


def apply_qca_one(layout: GateLayout | CanonicalFgl) -> QCACellLayout:
    """Compile a Cartesian gate-level layout into QCA ONE cells.

    ``layout`` is a :class:`GateLayout` or its gate columns (a
    :class:`~repro.io.fgl.CanonicalFgl`, as
    :func:`~repro.io.fgl.fgl_to_columns` reads them from ``.fgl`` text);
    a layout is converted to its columns first, so both run one compile.
    Each ground row's side signature comes from raw coordinate offsets:
    its fanins, the rows that read it (the fanin columns inverted) and
    the crossing wire on the row's position.  One label-free 5×5 cell
    block is built per distinct (gate type, entry sides, exit sides,
    crossing signature) and stamped per row into flat position, cell
    and zone lists that fill the cell and zone dicts in one bulk update
    each; no :class:`Tile` is built unless a neighbour is not adjacent.
    Blocks land in row order, which for a layout is its tile order.
    """
    columns = layout if isinstance(layout, CanonicalFgl) else layout_to_columns(layout)
    if columns.topology is not Topology.CARTESIAN:
        raise QCAOneError("QCA ONE targets Cartesian layouts")
    xs, ys, zs, starts = columns.xs, columns.ys, columns.zs, columns.fanin_start
    signals = list(zip(columns.fx, columns.fy, columns.fz))
    # The ground positions reading each tile, in row order, and the row
    # of the crossing wire above each ground position.
    readers: dict[tuple, list] = {}
    crossings: dict[tuple[int, int], int] = {}
    for row, x, y, z, lo, hi in zip(count(), xs, ys, zs, starts, starts[1:]):
        if z:
            crossings[(x, y)] = row
        for signal in signals[lo:hi]:
            bucket = readers.get(signal)
            if bucket is None:
                readers[signal] = [(x, y)]
            else:
                bucket.append((x, y))
    regular = columns.scheme.regular
    if regular:
        tables = neighbor_tables(columns.scheme, Topology.CARTESIAN)
        zone_rows, period_x, period_y = tables.zones, tables.period_x, tables.period_y
    else:
        explicit_zones = columns.zones or {}

    cell_layout = QCACellLayout(name=columns.name, tile_size=TILE_SIZE)
    templates: dict[tuple, tuple] = {}
    sides = _SIDES
    positions, blocks, tile_zones, labels = [], [], [], []
    for gate_type, name, x, y, z, lo, hi in zip(
        columns.types, columns.names, xs, ys, zs, starts, starts[1:]
    ):
        if gate_type not in SUPPORTED_GATES:
            raise QCAOneError(
                f"QCA ONE has no cell implementation for {gate_type.value}; "
                "decompose the network to AOIG first"
            )
        if z:
            # The crossing layer is realised coplanarly inside the ground
            # tile's block (rotated cells); handled at its ground row.
            continue
        above = crossings.get((x, y))
        # Readers on the same ground position are the vertical hop into
        # the crossing layer, realised by the crossing overlay.
        out_readers = [r for r in readers.get((x, y, 0), ()) if r != (x, y)]
        try:
            in_sides = tuple([sides[(fx - x, fy - y)] for fx, fy, _ in signals[lo:hi]])
            out_sides = tuple([sides[(rx - x, ry - y)] for rx, ry in out_readers])
            if above is None:
                crossing = None
            else:
                fx, fy, _ = signals[starts[above]]
                crossing = (
                    sides[(fx - x, fy - y)],
                    tuple([
                        sides[(rx - x, ry - y)]
                        for rx, ry in readers.get((x, y, 1), ())
                        if rx != x or ry != y
                    ]),
                )
        except KeyError:
            # A neighbour that is not adjacent: side_of raises the typed
            # error, for the crossing wire's neighbours first.
            if above is not None:
                side_of(Tile(x, y), Tile(*signals[starts[above]][:2]))
                for rx, ry in readers.get((x, y, 1), ()):
                    if rx != x or ry != y:
                        side_of(Tile(x, y, 1), Tile(rx, ry))
            for fx, fy, _ in signals[lo:hi]:
                side_of(Tile(x, y), Tile(fx, fy))
            for rx, ry in out_readers:
                side_of(Tile(x, y), Tile(rx, ry))
            raise  # pragma: no cover - one of the neighbours is not adjacent
        key = (gate_type, in_sides, out_sides, crossing)
        template = templates.get(key)
        if template is None:
            template = templates[key] = _template(
                gate_type, in_sides, out_sides, crossing, Tile(x, y)
            )
        offsets, block = template
        base_x, base_y = x * TILE_SIZE, y * TILE_SIZE
        positions += [(base_x + dx, base_y + dy, layer) for dx, dy, layer in offsets]
        blocks += block
        if regular:
            zone = zone_rows[y % period_y][x % period_x]
        else:
            zone = explicit_zones.get((x, y), 0)
        tile_zones += [zone] * len(block)
        if name is not None and (gate_type is GateType.PI or gate_type is GateType.PO):
            # Templates are label-free so they are shareable; pin labels
            # land on the centre cell afterwards (an existing key, so the
            # insertion order stays that of the stamped blocks).
            centre_type = (
                QCACellType.INPUT if gate_type is GateType.PI else QCACellType.OUTPUT
            )
            labels.append((
                (base_x + _CENTER[0], base_y + _CENTER[1], 0),
                QCACell(centre_type, name),
            ))
    cell_layout.cells.update(zip(positions, blocks))
    cell_layout.cells.update(labels)
    cell_layout.zones.update(zip(positions, tile_zones))
    return cell_layout


def _template(gate_type, in_sides, out_sides, crossing, tile: Tile) -> tuple:
    """One label-free block as (cell offsets with layer, cells)."""
    block = _block_from_sides(gate_type, list(in_sides), list(out_sides), tile)
    if crossing is not None:
        _overlay_crossing(block, crossing[0], list(crossing[1]))
    offsets = tuple(k if len(k) == 3 else (k[0], k[1], 0) for k in block)
    return offsets, tuple(block.values())


def _block_from_sides(t, in_sides: list[str], out_sides: list[str], tile: Tile) -> dict:
    """Pure, label-free block construction from a tile's side signature.

    ``tile`` is used only for error messages; the block depends solely on
    (gate type, in sides, out sides), which is what makes blocks
    memoizable.
    """
    block: dict[tuple[int, int], QCACell] = {}

    def arm(side: str, cell_type=QCACellType.NORMAL) -> None:
        for offset in _ARM[side]:
            block[offset] = QCACell(cell_type)

    def centre(cell_type=QCACellType.NORMAL) -> None:
        block[_CENTER] = QCACell(cell_type)

    if t is GateType.PI:
        centre(QCACellType.INPUT)
        for side in out_sides:
            arm(side)
    elif t is GateType.PO:
        centre(QCACellType.OUTPUT)
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


def _overlay_crossing(block: dict, in_side: str, out_sides: list[str]) -> None:
    """Overlay the crossing wire, from its side signature, onto the
    block's crossing plane.

    The crossing wire runs on cell layer 2 with via cells (layer 1) at
    its entry and exit arms — the multilayer realisation fiction's QCA
    ONE application emits for ``z = 1`` gate-level wires.
    """
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

