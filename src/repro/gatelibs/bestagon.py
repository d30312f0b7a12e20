"""The Bestagon gate library (Walter et al., DAC'22 [16]).

Bestagon is a library of hexagonal standard tiles for Silicon Dangling
Bond logic: each gate occupies one hexagon on a pointy-top hexagonal
grid with ROW clocking, inputs arrive through the two northern ports,
outputs leave through the two southern ports, and signals are encoded in
*binary-dot logic* (BDL) pairs on an H-Si(100)-2×1 surface.

Each tile spans ``TILE_WIDTH`` dimer columns × ``TILE_HEIGHT`` dimer
rows (the published tiles use 60 × 46).  The dot patterns emitted here
are *schematic*: they reproduce the published tiles' ports, BDL wire
chains and per-gate dot budgets so that exports are structurally
faithful, but they are not the DFT-optimised atom positions from the
paper (which physical simulation would require; see DESIGN.md §4).
"""

from __future__ import annotations

from ..celllayout.cell_layout import SiDBLayout
from ..layout.coordinates import Tile, Topology, hex_neighbors_offsets
from ..layout.gate_layout import GateLayout
from ..networks.logic_network import GateType

TILE_WIDTH = 60
TILE_HEIGHT = 46

#: Gate types with Bestagon tiles (the library is two-input complete).
SUPPORTED_GATES = frozenset(
    {
        GateType.PI,
        GateType.PO,
        GateType.BUF,
        GateType.NOT,
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.FANOUT,
    }
)


class BestagonError(ValueError):
    """Raised for layouts the library has no tiles for."""


#: Port positions within a tile, in (dimer column, dimer row) offsets.
_PORTS = {
    "NW": (14, 0),
    "NE": (44, 0),
    "SW": (14, TILE_HEIGHT - 2),
    "SE": (44, TILE_HEIGHT - 2),
}

#: Approximate dot budget of each published Bestagon tile, used to size
#: the schematic body chains (port BDL pairs are added on top).
_BODY_DOTS = {
    GateType.PI: 10,
    GateType.PO: 10,
    GateType.BUF: 16,
    GateType.NOT: 20,
    GateType.AND: 26,
    GateType.NAND: 28,
    GateType.OR: 26,
    GateType.NOR: 28,
    GateType.XOR: 30,
    GateType.XNOR: 32,
    GateType.FANOUT: 24,
}


def hex_port(tile: Tile, neighbor: Tile) -> str:
    """Which port of ``tile`` faces ``neighbor`` on the hex grid."""
    offset = (neighbor.x - tile.x, neighbor.y - tile.y)
    offsets = hex_neighbors_offsets(tile.y)
    # Indices into hex_neighbors_offsets: E, W, NW-ish pair, SW-ish pair.
    names = ["E", "W", "NW", "NE", "SW", "SE"] if tile.y % 2 else [
        "E", "W", "NW", "NE", "SW", "SE"
    ]
    try:
        index = offsets.index(offset)
    except ValueError:
        raise BestagonError(f"tiles {tile} and {neighbor} are not hex-adjacent") from None
    name = names[index]
    if name in ("E", "W"):
        raise BestagonError(
            f"Bestagon tiles have no lateral ports (connection {tile} → {neighbor})"
        )
    return name


def apply_bestagon(layout: GateLayout) -> SiDBLayout:
    """Compile a hexagonal gate-level layout into a schematic SiDB layout.

    The dot pattern of each (gate type, used-port set) tile shape is
    computed once and stamped per occupied tile with a single
    set-update, so dot emission scales with occupied tiles and distinct
    shapes.  The cell golden corpus (``tests/gatelibs/test_cell_golden.py``)
    pins the resulting ``.sqd`` bytes.
    """
    if layout.topology is not Topology.HEXAGONAL_EVEN_ROW:
        raise BestagonError("Bestagon targets hexagonal layouts; hexagonalize first")
    sidb = SiDBLayout(name=layout.name)
    dots = sidb.dots
    templates: dict[tuple, tuple] = {}
    for tile, gate in layout.tiles():
        gate_type = gate.gate_type
        if gate_type not in SUPPORTED_GATES:
            raise BestagonError(f"Bestagon has no tile for {gate_type.value}")
        if tile.z == 1:
            continue  # crossings share the ground tile's hexagon
        used_ports: list[str] = []
        for fanin in gate.fanins:
            used_ports.append(hex_port(tile, fanin.ground))
        for reader in layout.readers(tile):
            if reader.ground != tile.ground:
                used_ports.append(hex_port(tile, reader.ground))
        above = layout.get(tile.above)
        if above is not None:
            used_ports.append(hex_port(tile, above.fanins[0].ground))
            for reader in layout.readers(tile.above):
                if reader.ground != tile.ground:
                    used_ports.append(hex_port(tile, reader.ground))
        key = (gate_type, frozenset(used_ports))
        offsets = templates.get(key)
        if offsets is None:
            offsets = _tile_dot_offsets(gate_type, used_ports)
            templates[key] = offsets
        base_n, base_m = _tile_origin(tile)
        dots.update((base_n + dn, base_m + dm, l) for dn, dm, l in offsets)
        if gate_type is GateType.PI:
            label_key = (base_n + _PORTS["NW"][0], base_m + _PORTS["NW"][1], 0)
            sidb.input_labels[label_key] = gate.name or "pi"
        elif gate_type is GateType.PO:
            label_key = (base_n + _PORTS["SE"][0], base_m + _PORTS["SE"][1], 0)
            sidb.output_labels[label_key] = gate.name or "po"
    return sidb


def _tile_dot_offsets(gate_type: GateType, used_ports: list[str]) -> tuple:
    """Dot offsets of one tile shape, relative to its origin: port BDL
    pairs, spine chain and PI/PO label dot, as pure offsets so the shape
    can be stamped anywhere by translation."""
    offsets: set[tuple[int, int, int]] = set()
    # BDL pair at every used port.
    for port in used_ports:
        dn, dm = _PORTS.get(port, _PORTS["NW"])
        offsets.add((dn, dm, 0))
        offsets.add((dn + 2, dm, 1))
    # Schematic body: a BDL chain down the tile's spine sized by the
    # published tile's dot budget.
    budget = _BODY_DOTS.get(gate_type, 16)
    spine_n = TILE_WIDTH // 2
    for i in range(budget // 2):
        m = 4 + i * max(2, (TILE_HEIGHT - 8) // max(1, budget // 2))
        if m >= TILE_HEIGHT - 2:
            break
        offsets.add((spine_n, m, 0))
        offsets.add((spine_n + 2, m, 1))
    if gate_type is GateType.PI:
        offsets.add((_PORTS["NW"][0], _PORTS["NW"][1], 0))
    elif gate_type is GateType.PO:
        offsets.add((_PORTS["SE"][0], _PORTS["SE"][1], 0))
    return tuple(offsets)


def _tile_origin(tile: Tile) -> tuple[int, int]:
    # Even rows are shifted east by half a tile, matching the even-row
    # offset coordinates of the gate level.
    shift = TILE_WIDTH // 2 if tile.y % 2 == 0 else 0
    return tile.x * TILE_WIDTH + shift, tile.y * TILE_HEIGHT
