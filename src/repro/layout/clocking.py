"""FCN clocking schemes.

A clocking scheme partitions the tile grid into clock zones 0..3 such
that information flows from a tile in zone *k* only into adjacent tiles
in zone *(k+1) mod 4*.  The schemes offered by MNT Bench's web interface
are implemented here with the zone assignments used by *fiction*:

* **2DDWave** [cascade clocking]: ``zone(x, y) = (x + y) mod 4`` — all
  data flows east/south, which is what ortho [6] and the 45°
  hexagonalisation [7] rely on.
* **USE**, **RES**, **ESR**: 4×4 periodic Cartesian schemes that allow
  feedback loops.
* **ROW**: row-based clocking, ``zone(x, y) = y mod 4`` — the scheme the
  Bestagon gate library targets on hexagonal grids.
* **OPEN**: no predefined zones; tiles are clocked individually and the
  zones are stored in the layout (the exact search does not support it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .coordinates import Tile, Topology, neighbor_offsets


@dataclass(frozen=True)
class ClockingScheme:
    """A (possibly regular) clock zone assignment.

    Regular schemes derive the zone of any tile from a periodic matrix;
    the OPEN scheme stores explicit per-tile zones inside the layout
    instead and reports ``regular = False``.
    """

    name: str
    num_phases: int = 4
    #: Row-major `period_y` × `period_x` zone matrix for regular schemes.
    matrix: tuple[tuple[int, ...], ...] | None = None
    #: For diagonal schemes (2DDWave) the matrix is replaced by a formula.
    diagonal: bool = False
    regular: bool = True

    def zone(self, tile: Tile) -> int:
        """Clock zone of ``tile`` (regular schemes only)."""
        if not self.regular:
            raise ValueError(f"{self.name} is irregular; zones live in the layout")
        if self.diagonal:
            return (tile.x + tile.y) % self.num_phases
        assert self.matrix is not None
        row = self.matrix[tile.y % len(self.matrix)]
        return row[tile.x % len(row)]

    def is_incoming_clocked(self, target: Tile, source: Tile) -> bool:
        """True if data may flow from ``source`` into ``target``."""
        if not self.regular:
            return True
        return (self.zone(source) + 1) % self.num_phases == self.zone(target)

    @property
    def period(self) -> tuple[int, int]:
        """``(period_x, period_y)`` of the zone assignment (regular only)."""
        if not self.regular:
            raise ValueError(f"{self.name} is irregular; it has no period")
        if self.diagonal:
            return self.num_phases, self.num_phases
        assert self.matrix is not None
        return len(self.matrix[0]), len(self.matrix)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClockNeighborTables:
    """Precomputed per-scheme/topology zone and clock-neighbour tables.

    Clock zones are periodic in tile coordinates, so one table per
    (scheme, topology) pair serves every layout of any size: index the
    row-major tables with ``[y % period_y][x % period_x]``.

    * ``zones`` — the clock zone of the tile;
    * ``outgoing`` — the (dx, dy) offsets of neighbours the tile may
      send data into (``zone + 1`` neighbours), in the same order the
      legacy :func:`repro.layout.coordinates.neighbors` emits them;
    * ``incoming`` — the offsets of neighbours that may send data into
      the tile (``zone - 1`` neighbours).
    """

    period_x: int
    period_y: int
    zones: tuple[tuple[int, ...], ...]
    outgoing: tuple[tuple[tuple[int, int], ...], ...]
    incoming: tuple[tuple[tuple[int, int], ...], ...]


@functools.lru_cache(maxsize=None)
def neighbor_tables(scheme: ClockingScheme, topology: Topology) -> ClockNeighborTables:
    """The :class:`ClockNeighborTables` of a regular scheme on a topology.

    Cached per (scheme, topology): schemes are frozen module singletons,
    so the cache stays a handful of entries for the whole process.
    """
    if not scheme.regular:
        raise ValueError(f"{scheme.name} is irregular; zones live in the layout")
    px, py = scheme.period
    # Hexagonal neighbour offsets depend on row parity; every scheme in
    # use has an even period_y, which absorbs the parity automatically.
    if topology is not Topology.CARTESIAN and py % 2:
        py *= 2
    zones = tuple(
        tuple(scheme.zone(Tile(x, y)) for x in range(px)) for y in range(py)
    )
    outgoing: list[tuple[tuple[int, int], ...]] = []
    incoming: list[tuple[tuple[int, int], ...]] = []
    for y in range(py):
        out_row: list[tuple[int, int]] = []
        in_row: list[tuple[int, int]] = []
        for x in range(px):
            zone = zones[y][x]
            offsets = neighbor_offsets(topology, y)
            out_row.append(
                tuple(
                    (dx, dy)
                    for dx, dy in offsets
                    if scheme.zone(Tile(x + dx, y + dy))
                    == (zone + 1) % scheme.num_phases
                )
            )
            in_row.append(
                tuple(
                    (dx, dy)
                    for dx, dy in offsets
                    if (scheme.zone(Tile(x + dx, y + dy)) + 1) % scheme.num_phases
                    == zone
                )
            )
        outgoing.append(tuple(out_row))
        incoming.append(tuple(in_row))
    return ClockNeighborTables(px, py, zones, tuple(outgoing), tuple(incoming))


#: 2DDWave: diagonal waves; unidirectional east/south information flow.
TWODDWAVE = ClockingScheme("2DDWave", diagonal=True)

#: USE — Universal, Scalable and Efficient clocking (Campos et al.).
USE = ClockingScheme(
    "USE",
    matrix=(
        (0, 1, 2, 3),
        (3, 2, 1, 0),
        (2, 3, 0, 1),
        (1, 0, 3, 2),
    ),
)

#: RES — allows denser feedback than USE (Goes et al.).
RES = ClockingScheme(
    "RES",
    matrix=(
        (3, 0, 1, 2),
        (0, 1, 0, 3),
        (1, 2, 3, 0),
        (0, 3, 2, 1),
    ),
)

#: ESR — extended square RES-like scheme (Pal et al.).
ESR = ClockingScheme(
    "ESR",
    matrix=(
        (3, 0, 1, 2),
        (0, 1, 2, 3),
        (1, 2, 3, 0),
        (0, 3, 2, 1),
    ),
)

#: ROW — horizontal stripes; the hexagonal Bestagon scheme.
ROW = ClockingScheme(
    "ROW",
    matrix=(
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (2, 2, 2, 2),
        (3, 3, 3, 3),
    ),
)

#: CFE — columnar flow extension scheme.
CFE = ClockingScheme(
    "CFE",
    matrix=(
        (0, 1, 0, 1),
        (3, 2, 3, 2),
        (0, 1, 0, 1),
        (3, 2, 3, 2),
    ),
)

#: OPEN — per-tile zones, stored in the layout.
OPEN = ClockingScheme("OPEN", regular=False)

#: All named schemes, keyed case-insensitively by name.
SCHEMES: dict[str, ClockingScheme] = {
    s.name.lower(): s for s in (TWODDWAVE, USE, RES, ESR, ROW, CFE, OPEN)
}

#: Cartesian schemes offered in the MNT Bench selection UI (Figure 1).
CARTESIAN_SCHEMES: tuple[ClockingScheme, ...] = (TWODDWAVE, USE, RES, ESR)

#: Hexagonal schemes offered in the MNT Bench selection UI (Figure 1).
HEXAGONAL_SCHEMES: tuple[ClockingScheme, ...] = (ROW,)


def get_scheme(name: str) -> ClockingScheme:
    """Look up a clocking scheme by (case-insensitive) name."""
    try:
        return SCHEMES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(f"unknown clocking scheme {name!r}; known: {known}") from None
