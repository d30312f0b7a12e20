"""Wiring reduction: deleting pass-through wire rows and columns.

A further layout optimisation from the *fiction* toolbox MNT Bench
wraps: scalable placement leaves entire rows (columns) that contain
nothing but straight vertical (horizontal) wire segments — signals
marching through on their way south (east).  Such a row can be deleted
outright: every wire in it is bypassed (its reader rewired to its
fanin), everything below shifts up by one, and on 2DDWave the clocking
stays consistent because all relative zone differences along surviving
connections are preserved.

The pass keeps per-line histograms — occupied-tile and pass-through-tile
counts per row and per column, filled by ONE sweep over the layout — and
exploits that deleting a pass-through (or empty) line never changes any
surviving tile's pass-through status on either axis (the deletion is a
pure contraction: relative offsets along surviving connections are
preserved).  The deletable set is therefore fixed up front and all lines
are removed in a single composite rebuild; the result equals deleting
them one at a time until none is left.

The database runs it on ortho layouts after PLO: ortho's placement
itself leaves no deletable line (none on c432, c499 or c880, in either
mode), but PLO's relocations leave pass-through columns behind (14 on
c432).  Table I's heuristic entries bundle these passes under their
optimisation suffixes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..layout.clocking import TWODDWAVE
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import GateLayout, LayoutGate
from ..networks.logic_network import GateType


@dataclass
class WiringReductionResult:
    """Optimised layout plus statistics."""

    layout: GateLayout
    runtime_seconds: float
    rows_deleted: int
    columns_deleted: int
    area_before: int
    area_after: int

    @property
    def area_reduction(self) -> float:
        if self.area_before == 0:
            return 0.0
        return 1.0 - self.area_after / self.area_before


def wiring_reduction(layout: GateLayout) -> WiringReductionResult:
    """Delete all pass-through wire rows/columns of a 2DDWave layout.

    Returns a *new* layout; the input is left untouched.
    """
    if layout.topology is not Topology.CARTESIAN or layout.scheme is not TWODDWAVE:
        raise ValueError("wiring reduction is defined for Cartesian 2DDWave layouts")
    started = time.monotonic()
    width, height = layout.bounding_box()
    area_before = width * height

    current, rows, columns = _reduce(layout)
    if current is layout:
        current = layout.clone()
    current.shrink_to_fit()
    width, height = current.bounding_box()
    return WiringReductionResult(
        current, time.monotonic() - started, rows, columns, area_before, width * height
    )


def _reduce(layout: GateLayout) -> tuple[GateLayout, int, int]:
    """Histogram scan + one composite rebuild.

    A line is deletable when every occupied tile on it passes straight
    through along the line's normal (or it is empty), and it is
    interior.  Deleting such a line shifts — but never rewires or
    reorders — everything past it, so deletability of the *other* lines
    is invariant and the whole set can be collected from one scan of
    per-line occupied/pass-through counts.
    """
    width, height = layout.bounding_box()
    row_occupied = [0] * height
    row_pass = [0] * height
    col_occupied = [0] * width
    col_pass = [0] * width
    buf = GateType.BUF
    readers_map = layout._readers
    for tile, gate in layout._tiles.items():
        x, y = tile.x, tile.y
        row_occupied[y] += 1
        col_occupied[x] += 1
        if gate.gate_type is not buf:
            continue
        rs = readers_map.get(tile)
        if rs is None or len(rs) != 1:
            continue
        fanin = gate.fanins[0]
        reader = rs[0]
        if fanin.x == x and fanin.y == y - 1 and reader.x == x and reader.y == y + 1:
            row_pass[y] += 1
        elif fanin.y == y and fanin.x == x - 1 and reader.y == y and reader.x == x + 1:
            col_pass[x] += 1
    rows = [y for y in range(1, height - 1) if row_occupied[y] == row_pass[y]]
    columns = [x for x in range(1, width - 1) if col_occupied[x] == col_pass[x]]
    if not rows and not columns:
        return layout, 0, 0
    return _delete_lines(layout, rows, columns), len(rows), len(columns)


def _delete_lines(
    layout: GateLayout, rows: list[int], columns: list[int]
) -> GateLayout:
    """Rebuild the layout without the given rows and columns, at once.

    Equals deleting them one at a time: coordinate remaps compose to a
    prefix-count shift, and bypass chains (a deleted wire whose fanin is
    itself deleted) resolve transitively.
    """
    row_set = set(rows)
    col_set = set(columns)
    # Prefix-count shift: new index = old index minus deletions strictly
    # before it.  Built in O(height + width) — the naive per-position
    # recount is quadratic when thousands of highway lines go at once.
    new_y = [0] * layout.height
    removed = 0
    for y in range(layout.height):
        new_y[y] = y - removed
        if y in row_set:
            removed += 1
    new_x = [0] * layout.width
    removed = 0
    for x in range(layout.width):
        new_x[x] = x - removed
        if x in col_set:
            removed += 1

    out = GateLayout(
        max(1, layout.width - len(columns)),
        max(1, layout.height - len(rows)),
        layout.scheme,
        layout.topology,
        layout.name,
    )
    # Walk the source in topological order, so a tile's fanins have been
    # moved before it.  A surviving tile moves to its shifted position; a
    # deleted wire is bypassed, standing for wherever its fanin moved, so
    # bypass chains resolve transitively.  The surviving rows read only
    # earlier rows, and a contraction keeps them distinct and in bounds
    # with their type, arity and layer: rows the layout adopts in bulk.
    tiles = layout._tiles
    new = tuple.__new__
    moved: dict[Tile, Tile] = {}
    targets: list[Tile] = []
    gates: list[LayoutGate] = []
    for tile in layout.topological_tiles():
        x, y, z = tile
        gate_type, fanins, name = tiles[tile]
        if y in row_set or x in col_set:
            moved[tile] = moved[fanins[0]]
            continue
        target = moved[tile] = new(Tile, (new_x[x], new_y[y], z))
        targets.append(target)
        gates.append(
            new(LayoutGate, (gate_type, tuple(map(moved.__getitem__, fanins)), name))
        )
    out._adopt(targets, gates)
    out._pis = list(map(moved.__getitem__, layout._pis))
    out._pos = list(map(moved.__getitem__, layout._pos))
    return out
