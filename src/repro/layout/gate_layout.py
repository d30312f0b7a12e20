"""Clocked gate-level FCN layouts.

A :class:`GateLayout` is a bounded grid of clocked tiles, each optionally
hosting one layout element: a primary input/output pad, a logic gate, a
wire segment (modelled, as in *fiction*, as a ``BUF`` node), or — on the
crossing layer ``z = 1`` — a second wire crossing over the ground layer.

Connectivity is explicit: every element stores the tiles its fanin
signals come from.  All structural legality rules (adjacency, clocking
consistency, arities) are checked by :mod:`repro.layout.verification`;
the data structure itself only guards against double-occupancy and
dangling references so that algorithms can build layouts incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..networks.logic_network import GateType, LogicNetwork
from .clocking import OPEN, ClockingScheme, neighbor_tables
from .coordinates import Tile, Topology, adjacent, neighbors

#: Above this many positions per layer the occupancy arrays switch to a
#: sparse dict backend.  Sparse-ortho canvases for ISCAS85/EPFL circuits
#: are O(n²) tiles with only O(n) occupied — materialising the dense
#: flat lists for an 11k-gate circuit costs gigabytes before the layout
#: is even placed.  Small layouts keep the dense lists: direct list
#: indexing is faster than dict probing on the A*/SAT hot paths.
DENSE_AREA_LIMIT = 1 << 20


class _SparseLayer:
    """Dict-backed stand-in for one dense flat occupancy list.

    Speaks the ``layer[index]`` / ``layer[index] = gate`` protocol of
    the dense ``list`` layers — including ``layer[index] = None`` to
    clear a position — so direct ``_grid`` consumers (the router, the
    exact engine's frontier scans) work unchanged on layouts whose
    bounding canvas is too large to materialise densely.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: dict[int, LayoutGate] | None = None) -> None:
        self._cells: dict[int, LayoutGate] = cells if cells is not None else {}

    def __getitem__(self, index: int) -> LayoutGate | None:
        return self._cells.get(index)

    def __setitem__(self, index: int, gate: LayoutGate | None) -> None:
        if gate is None:
            self._cells.pop(index, None)
        else:
            self._cells[index] = gate

    def copy(self) -> "_SparseLayer":
        return _SparseLayer(dict(self._cells))


def _raster_key(tile: Tile) -> tuple[int, int, int]:
    return (tile.y, tile.x, tile.z)


@dataclass(frozen=True)
class WireSegment:
    """A maximal straight run of chained wire segments.

    ``tiles`` lists the run in signal order; consecutive tiles advance
    by the same ground-projection step (``dx``, ``dy``), the crossing
    layer is free to hop mid-run (L-path wires drop to ``z = 1`` over
    occupied ground tiles).  Produced by
    :meth:`GateLayout.wire_segments`; every wire of a layout belongs to
    exactly one segment.
    """

    tiles: tuple[Tile, ...]
    dx: int
    dy: int

    @property
    def start(self) -> Tile:
        return self.tiles[0]

    @property
    def end(self) -> Tile:
        return self.tiles[-1]

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def horizontal(self) -> bool:
        return self.dy == 0 and self.dx != 0

    @property
    def vertical(self) -> bool:
        return self.dx == 0 and self.dy != 0


@dataclass(frozen=True)
class LayoutGate:
    """One occupied tile: its function, fanin tiles, and optional name."""

    gate_type: GateType
    fanins: tuple[Tile, ...] = ()
    name: str | None = None

    @property
    def is_wire(self) -> bool:
        return self.gate_type is GateType.BUF

    @property
    def is_pi(self) -> bool:
        return self.gate_type is GateType.PI

    @property
    def is_po(self) -> bool:
        return self.gate_type is GateType.PO

    @property
    def is_fanout(self) -> bool:
        return self.gate_type is GateType.FANOUT

    @property
    def is_logic(self) -> bool:
        return not (self.is_wire or self.is_pi or self.is_po or self.is_fanout)


class GateLayout:
    """A gate-level layout on a clocked Cartesian or hexagonal grid."""

    def __init__(
        self,
        width: int,
        height: int,
        scheme: ClockingScheme,
        topology: Topology = Topology.CARTESIAN,
        name: str = "",
    ) -> None:
        if width < 1 or height < 1:
            raise ValueError("layout dimensions must be positive")
        self.width = width
        self.height = height
        self.scheme = scheme
        self.topology = topology
        self.name = name
        self._tiles: dict[Tile, LayoutGate] = {}
        self._pis: list[Tile] = []
        self._pos: list[Tile] = []
        self._zones: dict[Tile, int] = {}
        self._readers: dict[Tile, list[Tile]] = {}
        # Flat per-layer occupancy arrays (index ``y * width + x``): the
        # hot-path read side of the structure.  ``_tiles`` stays the
        # canonical insertion-ordered view for iteration/serialisation.
        # Above DENSE_AREA_LIMIT the layers are sparse dicts speaking
        # the same indexing protocol (see :class:`_SparseLayer`).
        self._grid = self._make_grid(width, height)
        self._ground_occupied = 0
        self._border_occupied = 0
        #: Reusable A* search arena, owned by the router (see
        #: :mod:`repro.physical_design.routing`); invalidated on resize.
        self._route_arena = None
        if scheme.regular:
            tables = neighbor_tables(scheme, topology)
            self._clock_tables = tables
            self._zone_rows = tables.zones
            self._out_rows = tables.outgoing
            self._in_rows = tables.incoming
            self._period_x = tables.period_x
            self._period_y = tables.period_y
        else:
            self._clock_tables = None

    @staticmethod
    def _make_grid(width: int, height: int):
        if width * height > DENSE_AREA_LIMIT:
            return [_SparseLayer(), _SparseLayer()]
        return [[None] * (width * height), [None] * (width * height)]

    def uses_sparse_grid(self) -> bool:
        """True when the occupancy arrays use the sparse dict backend."""
        return isinstance(self._grid[0], _SparseLayer)

    # -- geometry ------------------------------------------------------------

    def in_bounds(self, tile: Tile) -> bool:
        return 0 <= tile.x < self.width and 0 <= tile.y < self.height and tile.z in (0, 1)

    def resize(self, width: int, height: int) -> None:
        """Grow or shrink the grid; occupied tiles must stay in bounds."""
        for tile in self._tiles:
            if tile.x >= width or tile.y >= height:
                raise ValueError(f"cannot shrink: tile {tile} occupied")
        self.width = width
        self.height = height
        self._grid = self._make_grid(width, height)
        for tile, gate in self._tiles.items():
            self._grid[tile.z][tile.y * width + tile.x] = gate
        self._border_occupied = sum(
            1 for t in self._tiles if t.z == 0 and self._on_border(t)
        )
        self._route_arena = None

    def _on_border(self, tile: Tile) -> bool:
        return (
            tile.x in (0, self.width - 1)
            or tile.y in (0, self.height - 1)
        )

    def area(self) -> int:
        """Layout area in tiles (``width × height``), as in Table I."""
        return self.width * self.height

    def bounding_box(self) -> tuple[int, int]:
        """Width/height of the minimal box enclosing all occupied tiles."""
        if not self._tiles:
            return 0, 0
        max_x = max(t.x for t in self._tiles)
        max_y = max(t.y for t in self._tiles)
        return max_x + 1, max_y + 1

    def shrink_to_fit(self) -> None:
        """Crop the grid to the occupied bounding box."""
        w, h = self.bounding_box()
        if w and h and (w, h) != (self.width, self.height):
            self.resize(w, h)

    # -- clocking --------------------------------------------------------------

    def zone(self, tile: Tile) -> int:
        """Clock zone of ``tile``."""
        if self._clock_tables is not None:
            return self._zone_rows[tile.y % self._period_y][tile.x % self._period_x]
        return self._zones.get(tile.ground, 0)

    def assign_zone(self, tile: Tile, zone: int) -> None:
        """Assign an explicit zone (OPEN clocking only)."""
        if self.scheme.regular:
            raise ValueError(f"{self.scheme.name} derives zones; cannot assign")
        if not 0 <= zone < self.scheme.num_phases:
            raise ValueError(f"zone {zone} out of range")
        self._zones[tile.ground] = zone

    def is_incoming_clocked(self, target: Tile, source: Tile) -> bool:
        """True if the clocking admits data flow ``source`` → ``target``."""
        return (self.zone(source) + 1) % self.scheme.num_phases == self.zone(target)

    def outgoing_tiles(self, tile: Tile) -> list[Tile]:
        """In-bounds neighbours that ``tile`` may send data into."""
        if self._clock_tables is None:
            return [
                t
                for t in neighbors(self.topology, tile.ground, self.width, self.height)
                if self.is_incoming_clocked(t, tile)
            ]
        x, y, w, h = tile.x, tile.y, self.width, self.height
        offsets = self._out_rows[y % self._period_y][x % self._period_x]
        out = []
        for dx, dy in offsets:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                out.append(Tile(nx, ny))
        return out

    def incoming_tiles(self, tile: Tile) -> list[Tile]:
        """In-bounds neighbours that may send data into ``tile``."""
        if self._clock_tables is None:
            return [
                t
                for t in neighbors(self.topology, tile.ground, self.width, self.height)
                if self.is_incoming_clocked(tile, t)
            ]
        x, y, w, h = tile.x, tile.y, self.width, self.height
        offsets = self._in_rows[y % self._period_y][x % self._period_x]
        out = []
        for dx, dy in offsets:
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                out.append(Tile(nx, ny))
        return out

    # -- occupancy ---------------------------------------------------------------

    def get(self, tile: Tile) -> LayoutGate | None:
        try:
            x, y, z = tile
        except ValueError:
            x, y = tile
            z = 0
        if 0 <= x < self.width and 0 <= y < self.height and (z == 0 or z == 1):
            return self._grid[z][y * self.width + x]
        return None

    def is_occupied(self, tile: Tile) -> bool:
        return self.get(tile) is not None

    def num_free_ground(self) -> int:
        """Unoccupied ground-layer tiles, maintained in O(1)."""
        return self.width * self.height - self._ground_occupied

    def num_free_border(self) -> int:
        """Unoccupied ground-layer border positions, maintained in O(1)."""
        w, h = self.width, self.height
        border = 2 * (w + h) - 4 if w > 1 and h > 1 else w * h
        return border - self._border_occupied

    def __len__(self) -> int:
        """Number of occupied tiles."""
        return len(self._tiles)

    def tiles(self):
        """All occupied (tile, element) pairs, in insertion order."""
        return iter(self._tiles.items())

    def sparse_tiles(self):
        """Occupied (tile, element) pairs in raster order — O(n log n).

        Raster order is (y, x, z): row-major over the ground projection
        with the crossing layer directly after its ground tile.  The
        sequence is exactly what :meth:`dense_tiles` yields, but derived
        from the occupied set alone, never touching empty positions.
        """
        tiles = self._tiles
        for tile in sorted(tiles, key=_raster_key):
            yield tile, tiles[tile]

    def dense_tiles(self):
        """Reference raster scan over the full grid — O(area).

        Retained as the oracle for :meth:`sparse_tiles`: it walks every
        position of both layers in (y, x, z) order and yields the
        occupied ones, so differential tests can prove the sparse walk
        visits the same tiles in the same order.
        """
        width = self.width
        ground, above = self._grid[0], self._grid[1]
        for y in range(self.height):
            base = y * width
            for x in range(width):
                gate = ground[base + x]
                if gate is not None:
                    yield Tile(x, y, 0), gate
                gate = above[base + x]
                if gate is not None:
                    yield Tile(x, y, 1), gate

    def wire_segments(self) -> list[WireSegment]:
        """Run-length decomposition of the wiring — O(wires).

        A wire continues its fanin's segment when the fanin is itself a
        wire, the ground-projection step is the same as the fanin's own
        incoming step, and no sibling reader competes for the same
        straight continuation.  Everything else starts a new segment, so
        segments are maximal straight chains, each wire belongs to
        exactly one, and corners/fanouts/crossing entries all break
        runs.  Segments are returned with their heads in raster order.
        """
        tiles = self._tiles
        readers = self._readers
        parent: dict[Tile, Tile] = {}
        successor: dict[Tile, Tile] = {}
        for tile, gate in tiles.items():
            if gate.gate_type is not GateType.BUF:
                continue
            fanin = gate.fanins[0]
            fanin_gate = tiles.get(fanin)
            if fanin_gate is None or fanin_gate.gate_type is not GateType.BUF:
                continue
            step = (fanin.x - fanin_gate.fanins[0].x, fanin.y - fanin_gate.fanins[0].y)
            if (tile.x - fanin.x, tile.y - fanin.y) != step:
                continue
            contested = False
            for sibling in readers.get(fanin, ()):
                if sibling == tile:
                    continue
                other = tiles.get(sibling)
                if (
                    other is not None
                    and other.gate_type is GateType.BUF
                    and (sibling.x - fanin.x, sibling.y - fanin.y) == step
                ):
                    contested = True
                    break
            if contested:
                continue
            parent[tile] = fanin
            successor[fanin] = tile
        heads = sorted(
            (
                tile
                for tile, gate in tiles.items()
                if gate.gate_type is GateType.BUF and tile not in parent
            ),
            key=_raster_key,
        )
        segments: list[WireSegment] = []
        for head in heads:
            run = [head]
            while True:
                nxt = successor.get(run[-1])
                if nxt is None:
                    break
                run.append(nxt)
            if len(run) > 1:
                dx, dy = run[1].x - run[0].x, run[1].y - run[0].y
            else:
                fanin = tiles[head].fanins[0]
                dx, dy = head.x - fanin.x, head.y - fanin.y
            segments.append(WireSegment(tuple(run), dx, dy))
        return segments

    def pis(self) -> list[Tile]:
        return list(self._pis)

    def pos(self) -> list[Tile]:
        return list(self._pos)

    # -- element creation -----------------------------------------------------------

    def _place(self, tile: Tile, gate: LayoutGate) -> Tile:
        x, y, z = tile
        width = self.width
        if not (0 <= x < width and 0 <= y < self.height and (z == 0 or z == 1)):
            raise ValueError(f"tile {tile} out of bounds ({width}×{self.height})")
        index = y * width + x
        grid = self._grid[z]
        if grid[index] is not None:
            raise ValueError(f"tile {tile} already occupied")
        tiles = self._tiles
        for fanin in gate.fanins:
            if fanin not in tiles:
                raise ValueError(f"fanin tile {fanin} of {tile} is empty")
        if z == 1 and gate.gate_type is not GateType.BUF:
            raise ValueError("crossing layer admits only wire segments")
        tiles[tile] = gate
        grid[index] = gate
        if z == 0:
            self._ground_occupied += 1
            if x == 0 or y == 0 or x == width - 1 or y == self.height - 1:
                self._border_occupied += 1
        readers = self._readers
        for fanin in gate.fanins:
            bucket = readers.get(fanin)
            if bucket is None:
                readers[fanin] = [tile]
            else:
                bucket.append(tile)
        return tile

    def create_pi(self, tile: Tile, name: str | None = None) -> Tile:
        """Place a primary input pad."""
        tile = Tile(*tile)
        self._place(tile, LayoutGate(GateType.PI, (), name))
        self._pis.append(tile)
        return tile

    def create_po(self, tile: Tile, fanin: Tile, name: str | None = None) -> Tile:
        """Place a primary output pad reading from ``fanin``."""
        tile, fanin = Tile(*tile), Tile(*fanin)
        self._place(tile, LayoutGate(GateType.PO, (fanin,), name))
        self._pos.append(tile)
        return tile

    def create_gate(self, gate_type: GateType, tile: Tile, fanins, name: str | None = None) -> Tile:
        """Place a logic gate (or fanout) reading from ``fanins``."""
        tile = Tile(*tile)
        fanins = tuple(Tile(*f) for f in fanins)
        if gate_type in (GateType.PI, GateType.PO):
            raise ValueError("use create_pi/create_po for I/O pads")
        if gate_type.is_source:
            raise ValueError("constants are not placed on tiles")
        if len(fanins) != gate_type.arity:
            raise ValueError(
                f"{gate_type.value} expects {gate_type.arity} fanins, got {len(fanins)}"
            )
        return self._place(tile, LayoutGate(gate_type, fanins, name))

    def create_wire(self, tile: Tile, fanin: Tile) -> Tile:
        """Place a wire segment forwarding the signal from ``fanin``."""
        if tile.__class__ is not Tile:
            tile = Tile(*tile)
        if fanin.__class__ is not Tile:
            fanin = Tile(*fanin)
        return self._place(tile, LayoutGate(GateType.BUF, (fanin,)))

    def create_wire_run(self, positions, fanin: Tile) -> Tile:
        """Place a straight run of wire segments in one call.

        ``positions`` are ground-projection ``(x, y)`` coordinates in
        signal order; each segment chains off the previous one (the
        first reads ``fanin``).  A segment lands on the ground layer
        unless that position is occupied, falling back to the crossing
        layer; if both layers are taken a ``ValueError`` is raised and
        the partial run stays placed.  Returns the last tile placed —
        ``fanin`` when ``positions`` is empty.

        This is the run-length emission path of sparse ortho's L-path
        router: one call per straight leg instead of a per-tile loop of
        ``is_occupied``/``create_wire`` pairs.
        """
        previous = fanin if fanin.__class__ is Tile else Tile(*fanin)
        ground = self._grid[0]
        width = self.width
        buf = GateType.BUF
        for x, y in positions:
            z = 1 if ground[y * width + x] is not None else 0
            previous = self._place(Tile(x, y, z), LayoutGate(buf, (previous,)))
        return previous

    # -- mutation ---------------------------------------------------------------------

    def remove(self, tile: Tile) -> LayoutGate:
        """Remove the element on ``tile``; readers keep dangling refs."""
        if tile.__class__ is not Tile:
            tile = Tile(*tile)
        gate = self._tiles.pop(tile, None)
        if gate is None:
            raise ValueError(f"tile {tile} is empty")
        x, y, z = tile
        self._grid[z][y * self.width + x] = None
        if z == 0:
            self._ground_occupied -= 1
            if x == 0 or y == 0 or x == self.width - 1 or y == self.height - 1:
                self._border_occupied -= 1
        if gate.is_pi:
            self._pis.remove(tile)
        if gate.is_po:
            self._pos.remove(tile)
        for fanin in gate.fanins:
            readers = self._readers.get(fanin)
            if readers and tile in readers:
                readers.remove(tile)
        return gate

    def replace_fanin(self, tile: Tile, old: Tile, new: Tile) -> None:
        """Rewire one fanin reference of the element on ``tile``."""
        tile = Tile(*tile)
        gate = self._tiles.get(tile)
        if gate is None:
            raise ValueError(f"tile {tile} is empty")
        if old not in gate.fanins:
            raise ValueError(f"{tile} does not read from {old}")
        # Replace only the FIRST occurrence: a gate may legitimately read
        # the same signal twice, and the reader bookkeeping below adjusts
        # exactly one entry per call.
        index = gate.fanins.index(old)
        fanins = tuple(
            new if i == index else f for i, f in enumerate(gate.fanins)
        )
        rewired = replace(gate, fanins=fanins)
        self._tiles[tile] = rewired
        self._grid[tile.z][tile.y * self.width + tile.x] = rewired
        readers = self._readers.get(old)
        if readers and tile in readers:
            readers.remove(tile)
        self._readers.setdefault(new, []).append(tile)

    def move(self, old_tile: Tile, new_tile: Tile, new_fanins=None) -> None:
        """Relocate an element, rewiring its readers to the new tile."""
        old_tile, new_tile = Tile(*old_tile), Tile(*new_tile)
        if old_tile == new_tile and new_fanins is None:
            return
        readers = self.readers(old_tile)
        pi_index = self._pis.index(old_tile) if old_tile in self._pis else None
        po_index = self._pos.index(old_tile) if old_tile in self._pos else None
        gate = self.remove(old_tile)
        if new_fanins is not None:
            gate = replace(gate, fanins=tuple(Tile(*f) for f in new_fanins))
        self._place(new_tile, gate)
        # Preserve interface ordering: re-insert at the original position.
        if pi_index is not None:
            self._pis.insert(pi_index, new_tile)
        if po_index is not None:
            self._pos.insert(po_index, new_tile)
        for reader in readers:
            if reader in self._tiles:
                self.replace_fanin(reader, old_tile, new_tile)

    # -- connectivity -------------------------------------------------------------------

    def readers(self, tile: Tile) -> list[Tile]:
        """Tiles whose element reads from ``tile``."""
        return list(self._readers.get(Tile(*tile), []))

    def fanout_degree(self, tile: Tile) -> int:
        return len(self.readers(tile))

    def topological_tiles(self, order_source=None) -> list[Tile]:
        """Occupied tiles in dataflow topological order.

        ``order_source`` optionally fixes the seed/scan order with an
        iterable of (tile, element) pairs — e.g. :meth:`sparse_tiles`
        for an insertion-history-independent raster ordering; the
        default is insertion order.  Raises ``ValueError`` if the
        connectivity graph has a cycle (possible on feedback-capable
        schemes with broken wiring).
        """
        pairs = self._tiles.items() if order_source is None else order_source
        indegree: dict[Tile, int] = {}
        for tile, gate in pairs:
            indegree[tile] = len(gate.fanins)
        ready = [t for t, d in indegree.items() if d == 0]
        order: list[Tile] = []
        tiles = self._tiles
        readers = self._readers
        while ready:
            tile = ready.pop()
            order.append(tile)
            for reader in readers.get(tile, ()):
                remaining = indegree[reader] - sum(
                    1 for f in tiles[reader].fanins if f == tile
                )
                indegree[reader] = remaining
                if remaining == 0:
                    ready.append(reader)
        if len(order) != len(self._tiles):
            raise ValueError("layout connectivity contains a cycle or dangling fanin")
        return order

    # -- statistics ----------------------------------------------------------------------

    def num_gates(self) -> int:
        """Logic gates plus fanouts (wires and I/O pads excluded)."""
        return sum(1 for g in self._tiles.values() if g.is_logic or g.is_fanout)

    def num_wires(self) -> int:
        """Wire segments, including crossing-layer segments."""
        return sum(1 for g in self._tiles.values() if g.is_wire)

    def num_crossings(self) -> int:
        """Occupied crossing-layer tiles."""
        return sum(1 for t in self._tiles if t.z == 1)

    # -- extraction ----------------------------------------------------------------------

    def extract_network(
        self, collapse_wires: bool = True, engine: str = "sparse"
    ) -> LogicNetwork:
        """Rebuild the implemented :class:`LogicNetwork` for verification.

        With ``collapse_wires`` (the default) wire segments and fanout
        tiles — identity functions that often make up the bulk of a
        routed layout — are aliased to their driver signal instead of
        materialised as ``BUF`` nodes.  The extracted network then
        carries only the logic content, which keeps word-level
        verification cost proportional to gate count rather than wire
        count.  Pass ``collapse_wires=False`` for the structural 1:1
        extraction (one node per occupied tile).

        The ``"sparse"`` engine (default) orders the emission by the
        raster walk of the occupied set (:meth:`sparse_tiles`) and the
        ``"reference"`` engine by the retained dense grid scan
        (:meth:`dense_tiles`); the walks yield the same sequence, so the
        two engines produce node-for-node identical networks — the
        differential relation the ``sparse_agreement`` oracle asserts.
        ``"insertion"`` keeps the legacy insertion-ordered emission.
        """
        if engine == "sparse":
            order = self.topological_tiles(self.sparse_tiles())
        elif engine == "reference":
            order = self.topological_tiles(self.dense_tiles())
        elif engine == "insertion":
            order = self.topological_tiles()
        else:
            raise ValueError(f"unknown extraction engine {engine!r}")
        ntk = LogicNetwork(self.name)
        signal: dict[Tile, int] = {}
        # PIs first, in placement order, so the network interface matches
        # the specification the layout was generated from.
        for tile in self._pis:
            signal[tile] = ntk.create_pi(self._tiles[tile].name)
        for tile in order:
            gate = self._tiles[tile]
            t = gate.gate_type
            if t is GateType.PI:
                continue
            if t is GateType.PO:
                continue
            if t in (GateType.BUF, GateType.FANOUT):
                if collapse_wires:
                    signal[tile] = signal[gate.fanins[0]]
                else:
                    signal[tile] = ntk.create_buf(signal[gate.fanins[0]])
            else:
                signal[tile] = ntk.create_gate(t, tuple(signal[f] for f in gate.fanins))
        # Emit POs in placement order for a stable interface.
        for tile in self._pos:
            gate = self._tiles[tile]
            ntk.create_po(signal[gate.fanins[0]], gate.name)
        return ntk

    def structurally_equal(self, other: "GateLayout") -> bool:
        """True when both layouts host identical elements at identical tiles.

        Compares topology, clocking scheme, dimensions, per-tile content
        (gate type, fanin references, names) and the PI/PO interface
        order — the relation serialisation round-trips and differential
        engine runs must preserve.  Explicit per-tile zone assignments
        (OPEN clocking) are compared as well.
        """
        if self is other:
            return True
        if (
            self.width != other.width
            or self.height != other.height
            or self.topology is not other.topology
            or self.scheme.name != other.scheme.name
        ):
            return False
        if self._pis != other._pis or self._pos != other._pos:
            return False
        if len(self._tiles) != len(other._tiles):
            return False
        for tile, gate in self._tiles.items():
            theirs = other._tiles.get(tile)
            if theirs is None or theirs != gate:
                return False
        return self._zones == other._zones

    def structural_diff(self, other: "GateLayout") -> str | None:
        """Human-readable first difference, or ``None`` when equal.

        The companion of :meth:`structurally_equal` for error reporting:
        oracle failures embed this string so a crash case is actionable
        without re-running the comparison by hand.
        """
        if self.width != other.width or self.height != other.height:
            return (
                f"dimensions differ: {self.width}x{self.height} vs "
                f"{other.width}x{other.height}"
            )
        if self.topology is not other.topology:
            return f"topology differs: {self.topology.value} vs {other.topology.value}"
        if self.scheme.name != other.scheme.name:
            return f"scheme differs: {self.scheme.name} vs {other.scheme.name}"
        if self._pis != other._pis:
            return f"PI order differs: {self._pis} vs {other._pis}"
        if self._pos != other._pos:
            return f"PO order differs: {self._pos} vs {other._pos}"
        for tile, gate in self._tiles.items():
            theirs = other._tiles.get(tile)
            if theirs is None:
                return f"{tile}: {gate.gate_type.value} missing from other layout"
            if theirs != gate:
                return f"{tile}: {gate} vs {theirs}"
        for tile in other._tiles:
            if tile not in self._tiles:
                return f"{tile}: extra {other._tiles[tile].gate_type.value} in other layout"
        if self._zones != other._zones:
            return "explicit zone assignments differ"
        return None

    def clone(self) -> "GateLayout":
        out = GateLayout(self.width, self.height, self.scheme, self.topology, self.name)
        out._tiles = dict(self._tiles)
        out._pis = list(self._pis)
        out._pos = list(self._pos)
        out._zones = dict(self._zones)
        out._readers = {k: list(v) for k, v in self._readers.items()}
        out._grid = [
            layer.copy() if isinstance(layer, _SparseLayer) else list(layer)
            for layer in self._grid
        ]
        out._ground_occupied = self._ground_occupied
        out._border_occupied = self._border_occupied
        return out

    # -- rendering ------------------------------------------------------------------------

    _GLYPHS = {
        GateType.PI: "I",
        GateType.PO: "O",
        GateType.BUF: "+",
        GateType.FANOUT: "F",
        GateType.AND: "&",
        GateType.NAND: "D",
        GateType.OR: "|",
        GateType.NOR: "R",
        GateType.XOR: "^",
        GateType.XNOR: "X",
        GateType.NOT: "~",
        GateType.MAJ: "M",
        GateType.MUX: "?",
    }

    def render(self) -> str:
        """ASCII art of the ground layer (crossings marked ``x``)."""
        rows = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                ground = self._tiles.get(Tile(x, y, 0))
                above = Tile(x, y, 1) in self._tiles
                if ground is None:
                    row.append(".")
                elif above:
                    row.append("x")
                else:
                    row.append(self._GLYPHS.get(ground.gate_type, "?"))
            indent = " " if self.topology is not Topology.CARTESIAN and y % 2 == 0 else ""
            rows.append(indent + " ".join(row))
        return "\n".join(rows)

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"GateLayout(name={self.name!r}, {self.width}×{self.height}, "
            f"{self.scheme.name}, {self.topology.short_name}, "
            f"gates={self.num_gates()}, wires={self.num_wires()})"
        )
