"""Clocking-aware A* wire routing.

All physical design algorithms in this reproduction share one router: an
A* search over the clocked tile grid that connects a placed driver tile
to a placed target tile with wire segments, using the crossing layer
(``z = 1``) to hop over existing wires where necessary.

The router honours the layout's clocking scheme — a step from tile *u*
to tile *v* is admissible only when ``zone(v) == zone(u) + 1 (mod 4)`` —
so on 2DDWave the search space automatically degenerates to monotone
east/south staircases, while feedback-capable schemes (USE, RES, ESR)
expose their full loop structure.

The search is one index-level A* kernel, :func:`_astar`, over flat
integer nodes ``z * width * height + y * width + x`` with per-grid
search arenas (:class:`_RouteArena`): successor tables derived from the
precomputed clock-neighbour tables
(:func:`repro.layout.clocking.neighbor_tables`) plus open/closed state,
eager lists on dense grids and lazily filled maps on sparse ones, so the
hot loop does no ``Tile`` allocation and no zone arithmetic.  The exact
search calls it directly on indices; :func:`find_path` is its ``Tile``
wrapper.  It expands nodes in f-score order and breaks ties by
insertion order, so equal inputs give bit-identical paths.  Irregular
schemes (OPEN) carry no zone arithmetic to derive successors from, so
:func:`find_path` and :func:`route` refuse them up front, as
:func:`~repro.physical_design.exact.exact_layout` does.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, defaultdict
from dataclasses import dataclass

from ..networks.logic_network import GateType
from ..layout.clocking import ClockingScheme, neighbor_tables
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import DENSE_AREA_LIMIT, GateLayout, is_sparse_area


@dataclass(frozen=True)
class RoutingOptions:
    """Knobs shared by all routing calls."""

    allow_crossings: bool = True
    #: Additional cost per crossing (discourages the z = 1 layer).
    crossing_penalty: int = 2
    #: Hard bound on the wire length (tiles between driver and target).
    max_length: int | None = None
    #: Hard bound on A* node expansions, to keep exact search bounded.
    max_expansions: int = 20000
    #: Positions the path must not use (escape corridors of signals that
    #: still have readers waiting; see the ortho sealing checks).
    avoid: frozenset = frozenset()
    #: On monotone schemes (2DDWave: data only flows east/south) never
    #: expand nodes beyond the target's column or row — such nodes can
    #: reach the target by no admissible step sequence, so pruning them
    #: cannot change the returned path, only the work done to find it.
    #: PLO always prunes.  Off by default because ortho, NanoPlaceR and
    #: exact bound each search by ``max_expansions``: with fewer nodes
    #: expanded, a search that now runs out of budget could succeed, so
    #: turning it on there could change the layouts they build.
    prune_dominated: bool = False


def find_path(
    layout: GateLayout,
    source: Tile,
    target: Tile,
    options: RoutingOptions = RoutingOptions(),
) -> list[Tile] | None:
    """Find a wire path from ``source``'s element to ``target``'s tile.

    ``source`` must be occupied (the driver); ``target`` may be occupied
    (routing into an already-placed gate) or free (the caller will place
    a gate there afterwards).  The returned list starts with ``source``
    and ends with ``target``; intermediate entries are free positions
    (possibly on the crossing layer) where wires can be placed.

    Returns ``None`` when no admissible path exists within the options'
    limits.  Raises ``ValueError`` for an irregular clocking scheme.
    """
    if not layout.scheme.regular:
        raise ValueError(
            f"routing needs a regular clocking scheme, got {layout.scheme.name!r}"
        )
    source, target = Tile(*source), Tile(*target)
    if not layout.is_occupied(source):
        raise ValueError(f"routing source {source} is empty")
    if source.ground == target.ground:
        return None
    width, height = layout.width, layout.height
    tx, ty = target.x, target.y
    if not (0 <= tx < width and 0 <= ty < height):
        return None
    n = width * height
    avoid = options.avoid
    if avoid:
        # Positions off the grid or off layers 0/1 can never be stepped
        # on; dropping them keeps them from aliasing onto real indices.
        avoid = {
            z * n + y * width + x
            for x, y, z in avoid
            if 0 <= x < width and 0 <= y < height and (z == 0 or z == 1)
        }
    cap = None if options.max_length is None else options.max_length + 1
    path = _astar(
        layout,
        (source.z * height + source.y) * width + source.x,
        ty * width + tx,
        avoid,
        options.allow_crossings,
        options.crossing_penalty,
        cap,
        options.max_expansions,
        options.prune_dominated,
    )
    if path is None:
        return None
    tiles = [Tile(i % width, i % n // width, i // n) for i in path[:-1]]
    tiles.append(target)
    return tiles


# -- search kernel ---------------------------------------------------------------------


class _RouteArena:
    """Per-grid search state for the A* kernel.

    Nodes are flat integers ``z * width * height + y * width + x``.
    ``succ[g]`` holds ground index ``g``'s clock-admissible in-bounds
    neighbour indices (in the order :func:`repro.layout.coordinates.neighbors`
    lists them) and ``xs[g]``/``ys[g]`` its coordinates, so the hot loop
    touches no Tile objects.  The backing is picked by the size test
    the occupancy grid uses (:func:`repro.layout.gate_layout.is_sparse_area`):

    * **dense** grids hold eager lists.  The successor table is built
      row by row from periodic ``zip``-of-``range`` slices, with only
      the border columns constructed tile by tile.  ``visit``,
      ``cost`` and ``parent`` are ``2 * width * height`` lists;
      ``visit`` carries a generation stamp, so bumping ``stamp``
      invalidates the whole closed set in O(1) and thousands of routing
      calls share the same arrays without clearing them;
    * **sparse** grids (above ``DENSE_AREA_LIMIT``) fill ``succ``,
      ``xs`` and ``ys`` lazily, one entry per node the searches reach,
      and leave ``visit``/``cost``/``parent`` as ``None``: each search
      gets fresh maps instead.  Memory follows the nodes expanded,
      not the canvas.

    :func:`_astar` indexes both backings the same way.
    """

    __slots__ = (
        "width", "height", "n_ground", "succ", "xs", "ys",
        "stamp", "visit", "cost", "parent",
    )

    def __init__(self, width: int, height: int, scheme: ClockingScheme, topology: Topology) -> None:
        tables = neighbor_tables(scheme, topology)
        self.width = width
        self.height = height
        n = width * height
        self.n_ground = n
        self.stamp = 0
        if is_sparse_area(width, height):
            self.succ = _LazySuccessors(width, height, tables)
            self.xs = _LazyColumns(width)
            self.ys = _LazyRows(width)
            self.visit = self.cost = self.parent = None
            return
        self.succ = _successor_table(width, height, tables)
        self.xs = list(range(width)) * height
        ys: list[int] = []
        for y in range(height):
            ys += [y] * width
        self.ys = ys
        self.visit = [0] * (2 * n)
        self.cost = [0] * (2 * n)
        self.parent = [0] * (2 * n)


def _cell_successors(x: int, y: int, width: int, height: int, tables) -> tuple[int, ...]:
    """Ground indices tile ``(x, y)`` may send data into (one tile's entry)."""
    cell: list[int] = []
    for dx, dy in tables.outgoing[y % tables.period_y][x % tables.period_x]:
        nx, ny = x + dx, y + dy
        if 0 <= nx < width and 0 <= ny < height:
            cell.append(ny * width + nx)
    return tuple(cell)


def _successor_table(width: int, height: int, tables) -> list[tuple[int, ...]]:
    """The dense successor table, entry for entry `_cell_successors`.

    Columns ``lo..hi`` keep every horizontal offset on the grid, so
    within one row the entries of a residue class ``x ≡ r (mod
    period_x)`` are the same offsets added to an arithmetic run of
    indices: one ``zip`` over ``range`` objects builds them all in C.
    Only the border columns outside ``lo..hi`` go tile by tile.
    """
    px, py = tables.period_x, tables.period_y
    out_rows = tables.outgoing
    dxs = [dx for row in out_rows for cell in row for dx, _ in cell]
    lo = max(0, -min(dxs, default=0))
    hi = width - 1 - max(0, max(dxs, default=0))
    border = [x for x in range(width) if x < lo or x > hi]
    succ: list[tuple[int, ...]] = [()] * (width * height)
    for y in range(height):
        base = y * width
        row = out_rows[y % py]
        for r in range(px):
            first = lo + (r - lo) % px
            if first > hi:
                continue
            count = (hi - first) // px + 1
            start = base + first
            stop = start + (count - 1) * px + 1
            offsets = [dy * width + dx for dx, dy in row[r] if 0 <= y + dy < height]
            if offsets:
                succ[start:stop:px] = zip(
                    *[range(start + o, stop + o, px) for o in offsets]
                )
            else:
                succ[start:stop:px] = [()] * count
        for x in border:
            succ[base + x] = _cell_successors(x, y, width, height, tables)
    return succ


class _LazySuccessors(dict):
    """Sparse-backing successor table: entries built on first lookup."""

    __slots__ = ("width", "height", "tables")

    def __init__(self, width: int, height: int, tables) -> None:
        super().__init__()
        self.width = width
        self.height = height
        self.tables = tables

    def __missing__(self, g: int) -> tuple[int, ...]:
        y, x = divmod(g, self.width)
        cell = self[g] = _cell_successors(x, y, self.width, self.height, self.tables)
        return cell


class _LazyColumns(dict):
    """Sparse-backing ``xs``: ``g % width``, stored on first lookup."""

    __slots__ = ("width",)

    def __init__(self, width: int) -> None:
        super().__init__()
        self.width = width

    def __missing__(self, g: int) -> int:
        x = self[g] = g % self.width
        return x


class _LazyRows(_LazyColumns):
    """Sparse-backing ``ys``: ``g // width``, stored on first lookup."""

    __slots__ = ()

    def __missing__(self, g: int) -> int:
        y = self[g] = g // self.width
        return y


class _ArenaPool:
    """Process-wide LRU pool of dense arenas, bounded by retained area.

    An arena's successor tables depend only on (size, scheme, topology)
    and its open/closed sets are generation-stamped, so one arena safely
    serves every layout of the same shape — post-layout optimization,
    database-wide sweeps and the exact search's per-ratio grids reroute
    across thousands of short-lived layouts and clones, and this keeps
    them from re-deriving the tables each time.  The pool keeps at most
    ``max_area`` tiles' worth of arenas (the newest one always stays),
    evicting the least recently used first.  Sparse arenas are never
    pooled: they are cheap to create and their lazily filled tables
    belong to the layout that filled them.
    """

    def __init__(self, max_area: int) -> None:
        self.max_area = max_area
        self.area = 0
        self._arenas: OrderedDict[tuple, _RouteArena] = OrderedDict()

    def get(
        self, width: int, height: int, scheme: ClockingScheme, topology: Topology
    ) -> _RouteArena:
        key = (width, height, scheme, topology)
        arenas = self._arenas
        arena = arenas.get(key)
        if arena is not None:
            arenas.move_to_end(key)
            return arena
        arena = _RouteArena(width, height, scheme, topology)
        if arena.visit is None:
            return arena
        arenas[key] = arena
        self.area += arena.n_ground
        while self.area > self.max_area and len(arenas) > 1:
            _, evicted = arenas.popitem(last=False)
            self.area -= evicted.n_ground
        return arena

    def clear(self) -> None:
        self._arenas.clear()
        self.area = 0


#: At most one largest dense grid's worth of tiles: a long ``optimize``
#: worker cannot pile up megatile arenas, while the exact search's many
#: small per-ratio grids all stay cached.
_ARENA_POOL = _ArenaPool(DENSE_AREA_LIMIT)


def _arena_for(layout: GateLayout) -> _RouteArena:
    """The layout's search arena (pooled when dense, reset on resize)."""
    arena = layout._route_arena
    if arena is None:
        arena = _ARENA_POOL.get(
            layout.width, layout.height, layout.scheme, layout.topology
        )
        layout._route_arena = arena
    return arena


def _astar(
    layout,
    src_idx: int,
    t_gidx: int,
    avoid,
    allow_cross: bool,
    cpen: int,
    cap: int | None,
    max_exp: int,
    prune_dominated: bool = False,
) -> list[int] | None:
    """The index-level A* kernel shared by ``find_path`` and the exact search.

    Routes from node ``src_idx`` to ground index ``t_gidx`` of
    ``layout`` (a :class:`GateLayout` or any object with its ``width``,
    ``height``, ``scheme``, ``topology``, ``_grid`` and ``_route_arena``).
    Nodes are flat ``z * width * height + y * width + x`` indices;
    ``avoid`` holds node indices the path must not use, ``cap`` bounds
    the path cost (``max_length + 1``, or ``None``) and ``max_exp`` the
    node expansions.  Returns the node indices from ``src_idx`` to
    ``t_gidx``, or ``None`` when no admissible path exists.
    """
    arena = _arena_for(layout)
    arena.stamp += 1
    stamp = arena.stamp
    visit, costs, parents, succ = arena.visit, arena.cost, arena.parent, arena.succ
    if visit is None:  # sparse backing: this search's own maps
        visit, costs, parents = defaultdict(int), {}, {}
    xs, ys = arena.xs, arena.ys
    n_ground = arena.n_ground
    ground, above = layout._grid[0], layout._grid[1]
    buf = GateType.BUF
    hexa = layout.topology is not Topology.CARTESIAN
    prune = prune_dominated and not hexa and layout.scheme.diagonal
    tx, ty = xs[t_gidx], ys[t_gidx]

    if hexa:
        taq = tx - (ty + (ty & 1)) // 2

        def h(gidx: int) -> int:
            y = ys[gidx]
            aq = xs[gidx] - (y + (y & 1)) // 2
            return (abs(aq - taq) + abs(y - ty) + abs(aq + y - taq - ty)) // 2

    else:
        h = None

    visit[src_idx] = stamp
    costs[src_idx] = 0
    src_gidx = src_idx - n_ground if src_idx >= n_ground else src_idx
    if h is None:
        h0 = abs(xs[src_gidx] - tx) + abs(ys[src_gidx] - ty)
    else:
        h0 = h(src_gidx)
    heap: list[tuple[int, int, int, int]] = [(h0, 0, 0, src_idx)]
    counter = 1
    expansions = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    while heap:
        _, _, cost, idx = heappop(heap)
        if cost > costs[idx]:
            continue
        gidx = idx - n_ground if idx >= n_ground else idx
        if gidx == t_gidx and idx != src_idx:
            path = [idx]
            while idx != src_idx:
                idx = parents[idx]
                path.append(idx)
            path.reverse()
            return path
        expansions += 1
        if expansions > max_exp:
            return None
        for n_g in succ[gidx]:
            if n_g == t_gidx:
                step_idx = n_g
                step_cost = cost + 1
            elif prune and (xs[n_g] > tx or ys[n_g] > ty):
                continue
            else:
                gate = ground[n_g]
                if gate is None:
                    # Stepping under an existing crossing-layer wire is
                    # itself a crossing; honour allow_crossings.
                    if not allow_cross and above[n_g] is not None:
                        continue
                    if avoid and n_g in avoid:
                        continue
                    step_idx = n_g
                    step_cost = cost + 1
                elif allow_cross and gate.gate_type is buf and above[n_g] is None:
                    step_idx = n_g + n_ground
                    if avoid and step_idx in avoid:
                        continue
                    step_cost = cost + 1 + cpen
                else:
                    continue
            if cap is not None and step_cost > cap:
                continue
            if visit[step_idx] == stamp and step_cost >= costs[step_idx]:
                continue
            visit[step_idx] = stamp
            costs[step_idx] = step_cost
            parents[step_idx] = idx
            if h is None:
                f = step_cost + abs(xs[n_g] - tx) + abs(ys[n_g] - ty)
            else:
                f = step_cost + h(n_g)
            heappush(heap, (f, counter, step_cost, step_idx))
            counter += 1
    return None


# -- materialisation -------------------------------------------------------------------


def route(
    layout: GateLayout,
    source: Tile,
    target: Tile,
    options: RoutingOptions = RoutingOptions(),
) -> Tile | None:
    """Route ``source`` → ``target`` and materialise the wire segments.

    Returns the tile the target's gate should list as fanin (the last
    wire segment, or ``source`` itself for adjacent connections); ``None``
    if no path exists.  The target tile itself is *not* modified: when it
    is already occupied the caller typically follows up with
    ``layout.replace_fanin``; when it is free the caller places the gate.
    """
    path = find_path(layout, source, target, options)
    if path is None:
        return None
    previous = path[0]
    for position in path[1:-1]:
        layout.create_wire(position, previous)
        previous = position
    return previous


def unroute(layout: GateLayout, fanin_end: Tile, source: Tile) -> None:
    """Remove the chain of wires ending at ``fanin_end`` back to ``source``.

    Used for backtracking: deletes wire segments (which must form a
    single-reader chain) until reaching ``source`` or a tile with other
    readers.  Crossing-layer segments are removed exactly like ground
    segments (each wire records its own layer in its tile), so a
    route → unroute round-trip restores the layout bit for bit; the
    regression tests in ``tests/physical_design/test_unroute.py`` pin
    this down, including second-layer crossings and shared fanout stubs.
    """
    current = Tile(*fanin_end)
    source = Tile(*source)
    seen: set[Tile] = set()
    while current != source and current not in seen:
        seen.add(current)
        gate = layout.get(current)
        if gate is None or gate.gate_type is not GateType.BUF:
            break
        if layout.fanout_degree(current) > 0:
            break
        predecessor = gate.fanins[0]
        layout.remove(current)
        current = predecessor
