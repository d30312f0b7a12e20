"""Scalable OGD-based physical design (*ortho*, Walter et al. [6]).

The ortho algorithm targets the 2DDWave clocking scheme, in which all
information flows east and south.  Because every monotone staircase
between two tiles has the same length (Δx + Δy), path balancing is free
and placement reduces to an orthogonal-graph-drawing-style assignment.

The input network is decomposed into an AOIG (the network class the
published algorithm is formulated over — a 2DDWave tile has only two
usable input sides, west and north, so three-input gates cannot exist on
it) and fanout-substituted so every node drives one reader (fanout
tiles: two).

Two placement modes are provided:

* **Sparse (HV) mode** — the faithful reproduction of the published
  row/column discipline: every element claims a fresh column *and* a
  fresh row on the frontier diagonal, and every edge is routed as an
  L-shaped path, either *vertical-first* (south along the source's
  column, then east along the target's row, entering from the west) or
  *horizontal-first* (east along the source's row, then south along the
  target's column, entering from the north).  Rows and columns are each
  owned by exactly one element, so any tile carries at most one
  horizontal and one vertical wire — resolvable with the single crossing
  layer — which makes this mode conflict-free by construction and
  linear-time.  Edge-kind conflicts (e.g. a two-input gate whose fanins
  can both only leave horizontally) are resolved by relay buffers placed
  on the frontier diagonal, preserving the guarantee.

* **Compact mode** — a denser variant that packs gates next to their
  fanins with A*-routed staircases and escape-corridor bookkeeping; it
  produces smaller layouts on small functions but can fail on congested
  networks, in which case the call transparently falls back to sparse
  mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..layout.clocking import TWODDWAVE
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import GateLayout
from ..networks.logic_network import GateType, LogicNetwork
from ..networks.transforms import decompose_to_aoig, prepare_for_layout
from .routing import RoutingOptions, find_path, unroute


@dataclass
class OrthoParams:
    """Parameters of the ortho run."""

    routing: RoutingOptions = field(default_factory=RoutingOptions)
    #: Optional explicit PI order (list of PI indices); used by the
    #: input-ordering optimisation [8].
    pi_order: list[int] | None = None
    #: Try the dense packing first; fall back to sparse HV mode when a
    #: node cannot be placed.  ``False`` goes straight to sparse mode,
    #: which is the right choice for large networks.
    compact: bool = True
    #: Prepared-network element count above which compact mode is
    #: skipped even when ``compact`` is set.  Compact placement A*-routes
    #: on a dense canvas and degrades far beyond this size, while sparse
    #: HV mode is linear — ISCAS85/EPFL-scale runs go straight to it.
    compact_gate_limit: int = 200
    #: Keep native two-input gates (XOR/XNOR/NAND/NOR) instead of
    #: decomposing to AOIG — for Bestagon-targeted runs (45° flow).
    keep_two_input: bool = False


@dataclass
class OrthoResult:
    """The produced layout plus bookkeeping for the harnesses."""

    layout: GateLayout
    runtime_seconds: float
    mode: str = "sparse"


class OrthoError(RuntimeError):
    """Raised when placement cannot be completed."""


def orthogonal_layout(network: LogicNetwork, params: OrthoParams | None = None) -> OrthoResult:
    """Generate a 2DDWave gate-level layout for ``network`` with ortho."""
    params = params or OrthoParams()
    started = time.monotonic()
    ntk = prepare_for_layout(decompose_to_aoig(network, params.keep_two_input))
    return place_prepared(ntk, params, started)


def place_prepared(ntk: LogicNetwork, params: OrthoParams, started: float) -> OrthoResult:
    """Place an already prepared network (AOIG-decomposed and
    fanout-substituted, as :func:`orthogonal_layout` prepares it).

    ``params.keep_two_input`` is not consulted: the preparation already
    decided the gate set.  ``started`` is the :func:`time.monotonic`
    stamp the result's ``runtime_seconds`` counts from, so a caller can
    include its preparation.  The network is only read, so one prepared
    network serves any number of placements.
    """
    if params.compact:
        elements = (
            sum(1 for u in ntk.topological_order() if not ntk.is_constant(u))
            + ntk.num_pos()
        )
        if elements <= params.compact_gate_limit:
            try:
                return _run_compact(ntk, params, started)
            except OrthoError:
                pass
    return _run_sparse(ntk, params, started)


def _ordered_pis(ntk: LogicNetwork, params: OrthoParams) -> list[int]:
    pis = ntk.pis()
    if params.pi_order is not None:
        if sorted(params.pi_order) != list(range(len(pis))):
            raise ValueError("pi_order must be a permutation of PI indices")
        pis = [pis[i] for i in params.pi_order]
    return pis


# ---------------------------------------------------------------------------
# Sparse HV mode — conflict-free by construction
# ---------------------------------------------------------------------------

#: Vertical-first edges run down the source's column and enter the
#: target from the west; horizontal-first edges run east along the
#: source's row and enter from the north.
_V = "v"
_H = "h"


class _SparsePlacer:
    """State of a sparse HV run: frontier counters and corridor slots."""

    def __init__(self, ntk: LogicNetwork, params: OrthoParams) -> None:
        self.ntk = ntk
        order = [u for u in ntk.topological_order() if not ntk.is_constant(u)]
        self.order = order
        pis = _ordered_pis(ntk, params)
        # Canvas: each element (gate, PO, possible relay) claims one
        # column and one row; relays are rare, so a proportional margin
        # plus crop keeps memory bounded.
        elements = len(order) + ntk.num_pos()
        margin = max(8, elements // 2)
        self.layout = GateLayout(
            1 + elements + margin,
            len(pis) + elements + margin,
            TWODDWAVE,
            Topology.CARTESIAN,
            ntk.name,
        )
        self.position: dict[int, Tile] = {}
        #: Unconsumed outgoing corridors per placed element tile.
        self.slots: dict[Tile, list[str]] = {}
        self.next_col = 1
        self.next_row = 0
        for pi in pis:
            tile = self.layout.create_pi(Tile(0, self.next_row), ntk.node(pi).name)
            self.position[pi] = tile
            # PIs share column 0, so only their exclusive row is usable.
            self.slots[tile] = [_H]
            self.next_row += 1
        # The permutation moves the pads, not the interface: readers of
        # the layout must see PIs in the network's original order.
        self.layout._pis = [self.position[pi] for pi in ntk.pis()]

    def fresh_tile(self) -> Tile:
        tile = Tile(self.next_col, self.next_row)
        self.next_col += 1
        self.next_row += 1
        if not self.layout.in_bounds(tile):  # pragma: no cover - sized above
            raise OrthoError("sparse canvas exhausted")
        return tile

    def take_slot(self, source: Tile, kind: str) -> None:
        self.slots[source].remove(kind)

    def connect(self, source: Tile, target: Tile, kind: str) -> Tile:
        """Route source → target with an L-path; returns the fanin ref."""
        self.take_slot(source, kind)
        return _lay_l_path(self.layout, source, target, kind)

    def add_relay(self, source: Tile) -> Tile:
        """Insert a relay buffer when ``source`` cannot serve an edge kind.

        The relay claims a fresh column and row of its own (allocated
        *before* the consuming gate's tile, so it stays north-west of
        it), making both corridors available; the source reaches the
        relay with whatever corridor it still owns.
        """
        available = self.slots[source]
        if not available:
            raise OrthoError(f"source {source} has no outgoing corridor left")
        relay_tile = self.fresh_tile()
        ref = self.connect(source, relay_tile, available[0])
        self.layout.create_gate(GateType.BUF, relay_tile, [ref])
        self.slots[relay_tile] = [_V, _H]
        return relay_tile

    # -- placement plans ----------------------------------------------------

    def plan_single(self, source: Tile) -> tuple[Tile, list[tuple[Tile, str]]]:
        """Target position and edge plan for a one-fanin element.

        Adoption order mirrors the published ortho's colouring: extend
        the source's row east (no height growth), else its column south
        (no width growth), else claim a fresh diagonal slot.
        """
        available = self.slots[source]
        if _H in available:
            target = Tile(self.next_col, source.y)
            self.next_col += 1
            return target, [(source, _H)]
        if _V in available:
            target = Tile(source.x, self.next_row)
            self.next_row += 1
            return target, [(source, _V)]
        relay = self.add_relay(source)
        return self.plan_single(relay)

    def plan_pair(self, a: Tile, b: Tile) -> tuple[Tile, list[tuple[Tile, str]]]:
        """Target position and edge plan for a two-fanin gate.

        The *row donor* is the deeper (larger-y) fanin — its signal
        arrives horizontally from the west — and the other fanin is the
        *column donor*, arriving vertically from the north.  Full
        adoption places the gate at the donors' row/column intersection
        and costs no new row or column at all; partial adoption keeps
        one dimension from growing; conflicted gates fall back to a
        fresh diagonal slot with L-shaped edges.
        """
        rd, cd = (a, b) if a.y >= b.y else (b, a)

        def plan_of(target, edges):
            # Edge list is returned in (a, b) order for fanin alignment.
            return target, sorted(edges, key=lambda e: 0 if e[0] == a else 1)

        # Full adoption: gate at (column of cd, row of rd).
        if (
            rd.y > cd.y
            and cd.x > rd.x
            and _H in self.slots[rd]
            and _V in self.slots[cd]
            and not self.layout.is_occupied(Tile(cd.x, rd.y))
        ):
            return plan_of(Tile(cd.x, rd.y), [(rd, _H), (cd, _V)])
        # Row adoption: fresh column in the row donor's row.
        if rd.y > cd.y and _H in self.slots[rd] and _H in self.slots[cd]:
            target = Tile(self.next_col, rd.y)
            self.next_col += 1
            return plan_of(target, [(rd, _H), (cd, _H)])
        # Column adoption: fresh row in the column donor's column.
        if cd.x > rd.x and _V in self.slots[cd] and _V in self.slots[rd]:
            target = Tile(cd.x, self.next_row)
            self.next_row += 1
            return plan_of(target, [(cd, _V), (rd, _V)])
        if rd.x > cd.x and _V in self.slots[rd] and _V in self.slots[cd]:
            target = Tile(rd.x, self.next_row)
            self.next_row += 1
            return plan_of(target, [(rd, _V), (cd, _V)])
        # Fresh diagonal slot with one west and one north entry.
        kinds = _pick_pair_kinds(self, [a, b])
        sources = [
            s if k in self.slots[s] else self.add_relay(s)
            for s, k in zip([a, b], kinds)
        ]
        target = self.fresh_tile()
        return target, list(zip(sources, kinds))


def _run_sparse(ntk: LogicNetwork, params: OrthoParams, started: float) -> OrthoResult:
    placer = _SparsePlacer(ntk, params)
    layout = placer.layout

    for uid in placer.order:
        node = ntk.node(uid)
        if node.gate_type is GateType.PI:
            continue
        sources = [placer.position[f] for f in node.fanins]
        if len(sources) == 1:
            target, edges = placer.plan_single(sources[0])
        else:
            target, edges = placer.plan_pair(sources[0], sources[1])
        refs = [placer.connect(s, target, k) for s, k in edges]
        layout.create_gate(node.gate_type, target, refs, node.name)
        placer.position[uid] = target
        # The gate owns the south half of its column and the east half
        # of its row; fanouts use both corridors, others at most one.
        placer.slots[target] = [_V, _H]

    for index, (signal, name) in enumerate(ntk.pos()):
        source = placer.position[signal]
        target, edges = placer.plan_single(source)
        ref = placer.connect(edges[0][0], target, edges[0][1])
        layout.create_po(target, ref, name or f"po{index}")

    layout.shrink_to_fit()
    return OrthoResult(layout, time.monotonic() - started, "sparse")


def _pick_pair_kinds(placer: _SparsePlacer, sources: list[Tile]) -> list[str]:
    """Kinds for a two-fanin gate: one west entry (V), one north (H)."""
    a, b = (placer.slots[sources[0]], placer.slots[sources[1]])
    if _V in a and _H in b:
        return [_V, _H]
    if _H in a and _V in b:
        return [_H, _V]
    # At least one edge needs a relay; keep the direct edge direct.
    if _V in a:
        return [_V, _H]
    if _H in a:
        return [_H, _V]
    if _V in b:
        return [_H, _V]
    return [_V, _H]


def _lay_l_path(layout: GateLayout, source: Tile, target: Tile, kind: str) -> Tile:
    """Materialise an L-shaped wire path and return the target's fanin ref.

    Wires drop onto the crossing layer wherever the ground tile is
    already used by a perpendicular wire; by the row/column ownership
    argument this always succeeds in sparse mode.
    """
    sx, sy = source.x, source.y
    tx, ty = target.x, target.y
    if kind == _V:
        legs = (
            [(sx, y) for y in range(sy + 1, ty + 1)],
            [(x, ty) for x in range(sx + 1, tx)],
        )
    else:
        legs = (
            [(x, sy) for x in range(sx + 1, tx + 1)],
            [(tx, y) for y in range(sy + 1, ty)],
        )
    previous: Tile = Tile(sx, sy, source.z)
    for leg in legs:
        # Straight (pure) edges have their corner *on* the target tile;
        # the gate goes there, not a wire.
        positions = [p for p in leg if p != (tx, ty)]
        if not positions:
            continue
        try:
            # One run-length call per straight leg: the layout places the
            # whole segment (with per-tile crossing-layer fallback) in a
            # single pass instead of an is_occupied/create_wire loop.
            previous = layout.create_wire_run(positions, previous)
        except ValueError as exc:
            raise OrthoError(
                f"HV discipline violated routing ({sx},{sy})→({tx},{ty}): {exc}"
            ) from exc
    return previous


# ---------------------------------------------------------------------------
# Compact mode — denser, best-effort
# ---------------------------------------------------------------------------


def _run_compact(ntk: LogicNetwork, params: OrthoParams, started: float) -> OrthoResult:
    order = _placement_order(ntk)

    num_nodes = len(order) + ntk.num_pos()
    side = max(4, num_nodes + ntk.num_pis() + 4)
    layout = GateLayout(side, side, TWODDWAVE, Topology.CARTESIAN, ntk.name)

    position: dict[int, Tile] = {}
    #: Remaining future readers of the signal driven at each gate tile.
    pending: dict[Tile, int] = {}
    next_row = 0
    next_col = 1  # column 0 is reserved for PIs

    for pi in _ordered_pis(ntk, params):
        tile = layout.create_pi(Tile(0, next_row), ntk.node(pi).name)
        position[pi] = tile
        pending[tile] = ntk.fanout_size(pi)
        next_row += 1
    # The permutation moves the pads, not the interface: readers of the
    # layout must see PIs in the network's original order.
    layout._pis = [position[pi] for pi in ntk.pis()]

    for uid in order:
        node = ntk.node(uid)
        if node.gate_type is GateType.PI:
            continue
        fanins = [position[f] for f in node.fanins]
        chosen = None
        for candidate in _candidate_tiles(fanins, next_col, next_row, layout):
            if _try_place(
                layout, candidate, node.gate_type, fanins, node.name,
                ntk.fanout_size(uid), pending, params.routing,
            ):
                chosen = candidate
                break
        if chosen is None:
            raise OrthoError(f"could not place node {uid} ({node.gate_type.value})")
        position[uid] = chosen
        for f in node.fanins:
            tile = position[f]
            pending[tile] -= 1
            if pending[tile] <= 0:
                del pending[tile]
        if ntk.fanout_size(uid):
            pending[chosen] = ntk.fanout_size(uid)
        next_col = max(next_col, chosen.x + 1)
        next_row = max(next_row, chosen.y + 1)

    for index, (signal, name) in enumerate(ntk.pos()):
        driver = position[signal]
        chosen = None
        for candidate in _po_candidates(driver, next_col, next_row, layout):
            if _try_place(
                layout, candidate, GateType.PO, [driver], name or f"po{index}",
                0, pending, params.routing,
            ):
                chosen = candidate
                break
        if chosen is None:
            raise OrthoError(f"could not place PO {index}")
        pending[driver] -= 1
        if pending[driver] <= 0:
            del pending[driver]
        next_col = max(next_col, chosen.x + 1)
        next_row = max(next_row, chosen.y + 1)

    layout.shrink_to_fit()
    return OrthoResult(layout, time.monotonic() - started, "compact")


def _placement_order(ntk: LogicNetwork) -> list[int]:
    """Topological order with fanout nodes scheduled eagerly.

    Placing a fanout right after its driver keeps fanout trees compact
    and reduces the window in which a driver with multiple pending
    readers can be built in around.
    """
    base = [u for u in ntk.topological_order() if not ntk.is_constant(u)]
    emitted: set[int] = set()
    order: list[int] = []

    def emit(uid: int) -> None:
        if uid in emitted:
            return
        emitted.add(uid)
        order.append(uid)
        for reader in ntk.fanouts(uid):
            if ntk.node(reader).gate_type is GateType.FANOUT:
                if all(f in emitted for f in ntk.fanins(reader)):
                    emit(reader)

    for uid in base:
        emit(uid)
    return order


def _try_place(
    layout: GateLayout,
    candidate: Tile,
    gate_type: GateType,
    fanins: list[Tile],
    name: str | None,
    fanout_demand: int,
    pending: dict[Tile, int],
    routing: RoutingOptions,
) -> bool:
    """Tentatively place a gate with all its fanin routes; commit or undo.

    A placement is accepted only if (a) all fanins route in via distinct
    entry sides, (b) the new gate itself can escape when it has readers,
    and (c) no driver that still has readers waiting lost the escape
    corridors those readers will need.  When a route seals a driver, the
    route is retried with that driver's escape corridor marked as
    off-limits, so the A* search bends around fanout hotspots instead of
    failing the candidate.
    """
    if layout.is_occupied(candidate):
        return False

    consumed: dict[Tile, int] = {}
    for fanin in fanins:
        consumed[fanin] = consumed.get(fanin, 0) + 1

    avoid: set[Tile] = set()
    for _attempt in range(3):
        routed_ends: list[tuple[Tile, Tile]] = []
        refs: list[Tile] = []

        def rollback() -> None:
            if layout.is_occupied(candidate):
                layout.remove(candidate)
            for end, src in routed_ends:
                unroute(layout, end, src)

        options = replace(routing, avoid=frozenset(avoid)) if avoid else routing
        for fanin in fanins:
            fanin_options = options
            if refs:
                # Fanins must enter through distinct sides of the tile.
                taken = frozenset(
                    {r.ground for r in refs}
                    | {r.above for r in refs}
                    | set(options.avoid)
                )
                fanin_options = replace(options, avoid=taken)
            path = find_path(layout, fanin, candidate, fanin_options)
            if path is None or (
                len(path) >= 2 and {path[-2].ground} & {r.ground for r in refs}
            ):
                rollback()
                return False
            previous = path[0]
            for pos in path[1:-1]:
                layout.create_wire(pos, previous)
                previous = pos
            refs.append(previous)
            routed_ends.append((previous, fanin))

        if gate_type is GateType.PO:
            layout.create_po(candidate, refs[0], name)
        else:
            layout.create_gate(gate_type, candidate, refs, name)

        if fanout_demand and not _escape_capacity(layout, candidate, min(fanout_demand, 2)):
            rollback()
            return False

        sealed = _sealed_drivers(layout, pending, consumed)
        if not sealed:
            return True
        # Reserve one intact escape corridor per sealed driver and route
        # again around it.  (The driver may be one of our own fanins — a
        # fanout whose second reader must still get out — so we reserve a
        # corridor rather than blocking the driver's exits outright.)
        rollback()
        grew = False
        doomed = False
        for driver in sealed:
            corridor = _escape_path(layout, driver, set())
            if corridor is None:
                doomed = True
                break
            for tile in corridor:
                if tile == driver:
                    continue
                if tile.ground == candidate.ground:
                    # The reserved corridor runs through the candidate
                    # position itself; this spot can never work.
                    doomed = True
                    break
                if tile not in avoid:
                    avoid.add(tile)
                    avoid.add(tile.above if tile.z == 0 else tile.ground)
                    grew = True
            if doomed:
                break
        if doomed or not grew:
            return False
    return False


def _sealed_drivers(
    layout: GateLayout,
    pending: dict[Tile, int],
    consumed: dict[Tile, int],
) -> list[Tile]:
    """Drivers whose waiting readers lost their escape corridors.

    Sealing is not a local phenomenon — a wire can close the far end of
    the only escape corridor of a distant driver — so all active drivers
    are checked.  The check is cheap for healthy drivers (the BFS exits
    on the first free neighbour), so the amortised cost stays low.
    """
    sealed = []
    for driver, remaining in pending.items():
        remaining -= consumed.get(driver, 0)
        if remaining <= 0:
            continue
        if not _escape_capacity(layout, driver, min(remaining, 2)):
            sealed.append(driver)
    return sealed


def _escape_steps(layout: GateLayout, tile: Tile) -> list[Tile]:
    """Positions a wire could extend to from ``tile`` (router step rule)."""
    steps = []
    for out in layout.outgoing_tiles(tile):
        gate = layout.get(out)
        if gate is None:
            steps.append(out)
        elif gate.gate_type is GateType.BUF and not layout.is_occupied(out.above):
            steps.append(out.above)
    return steps


def _escape_path(
    layout: GateLayout, driver: Tile, blocked: set, max_expansions: int = 64
) -> list[Tile] | None:
    """BFS from ``driver`` to the nearest free ground tile.

    Follows the router's step rule (crossing-layer hops over wires are
    allowed) while avoiding ``blocked`` positions; returns the visited
    path to the first free ground tile, or ``None`` if the signal is
    boxed in.  The expansion budget errs on the optimistic side: a long
    corridor of live crossings counts as an escape.
    """
    parents: dict[Tile, Tile] = {}
    frontier = [driver]
    visited = {driver} | blocked
    expansions = 0
    while frontier:
        current = frontier.pop(0)
        for step in _escape_steps(layout, current):
            if step in visited:
                continue
            parents[step] = current
            if step.z == 0:
                path = [step]
                node = step
                while node != driver:
                    node = parents[node]
                    path.append(node)
                return path
            visited.add(step)
            frontier.append(step)
        expansions += 1
        if expansions >= max_expansions:
            return [driver]
    return None


def _escape_capacity(layout: GateLayout, driver: Tile, need: int) -> bool:
    """True if ``driver`` retains ``need`` roughly disjoint escape corridors.

    A driver with two pending readers (a fanout tile) must keep two
    corridors: routing the first reader consumes one, and the second
    reader still has to leave.  Corridor disjointness is approximated
    greedily — each found escape path blocks its tiles for the next
    search — which is exact for the dominant straight-corridor case.
    """
    blocked: set = set()
    for _ in range(max(need, 1)):
        path = _escape_path(layout, driver, blocked)
        if path is None:
            return False
        blocked.update(t for t in path if t != driver)
    return True


def _escapes(layout: GateLayout, driver: Tile) -> bool:
    """True if ``driver``'s signal can still reach open space."""
    return _escape_path(layout, driver, set()) is not None


def _candidate_tiles(fanins: list[Tile], next_col: int, next_row: int, layout: GateLayout):
    """Deterministic candidate positions for a gate, best first.

    All candidates dominate the fanins geometrically (x ≥ max fanin x,
    y ≥ max fanin y), which on 2DDWave guarantees staircase routability
    up to congestion.
    """
    max_x = max(f.x for f in fanins)
    max_y = max(f.y for f in fanins)
    candidates = []
    if len(fanins) == 1:
        candidates.append(Tile(max_x + 1, max_y))
        candidates.append(Tile(max_x, max_y + 1))
        candidates.append(Tile(max_x + 1, max_y + 1))
        candidates.append(Tile(next_col, max_y))
        candidates.append(Tile(max_x, next_row))
    else:
        candidates.append(Tile(max_x, max_y))
        candidates.append(Tile(max_x + 1, max_y))
        candidates.append(Tile(max_x, max_y + 1))
        candidates.append(Tile(max_x + 1, max_y + 1))
        candidates.append(Tile(next_col, max_y))
        candidates.append(Tile(max_x, next_row))
    candidates.append(Tile(next_col, next_row))
    candidates.append(Tile(next_col + 1, next_row + 1))
    candidates.append(Tile(next_col + 2, next_row + 2))
    yield from _dedup_in_bounds(candidates, layout)


def _po_candidates(driver: Tile, next_col: int, next_row: int, layout: GateLayout):
    candidates = [
        Tile(driver.x + 1, driver.y),
        Tile(driver.x, driver.y + 1),
        Tile(next_col, driver.y),
        Tile(driver.x, next_row),
        Tile(next_col, next_row),
        Tile(next_col + 1, next_row + 1),
        Tile(next_col + 2, next_row + 2),
    ]
    yield from _dedup_in_bounds(candidates, layout)


def _dedup_in_bounds(candidates, layout: GateLayout):
    seen = set()
    for c in candidates:
        if c in seen or not layout.in_bounds(c):
            continue
        seen.add(c)
        yield c
