"""Exact physical design (Walter et al., DATE'18 [4]).

The published method encodes placement and routing as an SMT problem and
asks a solver for a layout of minimal area, enumerating aspect ratios in
ascending area order.  No SMT solver is available in this offline
reproduction, so the same optimisation is implemented as a
*branch-and-bound search* (see DESIGN.md §4): aspect ratios are
enumerated in ascending area order and, for each, a depth-first search
places the network's elements tile by tile, routing fanins with the
shared A* router and backtracking on failure.

Defining properties preserved from the paper:

* layouts are **area-minimal over the explored search space** — the
  first aspect ratio that admits a complete placement is returned, and
  ratios are visited in ascending area order;
* the regular clocking schemes are supported (2DDWave, USE, RES, ESR
  and ROW), with I/O pads restricted to the layout border.  The search
  never assigns clock zones, so on an irregular scheme (OPEN) no wire
  step is admissible and :func:`exact_layout` refuses it up front;
* runtime explodes with instance size, so a **timeout** aborts the
  search — exactly the regime Table I shows, where `exact` entries stop
  at a few dozen nodes and heuristics take over beyond that.

The greedy A* routing inside the search is the one approximation over
the SMT formulation: a placement may be rejected because its greedy
routes collide even though smarter wiring existed.  In practice this
costs at most a tile or two of area on the benchmark set while keeping
pure-Python runtimes tractable.

With ``ExactParams.optimized`` (the default) the search runs on the fast
physical-design core.  It places, routes and backtracks on a flat
search-local state (:class:`_SearchState`) with O(1) snapshot/rollback
instead of a :class:`GateLayout` with remove-and-unroute.  Positions,
wires and fanin refs are flat ``z * width * height + y * width + x``
indices throughout: routes come straight from the index-level A* kernel
(:func:`~repro.physical_design.routing._astar`), the undo log records
indices, and the reachability memo is keyed by ground index.  ``Tile``
objects are built only when a ratio succeeds, by replaying the
surviving log into the returned ``GateLayout``.  The pruning on top:

* **ratio refutation**, before a ratio is searched.  Static per-scheme
  capacity counts (:func:`_ratio_feasible`) drop ratios up front; then,
  lazily on each ratio about to be searched, a placement relaxation
  (:class:`_Relaxation`) tries to prove within a fixed work budget that
  the ratio has no layout.  This is the SMT formulation's strength —
  proving a ratio infeasible instead of enumerating it — rebuilt as
  bitset constraint propagation.  Both relax every layout, so a
  refuted ratio never changes what the search returns;
* O(1) free-tile and border-I/O lower bounds per search node;
* dead-signal subtree pruning;
* reachability floods memoized by the state's occupancy hash;
* chain windows on monotone schemes (2DDWave/ROW);
* first-placement transpose symmetry breaking on square 2DDWave grids.

``optimized=False`` reproduces the original (pre-optimization) search
behaviour on a ``GateLayout`` and serves as the benchmark baseline; it
refutes nothing, so it stays an independent oracle.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field, fields

from ..layout.clocking import ROW, TWODDWAVE, ClockingScheme, neighbor_tables
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import GateLayout, LayoutGate
from ..networks.logic_network import GateType, LogicNetwork
from ..networks.transforms import decompose_to_aoig, prepare_for_layout
from .routing import (
    RoutingOptions,
    _arena_for,
    _astar,
    _successor_table,
    find_path,
    unroute,
)


@dataclass
class ExactParams:
    """Parameters of the exact search."""

    scheme: ClockingScheme = TWODDWAVE
    topology: Topology = Topology.CARTESIAN
    #: Wall-clock budget for the whole search, in seconds.
    timeout: float = 10.0
    #: Budget slice per aspect ratio, in seconds.  Exhausting a slice
    #: skips to the next (larger) ratio instead of aborting the whole
    #: search, so feedback-capable schemes still reach feasible areas;
    #: the returned layout is then minimal only up to skipped ratios.
    ratio_timeout: float | None = None
    #: Upper bound on each layout dimension during enumeration.
    max_side: int = 12
    #: Upper bound on the area to try (None: ``max_side**2``).
    max_area: int | None = None
    #: Require I/O pads on the layout border, as MNT Bench layouts do.
    border_io: bool = True
    #: Keep native two-input gates (XOR/XNOR/NAND/NOR) instead of
    #: decomposing to AOIG — for Bestagon-targeted runs.
    keep_two_input: bool = False
    #: Cap on wire length per routed connection.
    max_wire_length: int = 12
    #: Beam width: at most this many candidate tiles are explored per
    #: element before backtracking.  ``None`` explores every free tile
    #: (fully exact w.r.t. placement); the default keeps feedback-capable
    #: schemes (USE/RES/ESR) tractable at the cost of exactness, which
    #: DESIGN.md documents as part of the SMT-solver substitution.
    candidate_cap: int | None = 16
    #: Run on the fast physical-design core (flat search state with O(1)
    #: rollback, arena A*, memoized reachability, lower-bound/dead-signal/
    #: chain-window pruning, symmetry breaking).  Turn off to reproduce
    #: the original search on a ``GateLayout`` as a benchmark baseline.
    optimized: bool = True
    routing: RoutingOptions = field(default_factory=lambda: RoutingOptions(crossing_penalty=1))


@dataclass
class ExactSearchStats:
    """Counters describing one exact search run.

    ``dimensions_total`` counts the aspect ratios that survive the area
    lower bound.  ``dimensions_filtered`` counts the ones refuted
    without search: by the static per-scheme capacity counts
    (:func:`_ratio_feasible`), or by the placement relaxation
    (:class:`_Relaxation`), which runs on a ratio just before the search
    would.  ``dimensions_explored`` counts the ratios searched.
    ``from_json`` drops keys it does not know, so stats written by older
    versions (with their parallel-engine counters) still load.
    """

    dimensions_total: int = 0
    dimensions_filtered: int = 0
    dimensions_explored: int = 0
    incumbent_updates: int = 0

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, data: dict) -> "ExactSearchStats":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def merge(self, other: "ExactSearchStats | dict") -> None:
        """Accumulate another run's counters."""
        values = other if isinstance(other, dict) else other.to_json()
        for f in fields(self):
            value = values.get(f.name)
            if isinstance(value, int):
                setattr(self, f.name, getattr(self, f.name) + value)


@dataclass
class ExactResult:
    """Outcome of an exact run."""

    layout: GateLayout | None
    runtime_seconds: float
    timed_out: bool
    explored_ratios: int
    stats: ExactSearchStats | None = None

    @property
    def succeeded(self) -> bool:
        return self.layout is not None


class _Timeout(Exception):
    pass


@dataclass(frozen=True)
class _NetworkProfile:
    """Static demand counts of a layout-prepared network.

    Used by the per-scheme capacity bound: every layout must supply at
    least this many tiles of each capability, whatever the placement.
    """

    elements: int
    pis: int
    pos: int
    #: Gates with >= 2 non-constant fanins (need 2 distinct incoming
    #: clocked neighbours — ``_route_fanins`` enforces distinct entries).
    gates2: int
    #: Elements that receive at least one connection (gates + POs).
    sinks: int
    #: Elements whose signal is read by someone (need an outgoing step).
    sources: int
    #: Edges on the longest PI→PO chain of placeable elements.
    chain: int


def _network_profile(ntk: LogicNetwork, elements) -> _NetworkProfile:
    pis = pos = gates2 = sinks = 0
    readers: set[int] = set()
    for kind, payload in elements:
        if kind == "po":
            pos += 1
            sinks += 1
            readers.add(payload[1])
        else:
            node = ntk.node(payload)
            if node.gate_type is GateType.PI:
                pis += 1
            fanins = [f for f in node.fanins if not ntk.is_constant(f)]
            if len(fanins) >= 2:
                gates2 += 1
            if fanins:
                sinks += 1
            readers.update(fanins)
    return _NetworkProfile(
        elements=len(elements),
        pis=pis,
        pos=pos,
        gates2=gates2,
        sinks=sinks,
        sources=len(readers),
        chain=_longest_chain(ntk),
    )


@dataclass(frozen=True)
class _RatioCapacity:
    """Tile-capability counts of one (scheme, topology, w, h) grid."""

    incoming1: int  #: tiles with >= 1 in-grid incoming-clocked neighbour
    incoming2: int  #: tiles with >= 2 such neighbours
    outgoing1: int  #: tiles with >= 1 in-grid outgoing-clocked neighbour
    border: int  #: border tiles
    border_in1: int  #: border tiles with >= 1 incoming neighbour
    border_out1: int  #: border tiles with >= 1 outgoing neighbour


@functools.lru_cache(maxsize=4096)
def _ratio_capacity(
    scheme: ClockingScheme, topology: Topology, width: int, height: int
) -> _RatioCapacity:
    tables = neighbor_tables(scheme, topology)
    px, py = tables.period_x, tables.period_y
    in1 = in2 = out1 = border = bin1 = bout1 = 0
    for y in range(height):
        for x in range(width):
            incoming = sum(
                1
                for dx, dy in tables.incoming[y % py][x % px]
                if 0 <= x + dx < width and 0 <= y + dy < height
            )
            outgoing = sum(
                1
                for dx, dy in tables.outgoing[y % py][x % px]
                if 0 <= x + dx < width and 0 <= y + dy < height
            )
            on_border = x in (0, width - 1) or y in (0, height - 1)
            if incoming >= 1:
                in1 += 1
            if incoming >= 2:
                in2 += 1
            if outgoing >= 1:
                out1 += 1
            if on_border:
                border += 1
                if incoming >= 1:
                    bin1 += 1
                if outgoing >= 1:
                    bout1 += 1
    return _RatioCapacity(in1, in2, out1, border, bin1, bout1)


def _ratio_feasible(
    scheme: ClockingScheme,
    topology: Topology,
    width: int,
    height: int,
    profile: _NetworkProfile,
    border_io: bool,
) -> bool:
    """Static necessary conditions for a (w, h) layout to exist.

    Clocking-period-aware: a tile can host a 2-fanin gate only if at
    least two distinct in-grid neighbours are clocked into it (the
    search routes fanins through distinct entry tiles), can host any
    sink only with one such neighbour, and can host a read signal only
    with an outgoing neighbour.  On USE, for example, no tile of a
    1-wide column has two incoming neighbours, so every ``1 x N`` ratio
    is refuted without search.  Each condition is sound for the *full*
    placement space, so filtering ratios through it never changes the
    search outcome, only skips doomed proofs.
    """
    capacity = _ratio_capacity(scheme, topology, width, height)
    if capacity.incoming2 < profile.gates2:
        return False
    if capacity.incoming1 < profile.sinks:
        return False
    if capacity.outgoing1 < profile.sources:
        return False
    if border_io:
        if capacity.border < profile.pis + profile.pos:
            return False
        if capacity.border_in1 < profile.pos:
            return False
        if capacity.border_out1 < profile.pis:
            return False
    # Monotone-scheme chain bound: on 2DDWave every fanin connection
    # strictly increases x + y, on ROW it strictly increases y, so a
    # ratio whose diagonal (resp. height) cannot accommodate the
    # longest PI→PO element chain is infeasible without searching.
    if scheme is TWODDWAVE and topology is Topology.CARTESIAN:
        if (width - 1) + (height - 1) < profile.chain:
            return False
    elif scheme is ROW:
        if height - 1 < profile.chain:
            return False
    return True


def area_lower_bound(
    network: LogicNetwork,
    keep_two_input: bool = False,
    scheme: ClockingScheme | None = None,
    topology: Topology = Topology.CARTESIAN,
    border_io: bool = True,
    max_side: int = 12,
) -> int:
    """Area (tile count) no exact layout of ``network`` can beat.

    Every placed element — PI, gate, fanout — of the layout-prepared
    network occupies at least one tile, which is exactly the bound the
    exact search starts from.  The generation scheduler uses it to
    early-cancel exact tasks whose portfolio group already produced a
    layout of this area: the search cannot improve on it.

    With a ``scheme`` the bound is clocking-period-aware: it returns the
    smallest enumerable area whose grid passes the static per-scheme
    capacity test (:func:`_ratio_feasible`), which is strictly stronger
    than the element count on feedback schemes (USE/RES/ESR) whose
    narrow grids lack tiles with two incoming-clocked neighbours.  When
    no ratio up to ``max_side`` passes, ``max_side**2`` is returned —
    the search cannot produce any layout, so nothing can beat that area
    within the enumerated space.

    ``keep_two_input`` must match the flow's preparation (the hexagonal
    Bestagon flow keeps two-input gates, the Cartesian flows do not).
    """
    ntk = prepare_for_layout(decompose_to_aoig(network, keep_two_input))
    elements = _search_order(ntk)
    if scheme is None or not scheme.regular:
        return len(elements)
    profile = _network_profile(ntk, elements)
    params = ExactParams(scheme=scheme, topology=topology, max_side=max_side)
    for width, height in _aspect_ratios(params, len(elements)):
        if _ratio_feasible(scheme, topology, width, height, profile, border_io):
            return width * height
    # Nothing up to max_side passes — networks this large still cannot
    # beat the element count, so never report a weaker bound than it.
    return max(len(elements), max_side * max_side)


def exact_layout(network: LogicNetwork, params: ExactParams | None = None) -> ExactResult:
    """Find an area-minimal layout for ``network`` on ``params.scheme``.

    Returns a result with ``layout=None`` when the search space is
    exhausted without success or the timeout strikes first (callers —
    e.g. the best-layout portfolio — treat both as "exact unavailable").
    Raises ``ValueError`` for an irregular clocking scheme, on which the
    search could only burn its timeout (see the module docstring).
    """
    params = params or ExactParams()
    if not params.scheme.regular:
        raise ValueError(
            f"exact_layout needs a regular clocking scheme, got {params.scheme.name!r}"
        )
    started = time.monotonic()
    deadline = started + params.timeout

    ntk = prepare_for_layout(decompose_to_aoig(network, params.keep_two_input))
    elements = _search_order(ntk)
    ratios = _aspect_ratios(params, len(elements))
    filtered = 0
    if params.optimized:
        profile = _network_profile(ntk, elements)
        kept = [
            (w, h)
            for w, h in ratios
            if _ratio_feasible(params.scheme, params.topology, w, h, profile, params.border_io)
        ]
        filtered = len(ratios) - len(kept)
        ratios = kept
    stats = ExactSearchStats(
        dimensions_total=len(ratios) + filtered, dimensions_filtered=filtered
    )

    timed_out = False
    for width, height in ratios:
        if time.monotonic() > deadline:
            timed_out = True
            break
        if params.optimized and _Relaxation(ntk, elements, width, height, params).refutes():
            stats.dimensions_filtered += 1
            continue
        stats.dimensions_explored += 1
        ratio_deadline = deadline
        if params.ratio_timeout is not None:
            ratio_deadline = min(deadline, time.monotonic() + params.ratio_timeout)
        searcher = _Searcher(ntk, elements, width, height, params, ratio_deadline)
        try:
            layout = searcher.run()
            if layout is not None:
                stats.incumbent_updates = 1
                return ExactResult(
                    layout, time.monotonic() - started, False,
                    stats.dimensions_explored, stats,
                )
        except _Timeout:
            if time.monotonic() > deadline:
                timed_out = True
                break
            continue
    return ExactResult(
        None, time.monotonic() - started, timed_out, stats.dimensions_explored, stats
    )


def _aspect_ratios(params: ExactParams, lower_bound: int):
    """All (w, h) pairs in ascending area order, squarer shapes first."""
    max_area = params.max_area or params.max_side * params.max_side
    pairs = [
        (w, h)
        for w in range(1, params.max_side + 1)
        for h in range(1, params.max_side + 1)
        if w * h <= max_area
    ]
    pairs.sort(key=lambda wh: (wh[0] * wh[1], abs(wh[0] - wh[1]), wh[0]))
    return [p for p in pairs if p[0] * p[1] >= lower_bound]


def _chain_bounds(ntk: LogicNetwork) -> tuple[dict[int, int], dict[int, int]]:
    """Per-node longest chains: (edges from any PI, edges to any PO).

    Every element-DAG edge (gate fanin or PO read) is realised by at
    least one grid step, so these are lower bounds on the wiring span
    any monotone-scheme layout must provide before/after each element.
    Constant fanins are not placed and contribute no edge.
    """
    order = [u for u in ntk.topological_order() if not ntk.is_constant(u)]
    from_pi: dict[int, int] = {}
    for uid in order:
        node = ntk.node(uid)
        from_pi[uid] = max(
            (from_pi[f] + 1 for f in node.fanins if not ntk.is_constant(f)),
            default=0,
        )
    to_po: dict[int, int] = {uid: 0 for uid in order}
    for signal, _name in ntk.pos():
        if signal in to_po:
            to_po[signal] = 1
    for uid in reversed(order):
        node = ntk.node(uid)
        for f in node.fanins:
            if f in to_po and to_po[f] < to_po[uid] + 1:
                to_po[f] = to_po[uid] + 1
    return from_pi, to_po


def _longest_chain(ntk: LogicNetwork) -> int:
    """Edges on the longest PI→PO chain of placeable elements."""
    from_pi, _ = _chain_bounds(ntk)
    longest = 0
    for signal, _name in ntk.pos():
        longest = max(longest, from_pi.get(signal, 0) + 1)
    return longest


def _search_order(ntk: LogicNetwork):
    """Elements to place, topologically: PIs, gates, then PO records."""
    order = []
    for uid in ntk.topological_order():
        if ntk.is_constant(uid):
            continue
        order.append(("node", uid))
    for index, (signal, name) in enumerate(ntk.pos()):
        order.append(("po", (index, signal, name)))
    return order


#: Work :class:`_Relaxation` may spend on one aspect ratio before it
#: gives up without a verdict, in placements tried times elements.  Each
#: placement forward-checks every element, so this bounds the time per
#: ratio whatever the network's size (about 0.05 s on a 2-vCPU x86 host);
#: a count, not a clock, so a verdict never depends on machine speed.
_REFUTE_WORK = 20_000


class _OutOfBudget(Exception):
    pass


class _Relaxation:
    """A placement relaxation that refutes infeasible aspect ratios.

    The variables are the elements, their values ground tiles, and
    their domains bitsets (bit ``y * width + x``).  Each constraint
    holds for every layout the search can return, so a ratio the
    relaxation refutes has none:

    * elements sit on distinct tiles, I/O on the border with ``border_io``;
    * every connection is a clock-admissible path whose inner tiles are
      no element's (wires sit on free ground, crossings above wires), so
      a reader lies in its driver's flood over the unoccupied tiles;
    * a gate's fanins enter it through distinct in-neighbours, each the
      fanin's own tile or an unoccupied tile its flood reaches;
    * an element with unplaced readers keeps an unoccupied out-neighbour;
    * the wires fit: a connection has at least (distance - 1) inner
      tiles, each a ground wire or a crossing above one, so their sum is
      at most twice the free ground (once without crossings).

    The search places the element with the smallest domain first and,
    after each placement, narrows the domains of unplaced drivers and
    readers by the floods in both directions.  Placed elements only add
    obstacles, so a flood is recomputed only when the new tile was in
    it.  Floods are bit-parallel: one shift per neighbour offset and
    step.
    """

    def __init__(self, ntk, elements, width: int, height: int, params: ExactParams):
        n = width * height
        succ = _successor_table(width, height, neighbor_tables(params.scheme, params.topology))
        by_offset: dict[int, int] = {}
        self._out = [0] * n
        self._in = [0] * n
        for g, targets in enumerate(succ):
            for s in targets:
                by_offset[s - g] = by_offset.get(s - g, 0) | (1 << g)
                self._out[g] |= 1 << s
                self._in[s] |= 1 << g
        #: (sources, shift) pairs: ``sources`` steps to ``tile + shift``.
        self._forward = [(mask, d) for d, mask in by_offset.items()]
        self._backward = [
            (mask << d if d > 0 else mask >> -d, -d) for d, mask in by_offset.items()
        ]
        index = {p: i for i, (kind, p) in enumerate(elements) if kind == "node"}
        fanins = []
        for kind, payload in elements:
            drivers = [payload[1]] if kind == "po" else ntk.node(payload).fanins
            fanins.append(tuple(index[f] for f in drivers if f in index))
        readers: list[list[int]] = [[] for _ in elements]
        for v, drivers in enumerate(fanins):
            for f in drivers:
                readers[f].append(v)
        self._fanins = fanins
        self._readers = readers
        self._edges = [(f, v) for v, drivers in enumerate(fanins) for f in drivers]
        border = sum(
            1 << (y * width + x)
            for y in range(height)
            for x in range(width)
            if x in (0, width - 1) or y in (0, height - 1)
        )
        domains = []
        for i, (kind, payload) in enumerate(elements):
            domain = sum(
                1 << g
                for g in range(n)
                if self._in[g].bit_count() >= len(fanins[i])
                and (self._out[g] or not readers[i])
            )
            if params.border_io and (
                kind == "po" or ntk.node(payload).gate_type is GateType.PI
            ):
                domain &= border
            domains.append(domain)
        self._domains = domains
        self._wire_cap = (2 if params.routing.allow_crossings else 1) * (n - len(elements))
        self._budget = _REFUTE_WORK // len(elements)
        self._nodes = 0

    def refutes(self) -> bool:
        """True if no placement satisfies the relaxation; ``False`` when
        one does or the node budget runs out first."""
        count = len(self._domains)
        try:
            return not self._search(
                [-1] * count, 0, self._domains, [None] * count, [None] * count, count
            )
        except _OutOfBudget:
            return False

    def _search(self, pos, occupied, domains, fwd, bwd, left: int) -> bool:
        if not left:
            return True
        best, size = -1, len(self._out) + 1
        for j, p in enumerate(pos):
            if p < 0:
                count = domains[j].bit_count()
                if count < size:
                    best, size = j, count
        domain = domains[best]
        while domain:
            low = domain & -domain
            domain ^= low
            self._nodes += 1
            if self._nodes > self._budget:
                raise _OutOfBudget
            child = self._assign(best, low.bit_length() - 1, pos, occupied, domains, fwd, bwd)
            if child is not None and self._search(*child, left - 1):
                return True
        return False

    def _flood(self, tile: int, occupied: int, steps) -> list[int]:
        """Cumulative layers: the tiles within 1, 2, ... steps of ``tile``
        over unoccupied inner tiles (the last layer is the whole flood)."""
        seen = frontier = 1 << tile
        free = ~occupied
        reach = 0
        layers = []
        while frontier:
            step = 0
            for mask, shift in steps:
                bits = frontier & mask
                if bits:
                    step |= bits << shift if shift > 0 else bits >> -shift
            reach |= step
            layers.append(reach)
            frontier = step & free & ~seen
            seen |= frontier
        return layers

    def _assign(self, i: int, tile: int, pos, occupied, domains, fwd, bwd):
        """Place element ``i`` on ``tile`` and forward-check; the child
        state, or ``None`` when a constraint fails."""
        bit = 1 << tile
        occupied |= bit
        free = ~occupied
        pos = pos.copy()
        pos[i] = tile
        fwd, bwd = fwd.copy(), bwd.copy()
        for floods, steps in ((fwd, self._forward), (bwd, self._backward)):
            for u, layers in enumerate(floods):
                if layers is not None and layers[-1] & bit:
                    floods[u] = self._flood(pos[u], occupied, steps)
        fanins, readers = self._fanins, self._readers
        if readers[i]:
            fwd[i] = self._flood(tile, occupied, self._forward)
        if fanins[i]:
            bwd[i] = self._flood(tile, occupied, self._backward)

        domains = domains.copy()
        union = unplaced = 0
        for j, p in enumerate(pos):
            if p >= 0:
                continue
            domain = domains[j] & free
            for f in fanins[j]:
                if pos[f] >= 0:
                    domain &= fwd[f][-1]
            for r in readers[j]:
                if pos[r] >= 0:
                    domain &= bwd[r][-1]
            if not domain:
                return None
            domains[j] = domain
            union |= domain
            unplaced += 1
        if union.bit_count() < unplaced:
            return None

        for v, p in enumerate(pos):
            if p < 0:
                continue
            if not self._out[p] & free and any(pos[r] < 0 for r in readers[v]):
                return None
            if fanins[v]:
                entries = self._in[p]
                options = [
                    entries & free if pos[f] < 0
                    else entries & ((1 << pos[f]) | (fwd[f][-1] & free))
                    for f in fanins[v]
                ]
                if not _distinct_members(options):
                    return None

        wires = 0
        for f, v in self._edges:
            p, q = pos[f], pos[v]
            if p >= 0:
                layers, target = fwd[f], (1 << q if q >= 0 else domains[v])
            elif q >= 0:
                layers, target = bwd[v], domains[f]
            else:
                continue
            for steps, layer in enumerate(layers):
                if layer & target:
                    wires += steps
                    break
            else:
                return None
        if wires > self._wire_cap:
            return None
        return pos, occupied, domains, fwd, bwd


def _distinct_members(sets: list[int]) -> bool:
    """Hall's condition: the bitsets admit pairwise distinct members."""
    for subset in range(1, 1 << len(sets)):
        union = 0
        for k, bits in enumerate(sets):
            if subset >> k & 1:
                union |= bits
        if union.bit_count() < subset.bit_count():
            return False
    return True


#: Occupancy markers of :class:`_SearchState`.  The router and the
#: pruning scans only ask whether a position is taken and whether it
#: holds a wire, so two shared gates stand in for every element.
_WIRE = LayoutGate(GateType.BUF)
_ELEMENT = LayoutGate(GateType.PI)


class _SearchState:
    """Occupancy of one aspect ratio during the optimized search.

    Stands in for :class:`GateLayout` on flat integer positions: a
    position is ``z * width * height + y * width + x``, the node index
    of the A* kernel.  The state has the attributes the kernel and the
    pruning scans read (``width``, ``height``, ``scheme``, ``topology``,
    ``_grid``, ``_route_arena``).  Placing an element or a routed path's
    wires only marks the flat occupancy lists, updates the free-tile
    counters and the Zobrist ``occupancy_hash``, and appends
    ``(index, word, kind, fanins, name)`` to an undo log; the fanin refs
    are indices too, and ``kind`` is ``None`` for a wire.
    :meth:`snapshot` is the log length and :meth:`rollback` truncates
    the log back to it.  Once the search succeeds, :meth:`materialize`
    turns the surviving entries into ``Tile`` objects and replays them
    through the validating ``GateLayout`` constructors, so the returned
    layout is built, and checked, once.
    """

    __slots__ = (
        "width", "height", "scheme", "topology", "_grid", "_route_arena",
        "_border", "_free_ground", "_free_border", "_zobrist",
        "occupancy_hash", "_log",
    )

    def __init__(
        self, width: int, height: int, scheme: ClockingScheme, topology: Topology
    ) -> None:
        n = width * height
        self.width = width
        self.height = height
        self.scheme = scheme
        self.topology = topology
        self._grid = [[None] * n, [None] * n]
        self._route_arena = None
        self._border = [
            x in (0, width - 1) or y in (0, height - 1)
            for y in range(height)
            for x in range(width)
        ]
        self._free_ground = n
        self._free_border = sum(self._border)
        # Two words per position: base occupancy and "is a wire", so
        # states that differ only in wire-vs-element content hash apart.
        rng = random.Random(0x5EED ^ (width << 16) ^ height)
        self._zobrist = [rng.getrandbits(63) for _ in range(4 * n)]
        self.occupancy_hash = 0
        self._log: list[tuple] = []

    def num_free_ground(self) -> int:
        return self._free_ground

    def num_free_border(self) -> int:
        return self._free_border

    def _place(self, index: int, kind, fanins: tuple, name: str | None) -> None:
        """Mark element ``kind`` (a ``GateType``) at ground ``index``."""
        self._grid[0][index] = _ELEMENT
        word = self._zobrist[2 * index]
        self.occupancy_hash ^= word
        self._free_ground -= 1
        if self._border[index]:
            self._free_border -= 1
        self._log.append((index, word, kind, fanins, name))

    def create_pi(self, index: int, name: str | None = None) -> None:
        self._place(index, GateType.PI, (), name)

    def create_po(self, index: int, fanin: int, name: str | None = None) -> None:
        self._place(index, GateType.PO, (fanin,), name)

    def create_gate(
        self, gate_type: GateType, index: int, fanins, name: str | None = None
    ) -> None:
        self._place(index, gate_type, tuple(fanins), name)

    def create_wires(self, path: list[int]) -> int:
        """Place wires on ``path``'s inner positions, each reading the one
        before; return the last of them (``path[0]`` when none)."""
        ground, above = self._grid
        zobrist, border, log = self._zobrist, self._border, self._log
        n = len(border)
        digest = self.occupancy_hash
        previous = path[0]
        for index in path[1:-1]:
            word = zobrist[2 * index] ^ zobrist[2 * index + 1]
            digest ^= word
            if index < n:
                ground[index] = _WIRE
                self._free_ground -= 1
                if border[index]:
                    self._free_border -= 1
            else:
                above[index - n] = _WIRE
            log.append((index, word, None, (previous,), None))
            previous = index
        self.occupancy_hash = digest
        return previous

    def snapshot(self) -> int:
        """O(1) marker of the current log position."""
        return len(self._log)

    def rollback(self, mark: int) -> None:
        """Undo every placement logged since ``mark``."""
        log = self._log
        if mark > len(log):
            raise ValueError(f"snapshot {mark} is ahead of the undo log")
        ground, above = self._grid
        border = self._border
        n = len(border)
        digest = self.occupancy_hash
        for index, word, _kind, _fanins, _name in log[mark:]:
            digest ^= word
            if index < n:
                ground[index] = None
                self._free_ground += 1
                if border[index]:
                    self._free_border += 1
            else:
                above[index - n] = None
        del log[mark:]
        self.occupancy_hash = digest

    def materialize(self, name: str = "") -> GateLayout:
        """Replay the logged placements onto a new, cropped layout."""
        w, n = self.width, len(self._border)
        layout = GateLayout(w, self.height, self.scheme, self.topology, name)

        def tile(index: int) -> Tile:
            return Tile(index % w, index % n // w, index // n)

        for index, _word, kind, fanins, label in self._log:
            if kind is None:
                layout.create_wire(tile(index), tile(fanins[0]))
            elif kind is GateType.PI:
                layout.create_pi(tile(index), label)
            elif kind is GateType.PO:
                layout.create_po(tile(index), tile(fanins[0]), label)
            else:
                layout.create_gate(kind, tile(index), [tile(f) for f in fanins], label)
        layout.shrink_to_fit()
        return layout


class _Searcher:
    """Depth-first placement with backtracking for one aspect ratio."""

    def __init__(
        self,
        ntk,
        elements,
        width: int,
        height: int,
        params: ExactParams,
        deadline: float,
    ):
        self.ntk = ntk
        self.elements = elements
        self.optimized = params.optimized
        if self.optimized:
            layout = _SearchState(width, height, params.scheme, params.topology)
        else:
            layout = GateLayout(width, height, params.scheme, params.topology, ntk.name)
        self.layout = layout
        self.params = params
        self.deadline = deadline
        self.position: dict[int, Tile] = {}
        self.routing = RoutingOptions(
            allow_crossings=params.routing.allow_crossings,
            crossing_penalty=params.routing.crossing_penalty,
            max_length=min(params.max_wire_length, layout.width + layout.height),
            max_expansions=2000,
            engine="fast" if self.optimized else "reference",
        )
        self._tick = 0
        # Candidate tile orders are placement-independent; compute once
        # per ratio instead of re-sorting inside every search node.  Gate
        # and PO orders depend only on the fanin/driver tiles (each sort
        # key is total), so they are cached by those tiles and filtered
        # for free tiles per node.
        self._all_list = [
            Tile(x, y) for y in range(layout.height) for x in range(layout.width)
        ]
        w, h = layout.width, layout.height
        self._border_list = [
            Tile(x, y)
            for x in range(w)
            for y in range(h)
            if x in (0, w - 1) or y in (0, h - 1)
        ]
        pi_tiles = list(self._border_list if params.border_io else self._all_list)
        if layout.scheme is ROW:
            pi_tiles.sort(key=lambda t: (t.y, t.x))
        else:
            pi_tiles.sort(key=lambda t: (t.x + t.y, t.y, t.x))
        self._pi_sorted = pi_tiles
        self._gate_orders: dict = {}
        self._po_orders: dict = {}
        if self.optimized:
            routing = self.routing
            #: Per-ratio limits of the A* kernel: crossings, crossing
            #: penalty, cost cap (wire length + 1) and expansions.
            self._limits = (
                routing.allow_crossings,
                routing.crossing_penalty,
                routing.max_length + 1,
                routing.max_expansions,
            )
            self._reach_memo: dict = {}
            # Dead-signal tracking: placed elements that still owe a
            # connection to an unplaced reader.  If such a signal has no
            # admissible free outgoing step, no completion exists below
            # this node (tiles are only added while descending).
            n_readers: dict[int, int] = {}
            for kind, payload in elements:
                if kind == "po":
                    n_readers[payload[1]] = n_readers.get(payload[1], 0) + 1
                else:
                    for f in ntk.node(payload).fanins:
                        if not ntk.is_constant(f):
                            n_readers[f] = n_readers.get(f, 0) + 1
            self._n_readers = n_readers
            self._owed = dict(n_readers)
            self._pending: dict[int, Tile] = {}
            # Suffix counts of border-bound elements (PIs + POs) for the
            # border-capacity lower bound.
            n = len(elements)
            suffix = [0] * (n + 1)
            for d in range(n - 1, -1, -1):
                kind, payload = elements[d]
                is_io = kind == "po" or ntk.node(payload).gate_type is GateType.PI
                suffix[d] = suffix[d + 1] + (1 if is_io else 0)
            self._io_suffix = suffix
            # Transpose symmetry: a square 2DDWave grid maps any layout
            # to its transpose, so the first PI can be confined to the
            # lower-left triangle without losing feasibility.
            self._break_transpose = (
                layout.scheme is TWODDWAVE
                and layout.topology is Topology.CARTESIAN
                and layout.width == layout.height
            )
            # Chain windows (monotone schemes): an element with ``a``
            # chain edges above it and ``b`` below it can only sit where
            # the monotone axis leaves room for both.  Candidates outside
            # the window are doomed, so filtering them (after capping)
            # preserves search outcomes exactly.
            self._monotone = None
            if layout.scheme is TWODDWAVE and layout.topology is Topology.CARTESIAN:
                self._monotone = "diag"
                self._span = layout.width + layout.height - 2
            elif layout.scheme is ROW:
                self._monotone = "row"
                self._span = layout.height - 1
            if self._monotone:
                self._from_pi, self._to_po = _chain_bounds(ntk)
        else:
            self._break_transpose = False
            self._monotone = None

    def run(self) -> GateLayout | None:
        """Search this aspect ratio; the cropped layout, or ``None``."""
        if not self.search(0):
            return None
        if self.optimized:
            return self.layout.materialize(self.ntk.name)
        self.layout.shrink_to_fit()
        return self.layout

    # -- helpers -----------------------------------------------------------

    def _check_time(self) -> None:
        self._tick += 1
        if self._tick % 64 == 0 and time.monotonic() > self.deadline:
            raise _Timeout

    def _free_tiles_needed(self, depth: int) -> bool:
        """Prune: every unplaced element needs at least one free tile."""
        remaining = len(self.elements) - depth
        free = self.layout.width * self.layout.height - sum(
            1 for t, _ in self.layout.tiles() if t.z == 0
        )
        return free >= remaining

    def _free(self, tiles) -> list[Tile]:
        """The unoccupied (ground-layer) tiles of ``tiles``, in order."""
        ground = self.layout._grid[0]
        w = self.layout.width
        return [t for t in tiles if ground[t.y * w + t.x] is None]

    def _window(self, tiles: list[Tile], lo: int, hi: int) -> list[Tile]:
        """Keep tiles whose monotone-axis value lies in [lo, hi]."""
        if self._monotone == "diag":
            return [t for t in tiles if lo <= t.x + t.y <= hi]
        return [t for t in tiles if lo <= t.y <= hi]

    def _track_place(self, uid: int | None, fanin_uids, tile: Tile | None) -> None:
        """Update the pending-signal map after placing an element."""
        owed = self._owed
        pending = self._pending
        for f in fanin_uids:
            owed[f] -= 1
            if not owed[f]:
                pending.pop(f, None)
        if uid is not None and self._n_readers.get(uid):
            pending[uid] = tile

    def _track_unplace(self, uid: int | None, fanin_uids) -> None:
        if uid is not None:
            self._pending.pop(uid, None)
        owed = self._owed
        pending = self._pending
        position = self.position
        for f in fanin_uids:
            owed[f] += 1
            if owed[f] == 1:
                pending[f] = position[f]

    def _dead_signal(self) -> bool:
        """True if some placed signal with pending readers cannot escape.

        A pending reader must route *from* the signal's tile, and the
        first A* step needs an outgoing neighbour that is either free
        ground (wire or the reader's own placement) or a crossable BUF.
        Tiles are only ever added while descending, so a signal that is
        walled in now stays walled in throughout the subtree.
        """
        layout = self.layout
        succ = _arena_for(layout).succ
        ground, above = layout._grid
        allow_cross = self.routing.allow_crossings
        buf = GateType.BUF
        w = layout.width
        for p in self._pending.values():
            for n_g in succ[p.y * w + p.x]:
                gate = ground[n_g]
                if gate is None:
                    break
                if allow_cross and gate.gate_type is buf and above[n_g] is None:
                    break
            else:
                return True
        return False

    # -- search ------------------------------------------------------------

    def search(self, depth: int) -> bool:
        self._check_time()
        if depth == len(self.elements):
            return True
        if self.optimized:
            if len(self.elements) - depth > self.layout.num_free_ground():
                return False
            if (
                self.params.border_io
                and self._io_suffix[depth] > self.layout.num_free_border()
            ):
                return False
            if self._pending and self._dead_signal():
                return False
        elif not self._free_tiles_needed(depth):
            return False
        kind, payload = self.elements[depth]
        if kind == "po":
            return self._place_po(depth, payload)
        uid = payload
        node = self.ntk.node(uid)
        if node.gate_type is GateType.PI:
            return self._place_pi(depth, uid, node)
        return self._place_gate(depth, uid, node)

    def _place_pi(self, depth: int, uid: int, node) -> bool:
        candidates = self._free(self._pi_sorted)
        if depth == 0 and self._break_transpose:
            candidates = [t for t in candidates if t.x <= t.y]
        layout = self.layout
        candidates = self._capped(candidates)
        if self._monotone:
            candidates = self._window(candidates, 0, self._span - self._to_po[uid])
        w = layout.width
        for tile in candidates:
            mark = layout.snapshot() if self.optimized else None
            layout.create_pi(tile if mark is None else tile.y * w + tile.x, node.name)
            self.position[uid] = tile
            if mark is not None:
                self._track_place(uid, (), tile)
            if self.search(depth + 1):
                return True
            del self.position[uid]
            if mark is not None:
                self._track_unplace(uid, ())
                layout.rollback(mark)
            else:
                layout.remove(tile)
        return False

    def _gate_candidates(self, fanins: list[Tile]):
        """Free tiles ordered by distance from the fanins' frontier."""
        key = tuple(fanins)
        order = self._gate_orders.get(key)
        if order is None:
            tiles = self._all_list
            if self.layout.scheme is TWODDWAVE:
                # On a monotone scheme the gate must dominate all its
                # fanins, because every wire step strictly increases x + y.
                min_x = max(f.x for f in fanins)
                min_y = max(f.y for f in fanins)
                tiles = [t for t in tiles if t.x >= min_x and t.y >= min_y]
            elif self.layout.scheme is ROW:
                # ROW clocking only admits downward flow (same-row
                # neighbours share a zone), so gates must sit strictly
                # below their fanins.
                min_y = max(f.y for f in fanins)
                tiles = [t for t in tiles if t.y > min_y]
            anchor_x = sum(f.x for f in fanins) / len(fanins)
            anchor_y = sum(f.y for f in fanins) / len(fanins)
            decorated = sorted(
                (abs(t[0] - anchor_x) + abs(t[1] - anchor_y), t[0] + t[1], t[0], t)
                for t in tiles
            )
            order = [d[3] for d in decorated]
            if len(self._gate_orders) >= 4096:
                self._gate_orders.clear()
            self._gate_orders[key] = order
        return self._capped(self._free(order))

    def _place_gate(self, depth: int, uid: int, node) -> bool:
        fanins = [self.position[f] for f in node.fanins]
        candidates = self._gate_candidates(fanins)
        layout = self.layout
        if self._monotone:
            candidates = self._window(
                candidates, self._from_pi[uid], self._span - self._to_po[uid]
            )
        if self.optimized:
            # Reachability flood: a candidate is viable only if every
            # fanin can reach it at all (over-approximation of the
            # constrained A*), which kills hopeless A* calls wholesale.
            w = layout.width
            for fanin in fanins:
                reach = self._reachable(fanin.y * w + fanin.x)
                candidates = [t for t in candidates if t.y * w + t.x in reach]
        for tile in candidates:
            self._check_time()
            mark = layout.snapshot() if self.optimized else None
            at = tile if mark is None else tile.y * w + tile.x
            refs = self._route_fanins(fanins, at)
            if refs is None:
                if mark is not None:
                    layout.rollback(mark)
                continue
            layout.create_gate(node.gate_type, at, refs, node.name)
            self.position[uid] = tile
            if mark is not None:
                self._track_place(uid, node.fanins, tile)
            if self.search(depth + 1):
                return True
            del self.position[uid]
            if mark is not None:
                self._track_unplace(uid, node.fanins)
                layout.rollback(mark)
            else:
                layout.remove(tile)
                for ref, src in zip(refs, fanins):
                    unroute(layout, ref, src)
        return False

    def _place_po(self, depth: int, payload) -> bool:
        index, signal, name = payload
        driver = self.position[signal]
        order = self._po_orders.get(driver)
        if order is None:
            order = sorted(
                self._border_list if self.params.border_io else self._all_list,
                key=lambda t: (abs(t.x - driver.x) + abs(t.y - driver.y), t.x, t.y),
            )
            self._po_orders[driver] = order
        layout = self.layout
        capped = self._capped(self._free(order))
        if self._monotone:
            capped = self._window(
                capped, self._from_pi.get(signal, 0) + 1, self._span
            )
        w = layout.width
        if self.optimized:
            reach = self._reachable(driver.y * w + driver.x)
            capped = [t for t in capped if t.y * w + t.x in reach]
        for tile in capped:
            self._check_time()
            mark = layout.snapshot() if self.optimized else None
            at = tile if mark is None else tile.y * w + tile.x
            refs = self._route_fanins([driver], at)
            if refs is None:
                if mark is not None:
                    layout.rollback(mark)
                continue
            layout.create_po(at, refs[0], name or f"po{index}")
            if mark is not None:
                self._track_place(None, (signal,), None)
            if self.search(depth + 1):
                return True
            if mark is not None:
                self._track_unplace(None, (signal,))
                layout.rollback(mark)
            else:
                layout.remove(tile)
                unroute(layout, refs[0], driver)
        return False

    def _capped(self, tiles):
        if self.params.candidate_cap is None:
            return tiles
        return tiles[: self.params.candidate_cap]

    # -- memoized reachability ---------------------------------------------

    def _reachable(self, start: int) -> set[int]:
        """Ground indices reachable from ground index ``start`` by any wire path.

        An occupancy-only flood over the clock-admissible successor
        table: no wire-length cap, no avoid set, no expansion budget —
        a strict over-approximation of what the in-search A* can do, so
        filtering candidates through it never prunes a routable one.
        """
        key = (start, self.layout.occupancy_hash)
        memo = self._reach_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        layout = self.layout
        succ = _arena_for(layout).succ
        ground, above = layout._grid
        allow_cross = self.routing.allow_crossings
        buf = GateType.BUF
        reach: set[int] = set()
        visited = {start}
        queue = [start]
        while queue:
            g = queue.pop()
            for n_g in succ[g]:
                reach.add(n_g)
                if n_g in visited:
                    continue
                gate = ground[n_g]
                if gate is None:
                    if above[n_g] is not None and not allow_cross:
                        continue
                elif not (allow_cross and gate.gate_type is buf and above[n_g] is None):
                    continue
                visited.add(n_g)
                queue.append(n_g)
        if len(memo) >= 4096:
            memo.clear()
        memo[key] = reach
        return reach

    def _route_fanins(self, fanins: list[Tile], target):
        """Route all fanins into ``target`` with distinct entry sides.

        ``target`` and the returned refs (each fanin's last wire, or the
        fanin itself) are flat indices on the search state and ``Tile``
        objects on the baseline's ``GateLayout``; ``None`` if a fanin
        cannot be routed.
        """
        if not self.optimized:
            return self._route_fanins_layout(fanins, target)
        state = self.layout
        w = state.width
        n = w * state.height
        limits = self._limits
        refs: list[int] = []
        # The earlier refs' ground and crossing indices; their ground
        # entries (< n) double as the distinct-entry check.
        avoid: set[int] = set()
        for fanin in fanins:
            source = fanin.y * w + fanin.x
            path = _astar(state, source, target, avoid, *limits)
            if path is None:
                return None
            ref = path[-2]
            entry = ref - n if ref >= n else ref
            if entry in avoid:
                return None
            refs.append(state.create_wires(path))
            avoid.add(entry)
            avoid.add(entry + n)
        return refs

    def _route_fanins_layout(self, fanins: list[Tile], target: Tile) -> list[Tile] | None:
        """The baseline's ``_route_fanins``, on a ``GateLayout``."""
        refs: list[Tile] = []
        ends: list[tuple[Tile, Tile]] = []
        for fanin in fanins:
            options = self.routing
            if refs:
                taken = frozenset({r.ground for r in refs} | {r.above for r in refs})
                options = RoutingOptions(
                    allow_crossings=options.allow_crossings,
                    crossing_penalty=options.crossing_penalty,
                    max_length=options.max_length,
                    max_expansions=options.max_expansions,
                    avoid=taken,
                    engine=options.engine,
                )
            path = find_path(self.layout, fanin, target, options)
            if path is None or (
                len(path) >= 2 and refs and path[-2].ground in {r.ground for r in refs}
            ):
                for end, src in ends:
                    unroute(self.layout, end, src)
                return None
            previous = path[0]
            for pos in path[1:-1]:
                self.layout.create_wire(pos, previous)
                previous = pos
            refs.append(previous)
            ends.append((previous, fanin))
        return refs
