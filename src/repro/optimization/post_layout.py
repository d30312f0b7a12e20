"""Post-Layout Optimization (PLO, Hofmann et al., NANOARCH'23 [9]).

PLO takes a finished 2DDWave gate-level layout and shrinks it without
re-running physical design: gates are iteratively relocated toward the
north-west origin, their wiring is deleted and rerouted with the shared
A* router, dangling wire segments are removed, and the bounding box is
cropped.  The result implements the same function on a (often
substantially) smaller area — in Table I every heuristic entry carries
the ``PLO`` suffix for exactly this reason.

The optimisation is greedy gradient descent over gate positions: a move
is kept only when it reduces the cost ``(bounding-box area, total wire
tiles, Σ gate x+y)``; otherwise the layout is restored from the recorded
wiring.  Multiple passes run until a fixpoint or the pass limit.

The descent is incremental.  A persistent connection index keeps the
driver→consumer wire traces and invalidates them only for tiles an
applied move touched.  Candidate relocations are rated by *delta cost*:
on 2DDWave every admissible route is a monotone east/south staircase,
so a move's post-reroute wiring cost is pure geometry and only
feasibility needs the router.  Gates whose whole read neighbourhood is
unchanged since their last failed attempt are skipped, and routes use
target-dominance pruning
(:class:`~repro.physical_design.routing.RoutingOptions.prune_dominated`)
over the shared router arena.  The published method's separate reroute
pass ("wire deletion") cannot shorten a monotone chain, so it is not
run.  ``tests/optimization/test_plo_golden.py`` pins the bytes the
descent produces.
"""

from __future__ import annotations

import bisect
import functools
import time
from dataclasses import dataclass, field, replace

from ..layout.coordinates import Tile
from ..layout.gate_layout import GateLayout, LayoutGate
from ..networks.logic_network import GateType
from ..physical_design.routing import RoutingOptions, find_path


@dataclass
class PostLayoutParams:
    """Parameters of the PLO pass."""

    #: Upper bound on full optimisation sweeps over the layout; the loop
    #: exits earlier as soon as a sweep applies no move (fixpoint).
    max_passes: int = 10
    #: Wall-clock budget in seconds (``None``: unlimited).  Checked
    #: between per-gate attempts, so the bound is soft by at most one
    #: relocation attempt; on expiry the current pass stops and the
    #: layout (always in a consistent state) is cropped and returned.
    timeout: float | None = 60.0
    #: Router configuration used for every reroute during the pass.
    routing: RoutingOptions = field(
        default_factory=lambda: RoutingOptions(crossing_penalty=1)
    )


@dataclass
class PostLayoutResult:
    """Optimised layout plus bookkeeping."""

    layout: GateLayout
    runtime_seconds: float
    passes: int
    moves_applied: int
    area_before: int
    area_after: int
    #: Global cost tuple ``(bounding-box area, wire tiles, Σ gate x+y)``
    #: before/after the pass, maintained by O(changed-tiles) deltas.
    cost_before: tuple[int, int, int] | None = None
    cost_after: tuple[int, int, int] | None = None
    #: Relocation attempts skipped because the gate's read neighbourhood
    #: was provably unchanged since its last failed attempt.
    gates_skipped: int = 0

    @property
    def area_reduction(self) -> float:
        """Relative area reduction (0.25 = 25 % smaller)."""
        if self.area_before == 0:
            return 0.0
        return 1.0 - self.area_after / self.area_before


@dataclass
class _Connection:
    """One routed logical connection between two non-wire elements."""

    driver: Tile
    consumer: Tile
    #: Wire positions from driver to consumer, in order.
    path: list[Tile]


def post_layout_optimization(
    layout: GateLayout, params: PostLayoutParams | None = None
) -> PostLayoutResult:
    """Shrink ``layout`` in place and return it with statistics."""
    from ..layout.clocking import TWODDWAVE

    if layout.scheme is not TWODDWAVE:
        raise ValueError(
            "post-layout optimization assumes 2DDWave monotone data flow; "
            f"got {layout.scheme.name}"
        )
    params = params or PostLayoutParams()
    started = time.monotonic()
    deadline = None if params.timeout is None else started + params.timeout
    passes, moves, skipped, cost_before, cost_after = _optimize(layout, params, deadline)

    layout.shrink_to_fit()
    return PostLayoutResult(
        layout,
        time.monotonic() - started,
        passes,
        moves,
        cost_before[0],  # leading cost component IS the bounding-box area
        cost_after[0],
        cost_before=cost_before,
        cost_after=cost_after,
        gates_skipped=skipped,
    )


# -- the descent -----------------------------------------------------------------------
#
# Three observations make PLO incremental on 2DDWave:
#
# 1. Every admissible wire path is a monotone east/south staircase, so
#    any two chains between the same endpoints have the same length.
#    A reroute pass ("wire deletion") can therefore never find a
#    shorter chain — it is a provable no-op and is not run — and a
#    candidate relocation's post-reroute wiring cost is known *before
#    routing*: only feasibility needs the router.
# 2. A relocation attempt reads only a bounded neighbourhood: the
#    bounding rectangle of the gate, its effective drivers and
#    consumers (wire chains between monotone endpoints cannot leave
#    that rectangle, and dominance-pruned routing cannot either).  A
#    failed attempt re-run on an identical neighbourhood fails again,
#    so gates whose rectangle no applied move has touched are skipped.
# 3. Failed attempts restore the layout exactly, so only *applied*
#    moves invalidate cached state — the connection index and the dirty
#    log track exactly those.


class _IndexEntry:
    """Cached traces of one anchor plus derived relocation geometry.

    Monotone routing makes a candidate's post-move cost *linear* in its
    coordinate sum ``s = x + y``::

        cost(s) = k * s + c0
        k  = 1 + len(incoming) - len(outgoing)
        c0 = Σ_out(consumer.x + consumer.y - 1) - Σ_in(driver.x + driver.y + 1)

    (each driver→candidate chain costs ``manhattan − 1`` wires, each
    candidate→consumer chain likewise, plus the gate position term).
    Caching ``k``/``c0`` together with the feasibility bounds — drivers
    must stay north-west (``min_x``/``min_y``), consumers south-east
    (``mcx``/``mcy``) — makes the common "no improving candidate" case a
    handful of integer compares with no tracing and no allocation.
    """

    __slots__ = (
        "incoming", "outgoing", "rect", "seq",
        "min_x", "min_y", "mcx", "mcy", "k", "c0", "old_cost",
    )

    def __init__(
        self, incoming, outgoing, rect, seq,
        min_x, min_y, mcx, mcy, k, c0, old_cost,
    ) -> None:
        self.incoming = incoming
        self.outgoing = outgoing
        self.rect = rect
        self.seq = seq
        self.min_x = min_x
        self.min_y = min_y
        self.mcx = mcx
        self.mcy = mcy
        self.k = k
        self.c0 = c0
        self.old_cost = old_cost


class _ConnectionIndex:
    """Driver→consumer traces with dirty-set invalidation.

    The whole index is built by ONE sweep over the layout: every wire
    chain is walked exactly once from its driving anchor, and each
    movable gate's entry is assembled from the shared connection
    objects, instead of re-tracing every chain from both ends for every
    gate on every pass.

    ``commit`` records the ground coordinates touched by an applied
    move under a monotonically increasing sequence number; an entry (or
    a recorded failed attempt) is stale exactly when a newer change
    falls inside its read rectangle.  Rectangles carry a one-tile
    margin so adjacent reads (a consumer's other fanin references, the
    crossing layer above a removed wire) are covered conservatively.

    Two views of the same changes answer that question exactly:
    the change log (ground positions in commit order, with the log
    length after every commit) and a last-change stamp per position,
    kept as one ``x -> seq`` dict per touched row.  ``dirty_since``
    scans whichever is smaller — the log suffix after ``seq`` or the
    rectangle's touched rows — so a check costs O(min(rectangle,
    changes since)), never the whole history or the whole rectangle
    area.
    """

    def __init__(self, layout: GateLayout) -> None:
        self.layout = layout
        self.seq = 0
        #: Ground positions touched by applied changes, in commit order;
        #: ``_log_end[seq]`` is the log length after commit ``seq``.
        self._changes: list[tuple[int, int]] = []
        self._log_end: list[int] = [0]
        #: y -> {x -> seq of the last change touching (x, y)}.
        self._stamps: dict[int, dict[int, int]] = {}
        self._entries: dict[Tile, _IndexEntry] = {}
        #: tile -> (seq, rect) of the gate's last failed attempt.
        self._failures: dict[Tile, tuple[int, tuple[int, int, int, int]]] = {}
        #: Current positions of all movable (non-PI, non-wire) elements,
        #: maintained sorted by ``(x + y, tile)``: the sweep order, gates
        #: closest to the origin first, so room opens up progressively
        #: for the ones behind them.
        self.order: list[tuple[int, Tile]] = []
        self._build_all()

    def _build_all(self) -> None:
        """Trace every connection once and index it by both endpoints."""
        layout = self.layout
        tiles = layout._tiles
        readers_map = layout._readers
        buf = GateType.BUF
        conn_out: dict[Tile, list[_Connection]] = {}
        conn_by_ref: dict[tuple[Tile, Tile], _Connection] = {}
        for tile, gate in tiles.items():
            rs = readers_map.get(tile)
            if gate.gate_type is buf and (rs is None or len(rs) <= 1):
                continue  # plain chain wire: covered by its anchor's walk
            if not rs:
                conn_out[tile] = []
                continue
            outs: list[_Connection] = []
            for reader in rs if len(rs) == 1 else sorted(rs):
                path: list[Tile] = []
                current = reader
                while True:
                    nxt = readers_map.get(current)
                    if tiles[current].gate_type is not buf or (
                        nxt is not None and len(nxt) > 1
                    ):
                        break
                    path.append(current)
                    if nxt is None or len(nxt) != 1:
                        break
                    current = nxt[0]
                conn = _Connection(tile, current, path)
                outs.append(conn)
                conn_by_ref[(current, path[-1] if path else tile)] = conn
            conn_out[tile] = outs
        entries = self._entries
        order = self.order
        for tile, gate in tiles.items():
            if gate.is_wire or gate.is_pi:
                continue
            order.append((tile.x + tile.y, tile))
            try:
                incoming = [conn_by_ref[(tile, ref)] for ref in gate.fanins]
            except KeyError:  # pragma: no cover - dangling chain
                continue  # entry is built lazily on first use instead
            outgoing = conn_out.get(tile) or []
            entries[tile] = self._make_entry(tile, incoming, outgoing)
        order.sort()

    # -- dirty tracking -----------------------------------------------------

    def commit(self, tiles) -> None:
        """Record an applied structural change touching ``tiles``."""
        self.seq += 1
        seq = self.seq
        changes = self._changes
        stamps = self._stamps
        for tile in tiles:
            x, y = tile.x, tile.y
            row = stamps.get(y)
            if row is None:
                row = stamps[y] = {}
            elif row.get(x) == seq:
                continue
            row[x] = seq
            changes.append((x, y))
        self._log_end.append(len(changes))

    def dirty_since(self, seq: int, rect: tuple[int, int, int, int]) -> bool:
        """Did any change newer than ``seq`` touch ``rect``?"""
        if seq == self.seq:
            return False  # revalidated this very generation: nothing newer
        x0, y0, x1, y1 = rect
        start = self._log_end[seq]
        changes = self._changes
        stamps = self._stamps
        height = y1 - y0 + 1
        if len(changes) - start <= min(height, len(stamps)):
            for x, y in changes[start:]:
                if x0 <= x <= x1 and y0 <= y <= y1:
                    return True
            return False
        if len(stamps) < height:
            rows = [row for y, row in stamps.items() if y0 <= y <= y1]
        else:
            rows = [stamps[y] for y in range(y0, y1 + 1) if y in stamps]
        width = x1 - x0 + 1
        for row in rows:
            if len(row) <= width:
                for x, stamp in row.items():
                    if stamp > seq and x0 <= x <= x1:
                        return True
            else:
                for x in range(x0, x1 + 1):
                    if row.get(x, 0) > seq:
                        return True
        return False

    # -- trace cache --------------------------------------------------------

    def entry(self, tile: Tile) -> _IndexEntry:
        """The anchor's traces, re-traced only when its rectangle is dirty."""
        entry = self._entries.get(tile)
        if entry is not None:
            if not self.dirty_since(entry.seq, entry.rect):
                entry.seq = self.seq  # revalidate: keeps future scans short
                return entry
        entry = self._build(tile)
        self._entries[tile] = entry
        return entry

    def _build(self, tile: Tile) -> _IndexEntry:
        """Re-trace one gate (same walks as `_build_all`, scoped)."""
        layout = self.layout
        tiles = layout._tiles
        readers_map = layout._readers
        buf = GateType.BUF
        gate = tiles[tile]
        incoming: list[_Connection] = []
        for ref in gate.fanins:
            path: list[Tile] = []
            current = ref
            while True:
                g = tiles[current]
                if g.gate_type is not buf:
                    break
                rs = readers_map.get(current)
                if rs is not None and len(rs) > 1:
                    break  # shared wire: treat as the effective driver
                path.append(current)
                current = g.fanins[0]
            path.reverse()
            incoming.append(_Connection(current, Tile(-1, -1), path))
        rs = readers_map.get(tile)
        outgoing: list[_Connection] = []
        if rs:
            for reader in rs if len(rs) == 1 else sorted(rs):
                path = []
                current = reader
                while True:
                    nxt = readers_map.get(current)
                    if tiles[current].gate_type is not buf or (
                        nxt is not None and len(nxt) > 1
                    ):
                        break
                    path.append(current)
                    if nxt is None or len(nxt) != 1:
                        break
                    current = nxt[0]
                outgoing.append(_Connection(tile, current, path))
        return self._make_entry(tile, incoming, outgoing)

    def _make_entry(self, tile, incoming, outgoing) -> _IndexEntry:
        """Assemble an entry: read rectangle plus relocation geometry.

        The rectangle bounds everything a relocation attempt reads.
        Endpoints suffice: on a monotone scheme every wire chain lies
        inside its endpoints' bounding rectangle (all steps run east or
        south), and candidate positions plus a consumer's other fanin
        references sit within one tile of that hull — covered by the
        one-tile margin.
        """
        tiles = self.layout._tiles
        tx, ty = tile.x, tile.y
        rmin_x = rmax_x = tx
        rmin_y = rmax_y = ty
        min_x = min_y = 0
        old_cost = tx + ty
        c0 = 0
        for conn in incoming:
            driver = conn.driver
            dx, dy = driver.x, driver.y
            if dx > min_x:
                min_x = dx
            if dy > min_y:
                min_y = dy
            if dx < rmin_x:
                rmin_x = dx
            elif dx > rmax_x:
                rmax_x = dx
            if dy < rmin_y:
                rmin_y = dy
            elif dy > rmax_y:
                rmax_y = dy
            old_cost += len(conn.path)
            c0 -= dx + dy + 1
        mcx = mcy = 1 << 30
        for conn in outgoing:
            consumer = conn.consumer
            cx, cy = consumer.x, consumer.y
            if cx < mcx:
                mcx = cx
            if cy < mcy:
                mcy = cy
            if cx < rmin_x:
                rmin_x = cx
            elif cx > rmax_x:
                rmax_x = cx
            if cy < rmin_y:
                rmin_y = cy
            elif cy > rmax_y:
                rmax_y = cy
            old_cost += len(conn.path)
            c0 += cx + cy - 1
            consumer_gate = tiles.get(consumer)
            if consumer_gate is not None:
                for ref in consumer_gate.fanins:
                    if ref.x < rmin_x:
                        rmin_x = ref.x
                    elif ref.x > rmax_x:
                        rmax_x = ref.x
                    if ref.y < rmin_y:
                        rmin_y = ref.y
                    elif ref.y > rmax_y:
                        rmax_y = ref.y
        return _IndexEntry(
            incoming,
            outgoing,
            (rmin_x - 1, rmin_y - 1, rmax_x + 1, rmax_y + 1),
            self.seq,
            min_x,
            min_y,
            mcx,
            mcy,
            1 + len(incoming) - len(outgoing),
            c0,
            old_cost,
        )

    def moved(self, tile: Tile, candidate: Tile) -> None:
        """Update bookkeeping after the gate on ``tile`` moved."""
        order = self.order
        key = (tile.x + tile.y, tile)
        at = bisect.bisect_left(order, key)
        if at < len(order) and order[at] == key:
            del order[at]
        bisect.insort(order, (candidate.x + candidate.y, candidate))
        self._entries.pop(tile, None)
        self._failures.pop(tile, None)

    # -- failed-attempt schedule --------------------------------------------

    def record_failure(self, tile: Tile, rect: tuple[int, int, int, int]) -> None:
        self._failures[tile] = (self.seq, rect)

    def clean_since_failure(self, tile: Tile) -> bool:
        """True when the gate's last attempt failed and nothing in its
        read rectangle changed since — re-attempting is provably futile."""
        record = self._failures.get(tile)
        if record is None:
            return False
        seq, rect = record
        if self.dirty_since(seq, rect):
            return False
        self._failures[tile] = (self.seq, rect)
        return True


class _CostTracker:
    """The global cost tuple, maintained by O(changed tiles) deltas.

    Column/row occupancy histograms give the bounding box without a
    full scan: the maxima only move when their histogram bucket drains,
    and the rescan to the next occupied bucket is amortised against the
    shrinking that drained it.
    """

    def __init__(self, layout: GateLayout) -> None:
        self.layout = layout
        self._columns = [0] * layout.width
        self._rows = [0] * layout.height
        self.wires = 0
        self.position_sum = 0
        self.occupied = 0
        columns = self._columns
        rows = self._rows
        for tile, gate in layout._tiles.items():
            columns[tile.x] += 1
            rows[tile.y] += 1
            self.occupied += 1
            if gate.is_wire:
                self.wires += 1
            else:
                self.position_sum += tile.x + tile.y

    def note_place(self, tile: Tile, gate: LayoutGate) -> None:
        self._columns[tile.x] += 1
        self._rows[tile.y] += 1
        self.occupied += 1
        if gate.is_wire:
            self.wires += 1
        else:
            self.position_sum += tile.x + tile.y

    def note_remove(self, tile: Tile, gate: LayoutGate) -> None:
        self._columns[tile.x] -= 1
        self._rows[tile.y] -= 1
        self.occupied -= 1
        if gate.is_wire:
            self.wires -= 1
        else:
            self.position_sum -= tile.x + tile.y

    @staticmethod
    def _span(histogram: list[int]) -> int:
        for index in range(len(histogram) - 1, -1, -1):
            if histogram[index]:
                return index + 1
        return 0

    def cost(self) -> tuple[int, int, int]:
        if not self.occupied:
            return (0, 0, 0)
        return (
            self._span(self._columns) * self._span(self._rows),
            self.wires,
            self.position_sum,
        )


@functools.lru_cache(maxsize=8)
def _pruned_options(routing: RoutingOptions) -> RoutingOptions:
    """``routing`` with dominance pruning on (cached: it never changes
    returned paths on 2DDWave, so PLO always prunes)."""
    if routing.prune_dominated:
        return routing
    return replace(routing, prune_dominated=True)


def _optimize(layout, params, deadline):
    index = _ConnectionIndex(layout)
    tracker = _CostTracker(layout)
    cost_before = tracker.cost()
    routing = _pruned_options(params.routing)
    moves = 0
    passes = 0
    skipped = 0
    tiles_map = layout._tiles
    for _ in range(params.max_passes):
        passes += 1
        changed = 0
        # Snapshot of the maintained sweep order: mid-pass moves mutate
        # it, but a pass visits the gates as they stood when it started.
        for _, tile in list(index.order):
            if deadline and time.monotonic() > deadline:
                break
            if tile not in tiles_map:
                continue  # may have been rewired by an earlier move
            if index.clean_since_failure(tile):
                skipped += 1
                continue
            changed += _try_improve(layout, tile, routing, index, tracker)
        moves += changed
        if not changed or (deadline and time.monotonic() > deadline):
            break
    return passes, moves, skipped, cost_before, tracker.cost()


def _try_improve(layout, tile, routing, index, tracker) -> bool:
    """Try relocating the element on ``tile`` closer to the origin.

    Candidates are tried in a fixed order: jumps right behind the fanin
    frontier first (they realise most of PLO's area win in one step),
    then small step offsets for fine compaction.  The first candidate
    that routes and lowers the cost is applied.  That decision depends
    only on connection *endpoints* (monotone routing fixes every chain
    length at manhattan distance − 1), so for the common no-improvement
    case this touches nothing but the cached entry's integers — no
    tracing, no detach, no routing, not even a Tile allocation.
    """
    entry = index.entry(tile)
    incoming, outgoing = entry.incoming, entry.outgoing
    min_x, min_y = entry.min_x, entry.min_y
    tx, ty = tile.x, tile.y
    # Keep only candidates the linear delta cost proves improving and
    # feasible: the others would reroute only to be rejected on cost.
    old_sum = tx + ty
    mcx, mcy, k, c0, old_cost = entry.mcx, entry.mcy, entry.k, entry.c0, entry.old_cost
    viable: list[Tile] = []
    seen = None
    for x, y in (
        (min_x, min_y),
        (min_x + 1, min_y),
        (min_x, min_y + 1),
        (min_x + 1, min_y + 1),
        ((min_x + tx) // 2, (min_y + ty) // 2),
        (tx - 1, ty - 1),
        (tx - 1, ty),
        (tx, ty - 1),
        (tx - 2, ty - 2),
        (tx - 2, ty - 1),
        (tx - 1, ty - 2),
    ):
        s = x + y
        if (
            x < min_x or y < min_y or x < 0 or y < 0
            or s >= old_sum          # no closer to the origin (covers == tile)
            or x > mcx or y > mcy    # a consumer sits north/west: infeasible
            or k * s + c0 >= old_cost  # not improving
        ):
            continue
        if seen is None:
            seen = {(x, y)}
        elif (x, y) in seen:
            continue
        else:
            seen.add((x, y))
        viable.append(Tile(x, y))
    if not viable:
        index.record_failure(tile, entry.rect)
        return False

    old_wires = [w for c in incoming for w in c.path] + [
        w for c in outgoing for w in c.path
    ]
    # Candidates occupied by anything the detach would not free stay
    # occupied after it; filtering them here skips the detach/restore
    # cycle when nothing attemptable remains.
    tiles_map = layout._tiles
    freed = set(old_wires)
    viable = [c for c in viable if c not in tiles_map or c in freed]
    if not viable:
        index.record_failure(tile, entry.rect)
        return False

    if _strands_crossing(layout, [tile] + old_wires):
        index.record_failure(tile, entry.rect)
        return False

    po_index = layout.pos().index(tile) if layout.get(tile).is_po else None
    gate = _detach(layout, tile, incoming, outgoing)
    for candidate in viable:
        if candidate in tiles_map:
            continue
        attached = _attach(layout, gate, candidate, incoming, outgoing, routing)
        if attached is None:
            continue
        placed, in_paths, out_paths = attached
        # Feasible and (by delta cost) improving: apply it.
        _restore_po_index(layout, candidate, po_index)
        drivers = [c.driver for c in incoming]
        consumers = [c.consumer for c in outgoing]
        index.commit(
            [tile, candidate] + old_wires + placed + drivers + consumers
        )
        index.moved(tile, candidate)
        # The moved gate's fresh entry is fully known from the routed
        # paths — build it now instead of re-tracing it next pass.
        # Outgoing connections sort by their first chain tile, the order
        # a re-trace would enumerate the gate's readers in.
        new_incoming = [
            _Connection(c.driver, Tile(-1, -1), p)
            for c, p in zip(incoming, in_paths)
        ]
        new_outgoing = [
            _Connection(candidate, c.consumer, p)
            for c, p in zip(outgoing, out_paths)
        ]
        if len(new_outgoing) > 1:
            new_outgoing.sort(key=lambda c: c.path[0] if c.path else c.consumer)
        index._entries[candidate] = index._make_entry(
            candidate, new_incoming, new_outgoing
        )
        for wire in old_wires:
            tracker.note_remove(wire, _WIRE)
        tracker.note_remove(tile, gate)
        for wire in placed:
            tracker.note_place(wire, _WIRE)
        tracker.note_place(candidate, gate)
        return True
    if _attach_verbatim(layout, gate, tile, incoming, outgoing) is None:
        raise RuntimeError("PLO failed to restore a layout it modified")
    _restore_po_index(layout, tile, po_index)
    index.record_failure(tile, entry.rect)
    return False


#: Stand-in wire element for cost-tracker deltas (only ``is_wire`` is read).
_WIRE = LayoutGate(GateType.BUF)


# -- shared helpers --------------------------------------------------------------------


def _restore_po_index(layout: GateLayout, tile: Tile, po_index: int | None) -> None:
    """Move a re-created PO back to its original interface position."""
    if po_index is None:
        return
    layout._pos.remove(tile)
    layout._pos.insert(po_index, tile)


def _strands_crossing(layout: GateLayout, removed: list[Tile]) -> bool:
    """Would deleting ``removed`` leave a crossing wire over empty ground?

    A ``z = 1`` wire is only physically realisable above an occupied
    ground tile (the via stack lives in the ground block), so wire
    chains running *under* someone else's crossing must stay put.
    """
    above = layout._grid[1]
    width, height = layout.width, layout.height
    removing = None  # built only once some removed tile has a crossing
    for x, y, z in removed:
        if z == 0 and 0 <= x < width and 0 <= y < height and above[y * width + x] is not None:
            if removing is None:
                removing = set(removed)
            if Tile(x, y, 1) not in removing:
                return True
    return False


#: Parked fanin reference used while an element is detached; rewired
#: before any move commits, and never observable in a returned layout.
_SENTINEL = Tile(-9, -9, 0)


def _detach(layout: GateLayout, tile: Tile, incoming, outgoing) -> "LayoutGate":
    """Remove the element and all its dedicated wire chains.

    Each consumer's fanin is parked at the :data:`_SENTINEL` position so
    the connectivity bookkeeping stays consistent until `_attach` (or
    `_attach_verbatim`) rewires it.
    """
    for conn in outgoing:
        old_ref = conn.path[-1] if conn.path else tile
        layout.replace_fanin(conn.consumer, old_ref, _SENTINEL)
    for conn in outgoing:
        for wire in reversed(conn.path):
            layout.remove(wire)
    gate = layout.remove(tile)
    for conn in incoming:
        for wire in reversed(conn.path):
            layout.remove(wire)
    return gate


def _attach(
    layout: GateLayout,
    gate,
    tile: Tile,
    incoming,
    outgoing,
    routing: RoutingOptions,
) -> tuple[list[Tile], list[list[Tile]], list[list[Tile]]] | None:
    """Re-place ``gate`` on ``tile`` and reroute everything; undo on fail.

    Returns ``(placed, in_paths, out_paths)`` on success — all wire
    positions placed plus the new chain of each incoming/outgoing
    connection in order (PLO rebuilds the moved gate's index entry from
    these without re-tracing) — or ``None`` on failure.
    """
    refs = []
    placed_wires: list[Tile] = []
    in_paths: list[list[Tile]] = []
    out_paths: list[list[Tile]] = []
    rewired: list[tuple[Tile, Tile]] = []

    def undo() -> None:
        # Re-park any consumers already rewired to the new chains.
        for consumer, new_ref in rewired:
            layout.replace_fanin(consumer, new_ref, _SENTINEL)
        if layout.is_occupied(tile):
            layout.remove(tile)
        for wire in reversed(placed_wires):
            if layout.is_occupied(wire):
                layout.remove(wire)

    taken: set[Tile] = set()
    for conn in incoming:
        options = RoutingOptions(
            allow_crossings=routing.allow_crossings,
            crossing_penalty=routing.crossing_penalty,
            max_expansions=4000,
            avoid=frozenset(taken),
            prune_dominated=routing.prune_dominated,
        )
        path = find_path(layout, conn.driver, tile, options)
        if path is None or (len(path) >= 2 and path[-2].ground in {r.ground for r in refs}):
            undo()
            return None
        previous = path[0]
        for pos in path[1:-1]:
            layout.create_wire(pos, previous)
            placed_wires.append(pos)
            previous = pos
        in_paths.append(path[1:-1])
        refs.append(previous)
        taken.update({previous.ground, previous.above})

    _create_element(layout, gate, tile, refs)

    for conn in outgoing:
        # The new chain must enter the consumer through a side not used
        # by the consumer's other fanins.
        other_refs = [
            f for f in layout.get(conn.consumer).fanins if f != _SENTINEL
        ]
        options = RoutingOptions(
            allow_crossings=routing.allow_crossings,
            crossing_penalty=routing.crossing_penalty,
            max_expansions=4000,
            avoid=frozenset(
                {r.ground for r in other_refs} | {r.above for r in other_refs}
            ),
            prune_dominated=routing.prune_dominated,
        )
        path = find_path(layout, tile, conn.consumer, options)
        if path is None or (
            len(path) >= 2 and path[-2].ground in {r.ground for r in other_refs}
        ):
            undo()
            return None
        previous = path[0]
        for pos in path[1:-1]:
            layout.create_wire(pos, previous)
            placed_wires.append(pos)
            previous = pos
        out_paths.append(path[1:-1])
        layout.replace_fanin(conn.consumer, _SENTINEL, previous)
        rewired.append((conn.consumer, previous))
    return placed_wires, in_paths, out_paths


def _attach_verbatim(
    layout: GateLayout, gate, tile: Tile, incoming, outgoing
) -> list[Tile] | None:
    """Restore the exact original wiring recorded before a failed move."""
    refs = []
    restored: list[Tile] = []
    for conn in incoming:
        previous = conn.driver
        for pos in conn.path:
            layout.create_wire(pos, previous)
            restored.append(pos)
            previous = pos
        refs.append(previous)
    _create_element(layout, gate, tile, refs)
    for conn in outgoing:
        previous = tile
        for pos in conn.path:
            layout.create_wire(pos, previous)
            restored.append(pos)
            previous = pos
        layout.replace_fanin(conn.consumer, _SENTINEL, previous)
    return restored


def _create_element(layout: GateLayout, gate, tile: Tile, refs) -> None:
    if gate.gate_type is GateType.PO:
        layout.create_po(tile, refs[0], gate.name)
    elif gate.gate_type is GateType.PI:  # pragma: no cover - PIs not moved
        layout.create_pi(tile, gate.name)
    else:
        layout.create_gate(gate.gate_type, tile, refs, gate.name)
