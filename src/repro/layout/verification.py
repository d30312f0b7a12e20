"""Design-rule checking for gate-level layouts.

This is the reproduction of fiction's ``gate_level_drvs`` (design rule
violations) pass, which MNT Bench runs over every generated file before
publishing it.  A layout is *well-formed* when:

* every fanin reference points at an adjacent, occupied tile,
* data flow respects the clocking (zone of source + 1 ≡ zone of target),
* every element has the fanin count its gate type requires,
* fanout degrees respect tile capabilities (1 for gates/wires/PIs,
  ``max_fanout`` for fanout tiles, 0 for POs),
* every fanin enters through a *distinct* tile side — a tile edge
  carries one signal (two stacked wires cross, they do not run parallel),
* crossing-layer tiles are wires sitting above occupied ground tiles,
* the connectivity graph is acyclic and every non-PO element is read,
* border I/O: PIs/POs sit on the layout border (MNT Bench convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..networks.logic_network import GateType
from .coordinates import Topology, adjacent
from .gate_layout import GateLayout


@dataclass
class DrcReport:
    """Outcome of a design-rule check: a list of human-readable violations."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def add(self, message: str) -> None:
        self.violations.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def summary(self) -> str:
        if self.ok and not self.warnings:
            return "DRC clean"
        lines = [f"{len(self.violations)} violation(s), {len(self.warnings)} warning(s)"]
        lines += [f"  E: {v}" for v in self.violations]
        lines += [f"  W: {w}" for w in self.warnings]
        return "\n".join(lines)


def check_layout(
    layout: GateLayout,
    max_fanout: int = 2,
    require_border_io: bool = False,
) -> DrcReport:
    """Run all design-rule checks over ``layout``.

    One pass over the occupied tiles, probing the occupied set and
    reader map directly.  Each rule appends to its own list during the
    pass; the lists are concatenated in a fixed rule order (structure,
    entry sides, clocking, fanout capacity, crossings, I/O, dataflow),
    so the report does not depend on how the rules share the loop.
    """
    report = DrcReport()
    tiles = layout._tiles
    readers = layout._readers
    topology = layout.topology
    cartesian = topology is Topology.CARTESIAN
    # Regular schemes read zones straight from the clocking tables (what
    # GateLayout.zone does); OPEN clocking asks the layout.
    regular = layout._clock_tables is not None
    if regular:
        zone_rows = layout._zone_rows
        period_x, period_y = layout._period_x, layout._period_y
        phases = layout.scheme.num_phases
    po, fanout = GateType.PO, GateType.FANOUT
    structure: list[str] = []
    entry_sides: list[str] = []
    clocking: list[str] = []
    fanout_capacity: list[str] = []
    crossings: list[str] = []
    unread: list[str] = []
    for tile, gate in tiles.items():
        gate_type = gate.gate_type
        fanins = gate.fanins
        count = len(fanins)
        # Rule: structure (arity, duplicate fanins, adjacency).
        if count != gate_type.arity:
            structure.append(
                f"{tile}: {gate_type.value} has {count} fanins, "
                f"expected {gate_type.arity}"
            )
        if count >= 2 and len(set(fanins)) != count:
            structure.append(f"{tile}: duplicate fanin references")
        x, y = tile[0], tile[1]
        # Rules: adjacency (structure) and clocking, per occupied fanin.
        # Adjacency ignores layers, so the tiles stand for their ground.
        for fanin in fanins:
            if fanin not in tiles:
                structure.append(f"{tile}: fanin {fanin} is an empty tile")
                continue
            fx, fy = fanin[0], fanin[1]
            if fx == x and fy == y:
                # Vertical (inter-layer) hop on the same tile: used when a
                # crossing wire descends; zones coincide by construction.
                continue
            if not (
                abs(fx - x) + abs(fy - y) == 1
                if cartesian
                else adjacent(topology, fanin, tile)
            ):
                structure.append(f"{tile}: fanin {fanin} is not adjacent")
            if not (
                (zone_rows[fy % period_y][fx % period_x] + 1) % phases
                == zone_rows[y % period_y][x % period_x]
                if regular
                else layout.is_incoming_clocked(tile, fanin)
            ):
                clocking.append(
                    f"{tile} (zone {layout.zone(tile)}): fanin {fanin} "
                    f"(zone {layout.zone(fanin)}) violates clocking"
                )
        # Rule: distinct entry sides.  Two fanins arriving from the same
        # neighbouring position (one on the ground layer, one on the
        # crossing layer) would put two signals on the same tile edge,
        # which no FCN gate implementation supports.
        if count >= 2:
            sides = [fanin[:2] for fanin in fanins]
            if len(set(sides)) != count:
                entry_sides.append(
                    f"{tile}: multiple fanins enter through the same side"
                )
        # Rule: fanout capacity.
        bucket = readers.get(tile)
        degree = len(bucket) if bucket is not None else 0
        if gate_type is po:
            if degree:
                fanout_capacity.append(f"{tile}: PO is read by {degree} tile(s)")
        else:
            if not degree:
                unread.append(f"{tile}: {gate_type.value} output is unread")
            if gate_type is fanout:
                if degree > max_fanout:
                    fanout_capacity.append(
                        f"{tile}: fanout degree {degree} exceeds {max_fanout}"
                    )
            elif degree > 1:
                fanout_capacity.append(
                    f"{tile}: {gate_type.value} drives {degree} readers"
                )
        # Rule: crossings.
        if tile[2] == 1:
            if gate_type is not GateType.BUF:
                crossings.append(f"{tile}: crossing layer hosts {gate_type.value}")
            if (x, y, 0) not in tiles:
                # No gate library can realise this: the crossing plane is
                # reached through via stacks emitted by the ground tile's
                # block, so a hovering wire has no physical cells at all.
                crossings.append(f"{tile}: crossing wire above an empty ground tile")
    report.violations += structure
    report.violations += entry_sides
    report.violations += clocking
    report.violations += fanout_capacity
    report.violations += crossings
    _check_io(layout, report, require_border_io)
    _check_dataflow(layout, report, unread)
    return report


def _check_dataflow(layout: GateLayout, report: DrcReport, unread: list[str]) -> None:
    """Acyclicity; on an acyclic layout, the unread outputs as warnings."""
    # Any topological order settles acyclicity; this one is memoized for
    # the extraction of the same sign-off (GateLayout._signoff_order).
    try:
        layout._signoff_order()
    except ValueError as exc:
        report.add(str(exc))
        return
    report.warnings += unread


def _check_io(layout: GateLayout, report: DrcReport, require_border: bool) -> None:
    if not layout.pis():
        report.warn("layout has no primary inputs")
    if not layout.pos():
        report.add("layout has no primary outputs")
    if not require_border:
        return
    width, height = layout.width, layout.height
    for tile in layout.pis() + layout.pos():
        on_border = tile.x in (0, width - 1) or tile.y in (0, height - 1)
        if not on_border:
            report.warn(f"{tile}: I/O pad not on the layout border")
