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
from .coordinates import Tile, adjacent
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
    structure: list[str] = []
    entry_sides: list[str] = []
    clocking: list[str] = []
    fanout_capacity: list[str] = []
    crossings: list[str] = []
    for tile, gate in tiles.items():
        gate_type = gate.gate_type
        fanins = gate.fanins
        # Rule: structure (arity, duplicate fanins, adjacency).
        if len(fanins) != gate_type.arity:
            structure.append(
                f"{tile}: {gate_type.value} has {len(fanins)} fanins, "
                f"expected {gate_type.arity}"
            )
        if len(set(fanins)) != len(fanins):
            structure.append(f"{tile}: duplicate fanin references")
        tile_ground = tile.ground
        for fanin in fanins:
            if fanin not in tiles:
                structure.append(f"{tile}: fanin {fanin} is an empty tile")
                continue
            fanin_ground = fanin.ground
            if (
                not adjacent(topology, fanin_ground, tile_ground)
                and fanin_ground != tile_ground
            ):
                structure.append(f"{tile}: fanin {fanin} is not adjacent")
        # Rule: distinct entry sides.  Two fanins arriving from the same
        # neighbouring position (one on the ground layer, one on the
        # crossing layer) would put two signals on the same tile edge,
        # which no FCN gate implementation supports.
        if len(fanins) >= 2:
            sides = [f.ground for f in fanins]
            if len(set(sides)) != len(sides):
                entry_sides.append(
                    f"{tile}: multiple fanins enter through the same side"
                )
        # Rule: clocking.
        for fanin in fanins:
            if fanin not in tiles:
                continue
            if fanin.ground == tile_ground:
                # Vertical (inter-layer) hop on the same tile: used when a
                # crossing wire descends; zones coincide by construction.
                continue
            if not layout.is_incoming_clocked(tile, fanin):
                clocking.append(
                    f"{tile} (zone {layout.zone(tile)}): fanin {fanin} "
                    f"(zone {layout.zone(fanin)}) violates clocking"
                )
        # Rule: fanout capacity.
        bucket = readers.get(tile)
        degree = len(bucket) if bucket is not None else 0
        if gate_type is GateType.PO:
            if degree:
                fanout_capacity.append(f"{tile}: PO is read by {degree} tile(s)")
        elif gate_type is GateType.FANOUT:
            if degree > max_fanout:
                fanout_capacity.append(
                    f"{tile}: fanout degree {degree} exceeds {max_fanout}"
                )
        elif degree > 1:
            fanout_capacity.append(f"{tile}: {gate_type.value} drives {degree} readers")
        # Rule: crossings.
        if tile.z == 1:
            if gate_type is not GateType.BUF:
                crossings.append(f"{tile}: crossing layer hosts {gate_type.value}")
            if tile.ground not in tiles:
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
    _check_dataflow(layout, report)
    return report


def _check_dataflow(layout: GateLayout, report: DrcReport) -> None:
    try:
        layout.topological_tiles()
    except ValueError as exc:
        report.add(str(exc))
        return
    readers = layout._readers
    for tile, gate in layout.tiles():
        if gate.gate_type is not GateType.PO and not readers.get(tile):
            report.warn(f"{tile}: {gate.gate_type.value} output is unread")


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
