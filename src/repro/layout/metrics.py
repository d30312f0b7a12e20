"""Layout quality metrics.

These are the figures MNT Bench reports for every benchmark file and
that Table I of the paper tabulates: bounding-box width/height/area (in
tiles), wire and crossing counts, plus the timing figures fiction
computes for clocked layouts (critical path length and throughput).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gate_layout import GateLayout


@dataclass(frozen=True)
class LayoutMetrics:
    """Summary metrics of a gate-level layout."""

    width: int
    height: int
    area: int
    num_gates: int
    num_wires: int
    num_crossings: int
    critical_path: int
    throughput: int

    def __str__(self) -> str:
        return (
            f"{self.width} × {self.height} = {self.area} tiles, "
            f"{self.num_gates} gates, {self.num_wires} wires, "
            f"{self.num_crossings} crossings, CP {self.critical_path}, "
            f"throughput 1/{self.throughput}"
        )


def metrics_from_counts(
    width: int,
    height: int,
    num_gates: int,
    num_wires: int,
    num_crossings: int,
    critical_path: int,
    throughput: int,
) -> LayoutMetrics:
    """Assemble a :class:`LayoutMetrics` from already-computed counts.

    The single construction point shared by :func:`compute_metrics` and
    the columnar kernels in :mod:`repro.analytics.kernels`, so the
    derived ``area`` invariant (``width * height``) lives in one place.
    """
    return LayoutMetrics(
        width=width,
        height=height,
        area=width * height,
        num_gates=num_gates,
        num_wires=num_wires,
        num_crossings=num_crossings,
        critical_path=critical_path,
        throughput=throughput,
    )


def _critical_path_and_throughput(layout: GateLayout) -> tuple[int, int]:
    """(critical path, throughput) from one topological pass.

    The critical path is the longest PI→PO path in tiles, both endpoints
    included.  The throughput denominator says a new input is accepted
    every ``1/x`` cycles: in a clocked layout, reconvergent paths whose
    lengths differ by a non-multiple of the number of phases force the
    layout to wait additional cycles between inputs, so ``x`` is one
    plus the largest path-length imbalance over all reconvergent fanins,
    in full clock cycles — the computation fiction performs for its
    ``critical_path_length_and_throughput`` call.

    Depths here count tiles from 1 at the sources; counting hops from 0
    instead shifts every depth by the same constant, so the imbalances
    are the same either way.
    """
    phases = layout.scheme.num_phases
    depth: dict = {}
    best = 0
    worst = 0
    tiles = layout._tiles
    for tile in layout.topological_tiles():
        gate = tiles[tile]
        if gate.fanins:
            fanin_depths = [depth[f] for f in gate.fanins]
            d = 1 + max(fanin_depths)
            if len(fanin_depths) > 1:
                imbalance = (max(fanin_depths) - min(fanin_depths)) // phases
                if imbalance > worst:
                    worst = imbalance
        else:
            d = 1
        depth[tile] = d
        if gate.is_po and d > best:
            best = d
    return best, worst + 1


def compute_metrics(layout: GateLayout) -> LayoutMetrics:
    """All metrics of a layout in one pass-friendly record.

    One counting pass over the occupied tiles, and one topological pass
    shared between the critical path and the throughput.  Raises
    :class:`ValueError` when the connectivity is cyclic or dangling.
    """
    width, height = layout.bounding_box()
    gates = wires = crossings = 0
    for tile, gate in layout.tiles():
        if gate.is_wire:
            wires += 1
        elif gate.is_logic or gate.is_fanout:
            gates += 1
        if tile.z == 1:
            crossings += 1
    critical_path, tp = _critical_path_and_throughput(layout)
    return metrics_from_counts(
        width=width,
        height=height,
        num_gates=gates,
        num_wires=wires,
        num_crossings=crossings,
        critical_path=critical_path,
        throughput=tp,
    )
