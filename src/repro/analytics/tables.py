"""Struct-of-arrays layout tables decoded straight from ``.fgl`` text.

:class:`LayoutBatch` is the columnar counterpart of
:class:`~repro.layout.gate_layout.GateLayout`: one flat table per
column (tile coordinates, gate kinds, fanin endpoints, resolved fanin
row indices) shared by *all* layouts of a batch, with per-layout offset
ranges — the representation the batch kernels in
:mod:`repro.analytics.kernels` sweep without materialising a single
``GateLayout`` object.

Decoding uses the two tiers of :mod:`repro.io.fgl`:

* text in the writer's canonical form is read by
  :func:`repro.io.fgl.scan_canonical` — the one copy of that grammar,
  shared with :func:`~repro.io.fgl.fgl_to_layout` — whose gate columns
  extend the batch's columns directly;
* anything else — foreign indentation, attribute forms, unexpected
  element order, entities the writer never emits — is read by the XML
  tier (:func:`repro.io.fgl.fgl_to_layout_xml`) and the resulting object
  appended.

So a text decodes to the same rows through either tier, and malformed
content raises the :class:`~repro.io.fgl.FglError` that
``fgl_to_layout`` raises.  The one difference is connectivity: a fanin
that names an empty tile is kept as a dangling row (``fanin_row`` of
``-1``) for the DRC kernels to count, where ``fgl_to_layout`` refuses
the text.

Canonical files are written in serialisation order (PIs in interface
order, a topological middle, POs in interface order), so the row order
of a scanned layout normally *is* a valid topological order; the batch
verifies rather than assumes this (``sorted_flags``), and the kernels
run their own Kahn pass when the property does not hold.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import lt, sub

from ..io.fgl import fgl_to_layout_xml, scan_canonical
from ..layout.clocking import ClockingScheme
from ..layout.coordinates import Topology
from ..layout.gate_layout import GateLayout
from ..networks.logic_network import GateType

# ---------------------------------------------------------------------------
# Gate-kind encoding
# ---------------------------------------------------------------------------

#: Fixed gate-kind order; a row's ``kind`` column holds an index into it.
KIND_ORDER = (
    GateType.PI,
    GateType.PO,
    GateType.BUF,
    GateType.NOT,
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.MAJ,
    GateType.MUX,
    GateType.FANOUT,
    GateType.CONST0,
    GateType.CONST1,
)

KIND_PI = KIND_ORDER.index(GateType.PI)
KIND_PO = KIND_ORDER.index(GateType.PO)
KIND_BUF = KIND_ORDER.index(GateType.BUF)
KIND_NOT = KIND_ORDER.index(GateType.NOT)
KIND_AND = KIND_ORDER.index(GateType.AND)
KIND_NAND = KIND_ORDER.index(GateType.NAND)
KIND_OR = KIND_ORDER.index(GateType.OR)
KIND_NOR = KIND_ORDER.index(GateType.NOR)
KIND_XOR = KIND_ORDER.index(GateType.XOR)
KIND_XNOR = KIND_ORDER.index(GateType.XNOR)
KIND_MAJ = KIND_ORDER.index(GateType.MAJ)
KIND_MUX = KIND_ORDER.index(GateType.MUX)
KIND_FANOUT = KIND_ORDER.index(GateType.FANOUT)
KIND_CONST0 = KIND_ORDER.index(GateType.CONST0)
KIND_CONST1 = KIND_ORDER.index(GateType.CONST1)

KIND_OF = {gate_type: index for index, gate_type in enumerate(KIND_ORDER)}

#: Expected fanin count per kind (mirrors :attr:`GateType.arity`).
KIND_ARITY = tuple(gate_type.arity for gate_type in KIND_ORDER)

# ---------------------------------------------------------------------------
# The batch itself
# ---------------------------------------------------------------------------


class LayoutBatch:
    """Columnar (struct-of-arrays) view of a set of gate-level layouts.

    Per-layout columns (index ``i`` ∈ ``range(num_layouts)``):

    ``names[i]``, ``widths[i]``/``heights[i]`` (declared grid size),
    ``topologies[i]`` (0 cartesian / 1 hexagonal), ``scheme_names[i]``,
    ``schemes[i]`` (resolved :class:`ClockingScheme`), ``num_phases[i]``,
    ``explicit_zones[i]`` (``{(x, y): clock}`` for irregular schemes,
    else ``None``), ``gate_start[i] : gate_start[i + 1]`` (row range),
    ``sorted_flags[i]`` (rows already topologically ordered) and
    ``dangling_flags[i]`` (some fanin references an empty tile).

    Per-row columns (global row index ``r``): ``gx``/``gy``/``gz``
    (tile coordinate), ``kind`` (index into :data:`KIND_ORDER`),
    ``gate_names[r]``, ``ground_occupied[r]`` (the ``z == 0`` tile under
    this row is occupied) and ``fanin_start[r] : fanin_start[r + 1]``
    (fanin range).

    Per-fanin columns (global fanin index ``j``): ``fx``/``fy``/``fz``
    (endpoint coordinate) and ``fanin_row[j]`` (global row index of the
    occupied endpoint, ``-1`` when the endpoint tile is empty).

    Within a layout, PI rows appear in PI interface order and PO rows in
    PO interface order — the property the signature kernel relies on —
    because both the canonical writer and the object fallback serialise
    the interface that way.
    """

    __slots__ = (
        "names",
        "scheme_names",
        "schemes",
        "topologies",
        "widths",
        "heights",
        "num_phases",
        "explicit_zones",
        "gate_start",
        "sorted_flags",
        "dangling_flags",
        "gx",
        "gy",
        "gz",
        "kind",
        "gate_names",
        "ground_occupied",
        "fanin_start",
        "fx",
        "fy",
        "fz",
        "fanin_row",
        "fallback_decodes",
    )

    def __init__(self) -> None:
        self.names: list[str] = []
        self.scheme_names: list[str] = []
        self.schemes: list[ClockingScheme] = []
        self.topologies = array("b")
        self.widths = array("i")
        self.heights = array("i")
        self.num_phases = array("i")
        self.explicit_zones: list[dict[tuple[int, int], int] | None] = []
        self.gate_start = array("i", [0])
        self.sorted_flags = array("b")
        self.dangling_flags = array("b")
        self.gx = array("i")
        self.gy = array("i")
        self.gz = array("i")
        self.kind = array("b")
        self.gate_names: list[str | None] = []
        self.ground_occupied = array("b")
        self.fanin_start = array("i", [0])
        self.fx = array("i")
        self.fy = array("i")
        self.fz = array("i")
        self.fanin_row = array("i")
        #: How many texts missed the canonical fast path (diagnostics).
        self.fallback_decodes = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_texts(cls, texts) -> "LayoutBatch":
        """Decode an iterable of ``.fgl`` payloads into one batch."""
        batch = cls()
        for text in texts:
            batch.append_text(text)
        return batch

    @classmethod
    def from_layouts(cls, layouts) -> "LayoutBatch":
        """Build a batch from already-parsed :class:`GateLayout` objects."""
        batch = cls()
        for layout in layouts:
            batch.append_layout(layout)
        return batch

    def append_text(self, text: str) -> int:
        """Decode one ``.fgl`` payload; returns its layout index.

        Raises the :class:`~repro.io.fgl.FglError` ``fgl_to_layout``
        raises for undecodable payloads.
        """
        scanned = scan_canonical(text)
        if scanned is None:
            self.fallback_decodes += 1
            return self.append_layout(fgl_to_layout_xml(text))
        row_mark = len(self.gx)
        self.gx.extend(scanned.xs)
        self.gy.extend(scanned.ys)
        self.gz.extend(scanned.zs)
        kind_of = KIND_OF
        self.kind.extend([kind_of[gate_type] for gate_type in scanned.types])
        self.gate_names.extend(scanned.names)
        offset = len(self.fx)
        self.fanin_start.extend([offset + start for start in scanned.fanin_start[1:]])
        self.fx.extend(scanned.fx)
        self.fy.extend(scanned.fy)
        self.fz.extend(scanned.fz)
        return self._close_layout(
            row_mark,
            scanned.name,
            scanned.scheme,
            scanned.topology,
            scanned.width,
            scanned.height,
            scanned.zones,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def num_layouts(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return len(self.gx)

    def rows(self, index: int) -> tuple[int, int]:
        """Global row range ``[r0, r1)`` of layout ``index``."""
        return self.gate_start[index], self.gate_start[index + 1]

    def fanins(self, row: int) -> tuple[int, int]:
        """Global fanin range ``[f0, f1)`` of row ``row``."""
        return self.fanin_start[row], self.fanin_start[row + 1]

    # -- object path --------------------------------------------------------

    def append_layout(self, layout: GateLayout) -> int:
        """Append an already-parsed layout (also the non-canonical path)."""
        row_mark = len(self.gx)
        pi_or_po = set(layout.pis()) | set(layout.pos())
        middle = sorted(
            (tile for tile, _ in layout.tiles() if tile not in pi_or_po),
            key=lambda t: (t.y, t.x, t.z),
        )
        for tile in layout.pis() + middle + layout.pos():
            gate = layout.get(tile)
            self.gx.append(tile.x)
            self.gy.append(tile.y)
            self.gz.append(tile.z)
            self.kind.append(KIND_OF[gate.gate_type])
            self.gate_names.append(gate.name or None)
            for fanin in gate.fanins:
                self.fx.append(fanin.x)
                self.fy.append(fanin.y)
                self.fz.append(fanin.z)
            self.fanin_start.append(len(self.fx))
        zones = None
        if not layout.scheme.regular:
            zones = {
                (tile.x, tile.y): layout.zone(tile)
                for tile, _ in layout.tiles()
                if tile.z == 0
            }
        return self._close_layout(
            row_mark,
            layout.name or "layout",
            layout.scheme,
            layout.topology,
            layout.width,
            layout.height,
            zones,
        )

    def _close_layout(
        self, row_mark, name, scheme, topology, width, height, zones
    ) -> int:
        """Resolve the rows appended since ``row_mark`` and append the
        per-layout columns; returns the new layout's index."""
        sorted_flag, dangling_flag = self._resolve_rows(row_mark, len(self.gx))
        index = len(self.names)
        self.names.append(name)
        self.scheme_names.append(scheme.name)
        self.schemes.append(scheme)
        self.topologies.append(0 if topology is Topology.CARTESIAN else 1)
        self.widths.append(width)
        self.heights.append(height)
        self.num_phases.append(scheme.num_phases)
        self.explicit_zones.append(zones)
        self.gate_start.append(len(self.gx))
        self.sorted_flags.append(sorted_flag)
        self.dangling_flags.append(dangling_flag)
        return index

    # -- fanin resolution ---------------------------------------------------

    def _resolve_rows(self, r0: int, r1: int) -> tuple[int, int]:
        """Resolve fanin endpoints of rows ``[r0, r1)`` to row indices.

        Appends ``ground_occupied`` and ``fanin_row`` entries and returns
        the ``(sorted, dangling)`` flag pair.  Rows occupy distinct tiles:
        layouts cannot hold two gates on one tile, and the scanner sends
        such a text to the XML tier, which refuses it.
        """
        gx, gy, gz = self.gx[r0:r1], self.gy[r0:r1], self.gz[r0:r1]
        position_to_row = dict(zip(zip(gx, gy, gz), range(r0, r1)))
        self.ground_occupied.extend(
            map(position_to_row.__contains__, zip(gx, gy, repeat(0)))
        )
        starts = self.fanin_start[r0 : r1 + 1]
        f0, f1 = starts[0], starts[-1]
        resolved = list(
            map(
                position_to_row.get,
                zip(self.fx[f0:f1], self.fy[f0:f1], self.fz[f0:f1]),
                repeat(-1),
            )
        )
        self.fanin_row.extend(resolved)
        # The reading row of each fanin, to check it reads an earlier row.
        counts = map(sub, starts[1:], starts)
        readers = chain.from_iterable(map(repeat, range(r0, r1), counts))
        is_sorted = all(map(lt, resolved, readers))
        return int(is_sorted), int(-1 in resolved)
