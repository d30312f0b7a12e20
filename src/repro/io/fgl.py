"""The ``.fgl`` gate-level file format (MNT Bench contribution #4).

The paper introduces *.fgl* as "a standardized and human-readable
representation of FCN layouts" with read and write utilities integrated
into *fiction*.  The format is XML: a ``<layout>`` header carrying name,
topology, size and clocking scheme, followed by one ``<gate>`` element
per occupied tile with its id, type, optional pin name, location and
incoming signal locations.

This module provides a faithful, round-trip-safe implementation:
``write_fgl(read_fgl(path)) == file`` up to whitespace, and every layout
this reproduction produces can be serialised and re-read losslessly
(including crossing-layer wires and OPEN-clocked per-tile zones).

Every stored artifact passes through this module whenever it becomes a
layout again, so both directions avoid building a DOM:

* :func:`layout_to_fgl` emits the canonical pretty-printed document
  directly — byte-for-byte identical to the historical
  ``minidom.parseString(ET.tostring(...)).toprettyxml(indent="    ")``
  round trip, which ``tests/io/test_fgl.py`` keeps as its oracle.
* Reading has two tiers.  :func:`scan_canonical` matches the exact bytes
  the writer emits with a few compiled regexes and returns the header
  fields and the gates as columns; it is the only copy of that grammar,
  shared with the columnar decoder in :mod:`repro.analytics.tables`.  Any other text —
  foreign indentation, attributes, reordered elements, entities or
  characters the writer never emits — goes to the XML tier
  (:func:`fgl_to_layout_xml`), an
  :func:`~xml.etree.ElementTree.iterparse` reader that releases each
  ``<gate>`` as soon as it is recorded.  Both tiers build the layout
  with the same code, so a text reads to the same layout either way,
  and malformed content raises :class:`FglError` (a ``ValueError``)
  naming the element, from either tier.  A layout or gate name with a
  C0 control character other than the tab (a line break, raw or as a
  character reference) is malformed: names reach the line-based
  cell-level formats as labels.
"""

from __future__ import annotations

import heapq
import io
import re
import xml.etree.ElementTree as ET
from array import array
from itertools import accumulate, chain, count, islice, repeat
from operator import lt, sub
from pathlib import Path
from typing import NamedTuple

from ..layout.clocking import ClockingScheme, get_scheme
from ..layout.coordinates import Tile, Topology
from ..layout.gate_layout import GateLayout, LayoutGate
from ..networks.logic_network import GateType

#: Format version written to the header.
FGL_VERSION = "1.0"

#: GateType → .fgl type tag (fiction spells inverters INV).
_TYPE_TO_TAG = {
    GateType.PI: "PI",
    GateType.PO: "PO",
    GateType.BUF: "BUF",
    GateType.NOT: "INV",
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.MAJ: "MAJ",
    GateType.MUX: "MUX",
    GateType.FANOUT: "FANOUT",
}

_TAG_TO_TYPE = {tag: t for t, tag in _TYPE_TO_TAG.items()}
_TAG_TO_TYPE["NOT"] = GateType.NOT  # accepted alias
_TAG_TO_TYPE["FO"] = GateType.FANOUT

_TOPOLOGY_TO_TAG = {
    Topology.CARTESIAN: "cartesian",
    Topology.HEXAGONAL_EVEN_ROW: "hexagonal_even_row",
}
_TAG_TO_TOPOLOGY = {tag: t for t, tag in _TOPOLOGY_TO_TAG.items()}
_TAG_TO_TOPOLOGY["hexagonal"] = Topology.HEXAGONAL_EVEN_ROW


class FglError(ValueError):
    """Raised for malformed ``.fgl`` content."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _escape_text(value: str) -> str:
    """Text-node escaping exactly as ``minidom`` performs it (``&``, ``<``,
    ``"``, ``>`` — in that order), so the streaming ``.fgl`` and ``.sqd``
    writers stay byte-identical to the historical pretty-printed output."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace(">", "&gt;")
    )


def layout_to_fgl(layout: GateLayout) -> str:
    """Serialise a gate-level layout as an ``.fgl`` XML string.

    Emits the canonical pretty-printed form directly (4-space indent,
    one leaf element per line, ``<tag/>`` for empty containers) — the
    exact byte stream the historical ``ElementTree`` → ``minidom``
    round trip produced, at a fraction of the cost.
    """
    out: list[str] = [
        '<?xml version="1.0" ?>\n'
        "<fgl>\n"
        f"    <version>{FGL_VERSION}</version>\n"
        "    <layout>\n"
        f"        <name>{_escape_text(layout.name or 'layout')}</name>\n"
        f"        <topology>{_TOPOLOGY_TO_TAG[layout.topology]}</topology>\n"
        "        <size>\n"
        f"            <x>{layout.width}</x>\n"
        f"            <y>{layout.height}</y>\n"
        "            <z>1</z>\n"
        "        </size>\n"
        "        <clocking>\n"
        f"            <name>{_escape_text(layout.scheme.name)}</name>\n"
    ]
    append = out.append
    if not layout.scheme.regular:
        zones = [(tile, layout.zone(tile)) for tile, _ in layout.tiles() if tile.z == 0]
        if zones:
            append("            <zones>\n")
            for tile, clock in zones:
                append(
                    "                <zone>\n"
                    f"                    <x>{tile.x}</x>\n"
                    f"                    <y>{tile.y}</y>\n"
                    f"                    <clock>{clock}</clock>\n"
                    "                </zone>\n"
                )
            append("            </zones>\n")
        else:
            append("            <zones/>\n")
    append("        </clocking>\n    </layout>\n")

    ordered = _serialisation_order(layout)
    if not ordered:
        append("    <gates/>\n</fgl>\n")
        return "".join(out)
    append("    <gates>\n")
    ids: dict[Tile, int] = {tile: index for index, tile in enumerate(ordered)}
    for tile in ordered:
        gate = layout.get(tile)
        assert gate is not None
        append(
            "        <gate>\n"
            f"            <id>{ids[tile]}</id>\n"
            f"            <type>{_TYPE_TO_TAG[gate.gate_type]}</type>\n"
        )
        if gate.name:
            append(f"            <name>{_escape_text(gate.name)}</name>\n")
        append(
            "            <loc>\n"
            f"                <x>{tile.x}</x>\n"
            f"                <y>{tile.y}</y>\n"
            f"                <z>{tile.z}</z>\n"
            "            </loc>\n"
        )
        if gate.fanins:
            append("            <incoming>\n")
            for fanin in gate.fanins:
                append(
                    "                <signal>\n"
                    f"                    <x>{fanin.x}</x>\n"
                    f"                    <y>{fanin.y}</y>\n"
                    f"                    <z>{fanin.z}</z>\n"
                    "                </signal>\n"
                )
            append("            </incoming>\n")
        append("        </gate>\n")
    append("    </gates>\n</fgl>\n")
    return "".join(out)


def _serialisation_order(layout: GateLayout) -> list[Tile]:
    """PIs in interface order, then everything else in *canonical*
    topological order (raster-order tie-breaking), with POs in interface
    order at the end — so readers rebuild the exact same interface and
    ``write → read → write`` is byte-stable regardless of the order the
    layout was built in."""
    indegree: dict[Tile, int] = {}
    readers: dict[Tile, list[Tile]] = {}
    for tile, gate in layout.tiles():
        indegree.setdefault(tile, 0)
        for fanin in gate.fanins:
            indegree[tile] += 1
            readers.setdefault(fanin, []).append(tile)
    heap = [
        (t.y, t.x, t.z, t) for t, degree in indegree.items() if degree == 0
    ]
    heapq.heapify(heap)
    ordered: list[Tile] = []
    while heap:
        _, _, _, tile = heapq.heappop(heap)
        ordered.append(tile)
        for reader in readers.get(tile, ()):
            indegree[reader] -= 1
            if indegree[reader] == 0:
                heapq.heappush(heap, (reader.y, reader.x, reader.z, reader))
    if len(ordered) != len(indegree):
        raise ValueError("layout connectivity contains a cycle")
    pis = layout.pis()
    pos = layout.pos()
    excluded = set(pis) | set(pos)
    middle = [t for t in ordered if t not in excluded]
    return pis + middle + pos


def write_fgl(layout: GateLayout, path) -> None:
    """Write a layout to an ``.fgl`` file."""
    Path(path).write_text(layout_to_fgl(layout), encoding="utf-8")

# ---------------------------------------------------------------------------
# Reading, tier 1: the canonical scanner
# ---------------------------------------------------------------------------

# A name as the writer emits it after _escape_text: no markup character,
# no line break (``str.splitlines`` also breaks at U+0085, U+2028 and
# U+2029), no character XML forbids, and no entity but the four
# _escape_text writes.  Other entities, a raw '>' (and so ']]>') and
# '\r' (which XML turns into '\n') are left to the XML tier, as is a
# name with surrounding whitespace (the XML tier strips it).
_NAME = (
    '((?:[^<>&"\\r\\n\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f\\x85\\u2028\\u2029'
    '\\ud800-\\udfff\\ufffe\\uffff]'
    "|&(?:amp|lt|gt|quot);)+)"
)
_NUM = "([0-9]{1,9})"

_HEADER_RE = re.compile(
    '<\\?xml version="1\\.0" \\?>\n'
    "<fgl>\n"
    "    <version>1\\.0</version>\n"
    "    <layout>\n"
    f"        <name>{_NAME}</name>\n"
    "        <topology>(cartesian|hexagonal_even_row)</topology>\n"
    "        <size>\n"
    f"            <x>{_NUM}</x>\n"
    f"            <y>{_NUM}</y>\n"
    "            <z>1</z>\n"
    "        </size>\n"
    "        <clocking>\n"
    f"            <name>{_NAME}</name>\n"
)

_ZONE_RE = re.compile(
    "                <zone>\n"
    f"                    <x>{_NUM}</x>\n"
    f"                    <y>{_NUM}</y>\n"
    f"                    <clock>{_NUM}</clock>\n"
    "                </zone>\n"
)

_CLOCKING_CLOSE = "        </clocking>\n    </layout>\n"
_ZONES_OPEN = "            <zones>\n"
_ZONES_CLOSE = "            </zones>\n"
_ZONES_EMPTY = "            <zones/>\n"
_GATES_EMPTY = "    <gates/>\n</fgl>\n"
_GATES_OPEN = "    <gates>\n"
_GATES_CLOSE = "    </gates>\n</fgl>\n"

_SIGNAL = (
    "                <signal>\n"
    f"                    <x>{_NUM}</x>\n"
    f"                    <y>{_NUM}</y>\n"
    f"                    <z>{_NUM}</z>\n"
    "                </signal>\n"
)
_SIGNAL_RE = re.compile(_SIGNAL)

# The first signal is captured by the gate pattern itself: most gates
# (wires, fanouts, inverters, POs) have exactly one.
_GATE_RE = re.compile(
    "        <gate>\n"
    f"            <id>{_NUM}</id>\n"
    "            <type>([A-Z0-9]+)</type>\n"
    f"(?:            <name>{_NAME}</name>\n)?"
    "            <loc>\n"
    f"                <x>{_NUM}</x>\n"
    f"                <y>{_NUM}</y>\n"
    f"                <z>{_NUM}</z>\n"
    "            </loc>\n"
    "(?:            <incoming>\n"
    f"{_SIGNAL}"
    f"((?:{_SIGNAL.replace(_NUM, '[0-9]{1,9}')})*)"
    "            </incoming>\n"
    ")?"
    "        </gate>\n"
)

_TAG_TO_TYPE_ARITY = {tag: (t, t.arity) for tag, t in _TAG_TO_TYPE.items()}


def _unescape(text: str) -> str:
    """Invert :func:`_escape_text` (only when entities occur)."""
    if "&" not in text:
        return text
    return (
        text.replace("&quot;", '"')
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
    )


class CanonicalFgl(NamedTuple):
    """Header fields and gate columns of one canonical ``.fgl`` text.

    Gate ``i`` of the file (id ``i``) has type ``types[i]``, pin name
    ``names[i]`` (``None`` for none) and tile ``(xs[i], ys[i], zs[i])``;
    its fanins are ``(fx[j], fy[j], fz[j])`` for ``j`` in
    ``range(fanin_start[i], fanin_start[i + 1])``.
    """

    name: str
    topology: Topology
    width: int
    height: int
    scheme: ClockingScheme
    #: ``{(x, y): clock}`` for irregular schemes, else ``None``.
    zones: dict[tuple[int, int], int] | None
    types: list[GateType]
    names: list[str | None]
    xs: array
    ys: array
    zs: array
    fanin_start: array
    fx: array
    fy: array
    fz: array

    def records(self) -> list[tuple]:
        """The gates as ``(id, type, name, (x, y, z), fanins)`` records,
        the form the XML tier collects."""
        signals = list(_tiles(self.fx, self.fy, self.fz))
        starts = self.fanin_start
        return [
            (i, gate_type, name, tile, signals[starts[i] : starts[i + 1]])
            for i, (gate_type, name, tile) in enumerate(
                zip(self.types, self.names, _tiles(self.xs, self.ys, self.zs))
            )
        ]


def _tiles(xs, ys, zs):
    """:class:`Tile` objects for coordinate columns, made by the C-level
    ``tuple.__new__`` rather than one Python-level ``Tile()`` call each."""
    return map(tuple.__new__, repeat(Tile), zip(xs, ys, zs))


def scan_canonical(text: str) -> CanonicalFgl | None:
    """Scan ``text`` if it has exactly the shape :func:`layout_to_fgl`
    writes; return ``None`` for anything else.

    Besides the byte shape the scanner checks what every written file
    satisfies: a known scheme, a positive size, zone clocks in range,
    gate ids numbered in file order, known type tags, and every gate in
    bounds, alone on its tile, with its type's fanin count and — on the
    crossing layer — a wire.  Whether fanins resolve to occupied tiles
    is left to the caller.  ``None`` sends the text to the XML tier,
    which accepts it or raises the :class:`FglError` naming the element.
    """
    header = _HEADER_RE.match(text)
    if header is None:
        return None
    name, topology_tag, width, height, scheme_name = header.groups()
    width, height = int(width), int(height)
    if not (width and height) or name.strip() != name:
        return None
    try:
        scheme = get_scheme(_unescape(scheme_name))
    except ValueError:
        return None

    pos = header.end()
    zones: dict[tuple[int, int], int] | None = None
    if not scheme.regular:
        zones = {}
        if text.startswith(_ZONES_EMPTY, pos):
            pos += len(_ZONES_EMPTY)
        elif text.startswith(_ZONES_OPEN, pos):
            pos += len(_ZONES_OPEN)
            while (zone := _ZONE_RE.match(text, pos)) is not None:
                x, y, clock = zone.groups()
                if int(clock) >= scheme.num_phases:
                    return None
                zones[(int(x), int(y))] = int(clock)
                pos = zone.end()
            if not zones or not text.startswith(_ZONES_CLOSE, pos):
                return None
            pos += len(_ZONES_CLOSE)
        else:
            return None
    if not text.startswith(_CLOCKING_CLOSE, pos):
        return None
    pos += len(_CLOCKING_CLOSE)

    if text.startswith(_GATES_EMPTY, pos):
        _, gates = _scan_gates("", 0, width, height)  # no gates
        end = pos + len(_GATES_EMPTY)
    elif text.startswith(_GATES_OPEN, pos):
        scanned = _scan_gates(text, pos + len(_GATES_OPEN), width, height)
        if scanned is None or not text.startswith(_GATES_CLOSE, scanned[0]):
            return None
        end, gates = scanned
        end += len(_GATES_CLOSE)
    else:
        return None
    if end != len(text):
        return None
    return CanonicalFgl(
        _unescape(name), _TAG_TO_TOPOLOGY[topology_tag], width, height, scheme,
        zones, *gates,
    )


def _scan_gates(text: str, pos: int, width: int, height: int):
    """Scan the ``<gate>`` run at ``pos``: ``(end, columns)`` with the
    gate columns of :class:`CanonicalFgl` in field order, or ``None``
    when a gate fails a check of :func:`scan_canonical`."""
    types: list[GateType] = []
    names: list[str | None] = []
    xs, ys, zs = array("i"), array("i"), array("i")
    fanin_start = array("i", [0])
    fx, fy, fz = array("i"), array("i"), array("i")
    gate_match = _GATE_RE.match
    signal_findall = _SIGNAL_RE.findall
    tag_to_type_arity = _TAG_TO_TYPE_ARITY
    wire = GateType.BUF
    count = 0
    while (gate := gate_match(text, pos)) is not None:
        gate_id, tag, name, x, y, z, sx, sy, sz, more = gate.groups()
        # An unknown tag gets an arity no gate has, failing the check below.
        gate_type, arity = tag_to_type_arity.get(tag, (None, -1))
        x, y, z = int(x), int(y), int(z)
        if sx is not None:
            fx.append(int(sx))
            fy.append(int(sy))
            fz.append(int(sz))
            if more:
                for a, b, c in signal_findall(more):
                    fx.append(int(a))
                    fy.append(int(b))
                    fz.append(int(c))
        if (
            len(fx) - fanin_start[-1] != arity
            or int(gate_id) != count
            or x >= width
            or y >= height
            or z > 1
            or (z and gate_type is not wire)
        ):
            return None
        if name is not None:
            if name.strip() != name:
                return None
            name = _unescape(name)
        types.append(gate_type)
        names.append(name)
        xs.append(x)
        ys.append(y)
        zs.append(z)
        fanin_start.append(len(fx))
        count += 1
        pos = gate.end()
    if len(set(zip(xs, ys, zs))) != count:
        return None  # two gates on one tile
    return pos, (types, names, xs, ys, zs, fanin_start, fx, fy, fz)


# ---------------------------------------------------------------------------
# Reading, tier 2: the XML reader
# ---------------------------------------------------------------------------


def _int_child(parent: ET.Element, tag: str, context: str) -> int:
    child = parent.find(tag)
    if child is None or child.text is None:
        raise FglError(f"missing <{tag}> in {context}")
    try:
        return int(child.text.strip())
    except ValueError:
        raise FglError(f"non-integer <{tag}> in {context}: {child.text!r}") from None


def _text_child(parent: ET.Element, tag: str, context: str) -> str:
    child = parent.find(tag)
    if child is None or child.text is None:
        raise FglError(f"missing <{tag}> in {context}")
    return child.text.strip()


#: The characters the canonical ``_NAME`` excludes as control or line
#: break characters: every C0 control but the tab, and the other line
#: boundaries of ``str.splitlines`` (U+0085, U+2028, U+2029).  XML still
#: delivers them, raw or as character references; a name carrying one
#: would reach the line-based cell-level formats as file syntax.
_NAME_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x85\u2028\u2029]")


def _checked_name(name: str, context: str) -> str:
    if _NAME_CONTROL.search(name):
        raise FglError(
            f"{context}: name {name!r} contains a control character or line break"
        )
    return name


def _tile_of(element: ET.Element, context: str) -> Tile:
    return Tile(
        _int_child(element, "x", context),
        _int_child(element, "y", context),
        _int_child(element, "z", context),
    )


def _header_to_layout(header: ET.Element) -> GateLayout:
    """Build the (still empty) layout from a completed ``<layout>`` header."""
    name = _checked_name(_text_child(header, "name", "<layout>"), "<layout>")
    topology_tag = _text_child(header, "topology", "<layout>")
    if topology_tag not in _TAG_TO_TOPOLOGY:
        raise FglError(f"unknown topology {topology_tag!r}")
    size = header.find("size")
    if size is None:
        raise FglError("missing <size>")
    width = _int_child(size, "x", "<size>")
    height = _int_child(size, "y", "<size>")
    clocking = header.find("clocking")
    if clocking is None:
        raise FglError("missing <clocking>")
    scheme_name = _text_child(clocking, "name", "<clocking>")
    try:
        scheme = get_scheme(scheme_name)
    except ValueError as exc:
        raise FglError(f"<clocking>: {exc}") from None
    zones = None
    zones_el = clocking.find("zones")
    if zones_el is not None:
        if scheme.regular:
            raise FglError(f"scheme {scheme.name} is regular but zones are given")
        zones = {}
        for zone in zones_el.findall("zone"):
            x = _int_child(zone, "x", "<zone>")
            y = _int_child(zone, "y", "<zone>")
            zones[(x, y)] = _int_child(zone, "clock", "<zone>")
    return _new_layout(
        name, _TAG_TO_TOPOLOGY[topology_tag], width, height, scheme, zones
    )


def _gate_record(element: ET.Element) -> tuple:
    """Extract one gate record from a ``<gate>`` element."""
    gate_id = _int_child(element, "id", "<gate>")
    tag = _text_child(element, "type", f"gate {gate_id}")
    if tag not in _TAG_TO_TYPE:
        raise FglError(f"unknown gate type {tag!r} (gate {gate_id})")
    gate_type = _TAG_TO_TYPE[tag]
    name_el = element.find("name")
    gate_name = name_el.text.strip() if name_el is not None and name_el.text else None
    if gate_name is not None:
        _checked_name(gate_name, f"gate {gate_id}")
    loc_el = element.find("loc")
    if loc_el is None:
        raise FglError(f"gate {gate_id} has no <loc>")
    tile = _tile_of(loc_el, f"gate {gate_id}")
    fanins: list[Tile] = []
    incoming = element.find("incoming")
    if incoming is not None:
        for signal in incoming.findall("signal"):
            fanins.append(_tile_of(signal, f"gate {gate_id} signal"))
    if len(fanins) != gate_type.arity:
        raise FglError(
            f"{tag} at {tile} (gate {gate_id}) has {len(fanins)} incoming "
            f"signals, expected {gate_type.arity}"
        )
    return (gate_id, gate_type, gate_name, tile, fanins)


def _parse_fgl(source) -> GateLayout:
    """Streaming ``.fgl`` parser over any file-like object.

    Uses :func:`~xml.etree.ElementTree.iterparse` and discards each
    ``<gate>`` element as soon as its record is extracted, so reading a
    large artifact never holds the whole document tree.
    """
    try:
        return _iterparse_fgl(source)
    except ET.ParseError as exc:
        raise FglError(f"not well-formed XML: {exc}") from exc
    except (UnicodeError, LookupError) as exc:
        raise FglError(f"undecodable document: {exc}") from exc


def _iterparse_fgl(source) -> GateLayout:
    parser = ET.iterparse(source, events=("start", "end"))
    try:
        _, root = next(parser)
    except StopIteration:
        raise FglError("empty document") from None
    if root.tag != "fgl":
        raise FglError(f"root element is <{root.tag}>, expected <fgl>")

    layout: GateLayout | None = None
    gates_elem: ET.Element | None = None
    records = []
    stack: list[ET.Element] = [root]
    for event, elem in parser:
        if event == "start":
            if len(stack) == 1 and elem.tag == "gates" and gates_elem is None:
                gates_elem = elem
            stack.append(elem)
            continue
        stack.pop()
        if len(stack) == 2 and elem.tag == "gate" and stack[-1] is gates_elem:
            records.append(_gate_record(elem))
            gates_elem.remove(elem)
        elif len(stack) == 1:
            if elem.tag == "layout" and layout is None:
                layout = _header_to_layout(elem)
            root.remove(elem)
    if layout is None:
        raise FglError("missing <layout> header")
    if gates_elem is None:
        raise FglError("missing <gates>")
    return _place_records(layout, records)


# ---------------------------------------------------------------------------
# Reading: building the layout (shared by both tiers)
# ---------------------------------------------------------------------------


def _new_layout(name, topology, width, height, scheme, zones) -> GateLayout:
    """The empty layout a header describes; ``zones`` maps ``(x, y)`` to
    a clock for irregular schemes."""
    if width < 1 or height < 1:
        raise FglError(f"<size> must be positive, got {width}x{height}")
    layout = GateLayout(width, height, scheme, topology, name)
    for (x, y), clock in (zones or {}).items():
        if not 0 <= clock < scheme.num_phases:
            raise FglError(
                f"<zone> at ({x},{y}) has clock {clock}, "
                f"outside 0..{scheme.num_phases - 1}"
            )
        layout.assign_zone(Tile(x, y), clock)
    return layout


def _place_records(layout: GateLayout, records) -> GateLayout:
    """Place gate records in dependency order: a gate may appear before
    its fanins."""
    placed: set[Tile] = set()
    pending = records
    while pending:
        stuck = []
        for record in pending:
            if placed.issuperset(record[4]):
                _create(layout, record)
                placed.add(record[3])
            else:
                stuck.append(record)
        if len(stuck) == len(pending):
            missing = ", ".join(str(r[3]) for r in stuck[:5])
            raise FglError(f"gates with unresolvable fanins: {missing}")
        pending = stuck
    return layout


def _create(layout: GateLayout, record: tuple) -> None:
    gate_id, gate_type, name, tile, fanins = record
    try:
        if gate_type is GateType.BUF and not name:
            layout.create_wire(tile, fanins[0])
        elif gate_type is GateType.PI:
            layout.create_pi(tile, name)
        elif gate_type is GateType.PO:
            layout.create_po(tile, fanins[0], name)
        else:
            layout.create_gate(gate_type, tile, fanins, name)
    except ValueError as exc:
        raise FglError(f"gate {gate_id} ({_TYPE_TO_TAG[gate_type]}): {exc}") from None


# ---------------------------------------------------------------------------
# Reading: entry points
# ---------------------------------------------------------------------------


def columns_to_layout(columns: CanonicalFgl) -> GateLayout:
    """Build the :class:`GateLayout` of scanned gate columns, raising the
    :class:`FglError` :func:`fgl_to_layout` raises for their text.

    Rows that read only earlier rows are adopted in bulk: the scanner
    has made every other check of ``create_*`` (see
    :func:`scan_canonical`), so they cannot fail and :func:`_place_records`
    would place them in row order.  Any other columns take
    :func:`_place_records` and its :class:`FglError`.
    """
    layout = _new_layout(
        columns.name, columns.topology, columns.width, columns.height,
        columns.scheme, columns.zones,
    )
    if not _reads_earlier_rows(columns):
        return _place_records(layout, columns.records())
    starts = columns.fanin_start
    signals = _tiles(columns.fx, columns.fy, columns.fz)
    fanins = map(tuple, map(islice, repeat(signals), map(sub, starts[1:], starts)))
    gates = map(
        tuple.__new__, repeat(LayoutGate), zip(columns.types, fanins, columns.names)
    )
    layout._adopt(list(_tiles(columns.xs, columns.ys, columns.zs)), list(gates))
    return layout


def layout_to_columns(layout: GateLayout) -> CanonicalFgl:
    """The gate columns of ``layout`` as a :class:`CanonicalFgl`, one
    row per occupied tile in the layout's tile order, with no text in
    between."""
    tiles = list(layout._tiles)
    gates = list(layout._tiles.values())
    signals = [fanin for gate in gates for fanin in gate.fanins]
    zones = None
    if not layout.scheme.regular:
        zones = {(x, y): clock for (x, y, _), clock in layout._zones.items()}
    return CanonicalFgl(
        layout.name, layout.topology, layout.width, layout.height, layout.scheme,
        zones,
        [gate.gate_type for gate in gates],
        [gate.name for gate in gates],
        array("i", [tile[0] for tile in tiles]),
        array("i", [tile[1] for tile in tiles]),
        array("i", [tile[2] for tile in tiles]),
        array("i", accumulate([len(gate.fanins) for gate in gates], initial=0)),
        array("i", [signal[0] for signal in signals]),
        array("i", [signal[1] for signal in signals]),
        array("i", [signal[2] for signal in signals]),
    )


def _reads_earlier_rows(columns: CanonicalFgl) -> bool:
    """Does every gate read only gates of earlier rows?  Then
    :func:`_place_records` places the rows in one pass, in row order."""
    row_of = dict(zip(zip(columns.xs, columns.ys, columns.zs), count()))
    starts = columns.fanin_start
    resolved = map(
        row_of.get, zip(columns.fx, columns.fy, columns.fz), repeat(len(starts))
    )
    readers = chain.from_iterable(
        map(repeat, count(), map(sub, starts[1:], starts))
    )
    return all(map(lt, resolved, readers))


def fgl_to_layout(text: str) -> GateLayout:
    """Parse ``.fgl`` XML into a :class:`GateLayout`.

    Canonical text takes the scanner; anything else takes the XML tier.
    Both raise :class:`FglError` for content no layout can be built from.
    """
    scanned = scan_canonical(text)
    if scanned is None:
        return fgl_to_layout_xml(text)
    return columns_to_layout(scanned)


def fgl_to_columns(text: str) -> CanonicalFgl:
    """The gate columns of ``.fgl`` text, for consumers that compile
    columns rather than walk a :class:`GateLayout`.

    Canonical text whose gates read only earlier gates — what
    :func:`layout_to_fgl` writes — is scanned and returned with no
    layout built: such rows place in one pass and no check of the
    layout build can refuse them (the scanner knows no constant tag).
    Any other text is read to a layout and converted back by
    :func:`layout_to_columns`, so it is refused with the same
    :class:`FglError` as :func:`fgl_to_layout`, and its rows come in
    the layout's tile order.
    """
    scanned = scan_canonical(text)
    if scanned is not None and _reads_earlier_rows(scanned):
        return scanned
    layout = fgl_to_layout_xml(text) if scanned is None else columns_to_layout(scanned)
    return layout_to_columns(layout)


def fgl_to_layout_xml(text: str) -> GateLayout:
    """Parse ``.fgl`` XML through the XML tier alone.

    The reader for text the scanner leaves aside, and the independent
    side of the differential checks on :func:`fgl_to_layout`.
    """
    return _parse_fgl(io.StringIO(text))


def read_fgl(path) -> GateLayout:
    """Read an ``.fgl`` file into a :class:`GateLayout`.

    UTF-8 files in the canonical form take the scanner.  Every other
    file goes to the XML tier as bytes, so its XML declaration decides
    the encoding; bytes that do not decode raise :class:`FglError`.
    """
    data = Path(path).read_bytes()
    try:
        scanned = scan_canonical(data.decode("utf-8"))
    except UnicodeDecodeError:
        scanned = None
    if scanned is None:
        return _parse_fgl(io.BytesIO(data))
    return columns_to_layout(scanned)
