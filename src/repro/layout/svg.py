"""SVG rendering of gate-level layouts.

The MNT Bench website previews layouts graphically; this module
reproduces that view as standalone SVG files: one rounded square (or
pointy-top hexagon) per tile, tinted by clock zone, labelled with the
gate function, with fanin connections drawn as arrows and crossing-layer
wires dashed.  The output opens in any browser and needs no JavaScript.

Text is escaped with :func:`html.escape` (``quote=False``), which
replaces the same ``&``, ``<`` and ``>`` as ``xml.sax.saxutils.escape``
but, unlike it, does not import ``urllib.request`` and its HTTP, e-mail
and SSL modules.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from ..networks.logic_network import GateType
from .coordinates import Tile, Topology
from .gate_layout import GateLayout

#: Pixel size of one tile.
TILE = 36
_MARGIN = 14

#: Clock zone fill colours (zones 0–3), colour-blind-safe pastels.
ZONE_FILLS = ("#bfdbfe", "#bbf7d0", "#fde68a", "#fecaca")

_LABELS = {
    GateType.PI: "PI",
    GateType.PO: "PO",
    GateType.BUF: "",
    GateType.FANOUT: "F",
    GateType.AND: "&",
    GateType.NAND: "&̄",
    GateType.OR: "≥1",
    GateType.NOR: "≥1̄",
    GateType.XOR: "=1",
    GateType.XNOR: "=1̄",
    GateType.NOT: "1̄",
    GateType.MAJ: "M",
    GateType.MUX: "MUX",
}


def _center(layout: GateLayout, tile: Tile) -> tuple[float, float]:
    x = _MARGIN + tile.x * TILE + TILE / 2
    if layout.topology is Topology.HEXAGONAL_EVEN_ROW and tile.y % 2 == 0:
        x += TILE / 2
    y = _MARGIN + tile.y * TILE + TILE / 2
    return x, y


def _tile_shape(layout: GateLayout, tile: Tile, fill: str, extra: str = "") -> str:
    cx, cy = _center(layout, tile)
    if layout.topology is Topology.CARTESIAN:
        half = TILE / 2 - 1
        return (
            f'<rect x="{cx - half:.1f}" y="{cy - half:.1f}" '
            f'width="{2 * half:.1f}" height="{2 * half:.1f}" rx="4" '
            f'fill="{fill}" stroke="#475569" stroke-width="1" {extra}/>'
        )
    # Pointy-top hexagon.
    r = TILE / 2 - 1
    points = []
    for i in range(6):
        import math

        angle = math.pi / 3 * i + math.pi / 6
        points.append(f"{cx + r * math.cos(angle):.1f},{cy + r * math.sin(angle):.1f}")
    return (
        f'<polygon points="{" ".join(points)}" fill="{fill}" '
        f'stroke="#475569" stroke-width="1" {extra}/>'
    )


def layout_to_svg(layout: GateLayout, show_clock_zones: bool = True) -> str:
    """Render ``layout`` as an SVG document string."""
    width, height = layout.bounding_box()
    width = max(width, 1)
    height = max(height, 1)
    svg_width = 2 * _MARGIN + (width + 0.5) * TILE
    svg_height = 2 * _MARGIN + height * TILE

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{svg_width:.0f}" '
        f'height="{svg_height:.0f}" viewBox="0 0 {svg_width:.0f} {svg_height:.0f}">',
        '<defs><marker id="arrow" viewBox="0 0 6 6" refX="5" refY="3" '
        'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 6 3 L 0 6 z" fill="#334155"/></marker></defs>',
        f'<rect width="100%" height="100%" fill="#f8fafc"/>',
        f"<title>{escape(layout.name or 'layout', quote=False)}</title>",
    ]

    # Background grid tinted by clock zone.
    if show_clock_zones:
        for y in range(height):
            for x in range(width):
                tile = Tile(x, y)
                fill = ZONE_FILLS[layout.zone(tile) % len(ZONE_FILLS)]
                parts.append(_tile_shape(layout, tile, fill, 'opacity="0.35"'))

    # Occupied tiles (ground layer solid, crossing layer outlined).
    ground = [(t, g) for t, g in layout.tiles() if t.z == 0]
    above = [(t, g) for t, g in layout.tiles() if t.z == 1]
    for tile, gate in ground:
        fill = "#ffffff"
        if gate.is_pi:
            fill = "#86efac"
        elif gate.is_po:
            fill = "#fca5a5"
        elif gate.is_logic:
            fill = "#e2e8f0"
        parts.append(_tile_shape(layout, tile, fill))
        label = escape(_LABELS.get(gate.gate_type, "?"), quote=False)
        if gate.name and (gate.is_pi or gate.is_po):
            label = escape(gate.name, quote=False)
        if label:
            cx, cy = _center(layout, tile)
            parts.append(
                f'<text x="{cx:.1f}" y="{cy + 4:.1f}" text-anchor="middle" '
                f'font-family="monospace" font-size="11" fill="#0f172a">{label}</text>'
            )

    # Connections.
    for tile, gate in layout.tiles():
        x2, y2 = _center(layout, tile)
        for fanin in gate.fanins:
            x1, y1 = _center(layout, fanin)
            dashed = ' stroke-dasharray="4 3"' if tile.z == 1 or fanin.z == 1 else ""
            parts.append(
                f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                f'stroke="#334155" stroke-width="1.6" marker-end="url(#arrow)"{dashed}/>'
            )

    # Crossing-layer tiles on top, translucent.
    for tile, gate in above:
        parts.append(_tile_shape(layout, tile, "#c7d2fe", 'opacity="0.8"'))

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(layout: GateLayout, path, show_clock_zones: bool = True) -> None:
    """Write an SVG rendering of ``layout``."""
    Path(path).write_text(layout_to_svg(layout, show_clock_zones), encoding="utf-8")
