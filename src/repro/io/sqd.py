"""SiQAD ``.sqd`` writer for SiDB (Bestagon) cell layouts.

SiQAD stores silicon-dangling-bond designs as XML with one ``<dbdot>``
per dangling bond, addressed by H-Si(100)-2×1 lattice coordinates
``(n, m, l)``.  fiction exports Bestagon layouts in this format for
physical simulation; this writer emits the same structure for the
schematic SiDB layouts produced by :mod:`repro.gatelibs.bestagon`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from xml.dom import minidom

from ..celllayout.cell_layout import SiDBLayout


class SqdError(ValueError):
    """Raised for malformed ``.sqd`` content."""


def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def sidb_layout_to_sqd(layout: SiDBLayout, engine: str = "stream") -> str:
    """Serialise an SiDB layout in SiQAD XML syntax.

    The default ``"stream"`` engine builds the document with a flat
    string builder — one append per dot, no DOM tree.  The
    ``"reference"`` engine is the retained original (ElementTree +
    minidom pretty-print, which materialises the whole document twice);
    both emit byte-identical XML, which the differential tests and the
    scalability bench oracle assert.
    """
    if engine == "reference":
        return _to_sqd_reference(layout)
    if engine != "stream":
        raise ValueError(f"unknown .sqd writer engine {engine!r}")
    name = _escape_text(layout.name or "sidb_layout")
    parts: list[str] = [
        '<?xml version="1.0" ?>\n'
        "<siqad>\n"
        "    <program>\n"
        "        <file_purpose>save</file_purpose>\n"
        f"        <name>{name}</name>\n"
        "    </program>\n"
        "    <design>\n"
    ]
    dots = sorted(layout.dots)
    if not dots:
        parts.append('        <layer type="DB"/>\n')
    else:
        parts.append('        <layer type="DB">\n')
        input_labels = layout.input_labels
        output_labels = layout.output_labels
        for dot in dots:
            n, m, l = dot
            parts.append(
                "            <dbdot>\n"
                "                <layer_id>2</layer_id>\n"
                f'                <latcoord n="{n}" m="{m}" l="{l}"/>\n'
            )
            label = input_labels.get(dot)
            role = "input"
            if label is None:
                label = output_labels.get(dot)
                role = "output"
            if label:
                parts.append(
                    f'                <label type="{role}">{_escape_text(label)}</label>\n'
                )
            parts.append("            </dbdot>\n")
        parts.append("        </layer>\n")
    parts.append("    </design>\n</siqad>\n")
    return "".join(parts)


def _to_sqd_reference(layout: SiDBLayout) -> str:
    """The retained original writer — the byte-equality oracle."""
    root = ET.Element("siqad")
    program = ET.SubElement(root, "program")
    ET.SubElement(program, "file_purpose").text = "save"
    ET.SubElement(program, "name").text = layout.name or "sidb_layout"

    design = ET.SubElement(root, "design")
    layer = ET.SubElement(design, "layer", type="DB")
    for n, m, l in sorted(layout.dots):
        dbdot = ET.SubElement(layer, "dbdot")
        ET.SubElement(dbdot, "layer_id").text = "2"
        ET.SubElement(dbdot, "latcoord", n=str(n), m=str(m), l=str(l))
        label = layout.input_labels.get((n, m, l))
        role = "input"
        if label is None:
            label = layout.output_labels.get((n, m, l))
            role = "output"
        if label:
            ET.SubElement(dbdot, "label", type=role).text = label

    raw = ET.tostring(root, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="    ")


def write_sqd(layout: SiDBLayout, path) -> None:
    """Write an SiDB layout to an ``.sqd`` file."""
    Path(path).write_text(sidb_layout_to_sqd(layout), encoding="utf-8")


def sqd_to_sidb_layout(text: str) -> SiDBLayout:
    """Parse SiQAD XML back into an SiDB layout."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SqdError(f"not well-formed SiQAD XML: {exc}") from None
    layout = SiDBLayout()
    name = root.findtext("program/name")
    if name:
        layout.name = name
    for dbdot in root.iter("dbdot"):
        latcoord = dbdot.find("latcoord")
        if latcoord is None:
            continue
        try:
            n, m, l = (int(latcoord.get(axis, "0")) for axis in "nml")
        except ValueError:
            raise SqdError(f"non-integer latcoord {latcoord.attrib}") from None
        layout.add_dot(n, m, l)
        label_el = dbdot.find("label")
        if label_el is not None and label_el.text:
            if label_el.get("type", "input") == "output":
                layout.output_labels[(n, m, l)] = label_el.text
            else:
                layout.input_labels[(n, m, l)] = label_el.text
    return layout


def read_sqd(path) -> SiDBLayout:
    """Read an ``.sqd`` file into an SiDB layout."""
    return sqd_to_sidb_layout(Path(path).read_text(encoding="utf-8"))
