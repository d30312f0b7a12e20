"""QCADesigner-style ``.qca`` writer for QCA ONE cell layouts.

MNT Bench's pipeline ends at gate level, but fiction exports QCA ONE
cell layouts to QCADesigner for physical simulation; this writer emits
the same nested ``[TYPE:...]`` block structure QCADesigner files use
(version 2.0 dialect, one ``QCADCell`` entry per cell, layers separated
into ``QCADLayer`` blocks).
"""

from __future__ import annotations

from pathlib import Path

from ..celllayout.cell_layout import QCACell, QCACellLayout, QCACellType

#: Physical cell pitch in nanometres (QCADesigner default).
CELL_PITCH_NM = 20.0

_FUNCTION = {
    QCACellType.NORMAL: "QCAD_CELL_NORMAL",
    QCACellType.INPUT: "QCAD_CELL_INPUT",
    QCACellType.OUTPUT: "QCAD_CELL_OUTPUT",
    QCACellType.FIXED_0: "QCAD_CELL_FIXED",
    QCACellType.FIXED_1: "QCAD_CELL_FIXED",
    QCACellType.ROTATED: "QCAD_CELL_NORMAL",
}


def _cell_head(cell_type: QCACellType, crossing: bool) -> str:
    """A ``QCADCell`` block up to its position lines."""
    mode = (
        "QCAD_CELL_MODE_CROSSOVER"
        if cell_type is QCACellType.ROTATED or crossing
        else "QCAD_CELL_MODE_NORMAL"
    )
    head = (
        "[TYPE:QCADCell]\n"
        f"cell_options.cxCell={CELL_PITCH_NM:.6f}\n"
        f"cell_options.cyCell={CELL_PITCH_NM:.6f}\n"
        f"cell_options.dot_diameter={CELL_PITCH_NM / 4:.6f}\n"
        f"cell_options.mode={mode}\ncell_function={_FUNCTION[cell_type]}\n"
    )
    if cell_type is QCACellType.FIXED_0:
        head += "cell_options.polarization=-1.000000\n"
    elif cell_type is QCACellType.FIXED_1:
        head += "cell_options.polarization=1.000000\n"
    return head


#: Block head per cell type, on the ground layer (False) and on the
#: via/crossing layers (True).
_HEADS = {
    crossing: {cell_type: _cell_head(cell_type, crossing) for cell_type in QCACellType}
    for crossing in (False, True)
}


class _Lines(dict):
    """Text per key, formatted on first use: ``x=…``/``y=…`` lines per
    coordinate, or a cell's closing lines per label."""

    __slots__ = ("_format",)

    def __init__(self, format_line) -> None:
        super().__init__()
        self._format = format_line

    def __missing__(self, key):
        line = self[key] = self._format(key)
        return line


def _closing(label: str | None) -> str:
    """A cell block's label block (if it has a label) and closing tag."""
    if not label:
        return "[#TYPE:QCADCell]\n"
    if label.splitlines() != [label]:
        raise ValueError(f"cell label {label!r} contains a line break")
    return f"[TYPE:QCADLabel]\npsz={label}\n[#TYPE:QCADLabel]\n[#TYPE:QCADCell]\n"


def cell_layout_to_qca(layout: QCACellLayout) -> str:
    """Serialise a QCA cell layout in QCADesigner file syntax.

    Cell positions are grouped by layer in one pass and each layer's
    positions sorted once — O(C log C) total.  A cell block is then
    four memoized text pieces: the block head per (cell type,
    layer > 0), the ``x=…`` and ``y=…`` lines per coordinate, and the
    closing lines per label; no float is formatted per cell.  The cell
    golden corpus (``tests/gatelibs/test_cell_golden.py``) pins the
    bytes.

    A label with a line break raises :class:`ValueError`: the reader
    would take its second line for file syntax.
    """
    cells = layout.cells
    by_layer: dict[int, list] = {}
    for key in cells:
        by_layer.setdefault(key[2], []).append(key)
    xs = _Lines(lambda x: f"x={x * CELL_PITCH_NM:.6f}\n")
    ys = _Lines(lambda y: f"y={y * CELL_PITCH_NM:.6f}\n")
    closings = _Lines(_closing)
    parts: list[str] = [
        "[VERSION]\nqcadesigner_version=2.000000\n[#VERSION]\n[TYPE:DESIGN]\n"
    ]
    for layer in sorted(by_layer):
        heads = _HEADS[layer > 0]
        parts.append(f"[TYPE:QCADLayer]\ntype=1\nstatus=0\npszDescription=layer {layer}\n")
        keys = by_layer[layer]
        keys.sort()
        for key in keys:
            cell = cells[key]
            parts += (
                heads[cell.cell_type],
                xs[key[0]],
                ys[key[1]],
                closings[cell.label],
            )
        parts.append("[#TYPE:QCADLayer]\n")
    parts.append("[#TYPE:DESIGN]\n")
    return "".join(parts)


def write_qca(layout: QCACellLayout, path) -> None:
    """Write a QCA cell layout to a ``.qca`` file."""
    Path(path).write_text(cell_layout_to_qca(layout), encoding="utf-8")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def qca_to_cell_layout(text: str) -> QCACellLayout:
    """Parse QCADesigner file syntax back into a cell layout.

    Understands the subset this module writes (one ``QCADCell`` block per
    cell with ``cell_function``, ``mode``, position and optional label),
    which also covers typical QCADesigner 2.0 exports of fiction.
    """
    layout = QCACellLayout()
    layer = -1
    current: dict | None = None
    label_next = False
    for raw in text.splitlines():
        line = raw.strip()
        if line == "[TYPE:QCADLayer]":
            layer += 1
        elif line == "[TYPE:QCADCell]":
            current = {"layer": max(layer, 0), "function": "QCAD_CELL_NORMAL"}
        elif line == "[#TYPE:QCADCell]":
            if current is not None and "x" in current and "y" in current:
                x = round(current["x"] / CELL_PITCH_NM)
                y = round(current["y"] / CELL_PITCH_NM)
                cell_type = _function_to_type(current)
                layout.set_cell(x, y, QCACell(cell_type, current.get("label")), current["layer"])
            current = None
        elif current is not None:
            if line.startswith("cell_function="):
                current["function"] = line.split("=", 1)[1]
            elif line.startswith("cell_options.mode="):
                current["mode"] = line.split("=", 1)[1]
            elif line.startswith("cell_options.polarization="):
                current["polarization"] = float(line.split("=", 1)[1])
            elif line.startswith("x="):
                current["x"] = float(line.split("=", 1)[1])
            elif line.startswith("y="):
                current["y"] = float(line.split("=", 1)[1])
            elif line == "[TYPE:QCADLabel]":
                label_next = True
            elif label_next and line.startswith("psz="):
                current["label"] = line.split("=", 1)[1]
                label_next = False
    return layout


def _function_to_type(record: dict) -> QCACellType:
    function = record.get("function", "QCAD_CELL_NORMAL")
    if function == "QCAD_CELL_INPUT":
        return QCACellType.INPUT
    if function == "QCAD_CELL_OUTPUT":
        return QCACellType.OUTPUT
    if function == "QCAD_CELL_FIXED":
        return (
            QCACellType.FIXED_1
            if record.get("polarization", -1.0) > 0
            else QCACellType.FIXED_0
        )
    if record.get("mode") == "QCAD_CELL_MODE_CROSSOVER" and record.get("layer", 0) == 0:
        return QCACellType.ROTATED
    return QCACellType.NORMAL


def read_qca(path) -> QCACellLayout:
    """Read a ``.qca`` file into a cell layout."""
    return qca_to_cell_layout(Path(path).read_text(encoding="utf-8"))
