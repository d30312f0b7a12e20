"""Cell-level layouts: QCA cells and SiDB dots.

The gate libraries compile a gate-level :class:`~repro.layout.GateLayout`
down to technology cells: *Quantum-dot Cellular Automata* cells for the
QCA ONE library [15] (5×5 cells per Cartesian tile) and *Silicon
Dangling Bond* dots for the Bestagon library [16] (hexagonal tiles on an
H-Si(100)-2×1 surface).  MNT Bench distributes gate-level files; the
cell level exists so that layouts can be exported towards physical
simulation tools (QCADesigner / SiQAD), which is what the ``fiction``
framework this benchmark wraps does with the same libraries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class QCACellType(enum.Enum):
    """Function of a single QCA cell."""

    NORMAL = "normal"
    INPUT = "input"
    OUTPUT = "output"
    #: Fixed-polarisation cells turn the majority gate into AND/OR.
    FIXED_0 = "fixed0"
    FIXED_1 = "fixed1"
    #: 45°-rotated cells implement the coplanar wire crossing.
    ROTATED = "rotated"

    # Identity hash of the singleton members, at C level (see GateType).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class QCACell:
    """One QCA cell with optional pin label."""

    cell_type: QCACellType
    label: str | None = None


@dataclass
class QCACellLayout:
    """A QCA cell layout on an integer cell grid.

    Cells live on QCADesigner-style layers: layer 0 is the ground plane,
    layer 1 holds via cells, and layer 2 the crossing plane (multilayer
    wire crossings, as fiction's QCA ONE application emits them).
    """

    name: str = ""
    #: Cells of one gate tile form a ``tile_size`` × ``tile_size`` block.
    tile_size: int = 5
    cells: dict[tuple[int, int, int], QCACell] = field(default_factory=dict)
    #: Clock zone per cell position (inherited from the gate-level tile);
    #: required by the bistable simulation engine.
    zones: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def set_cell(
        self, x: int, y: int, cell: QCACell, layer: int = 0, zone: int | None = None
    ) -> None:
        key = (x, y, layer)
        if key in self.cells and self.cells[key] != cell:
            raise ValueError(f"cell ({x},{y},{layer}) already assigned differently")
        self.cells[key] = cell
        if zone is not None:
            self.zones[key] = zone

    def get_cell(self, x: int, y: int, layer: int = 0) -> QCACell | None:
        return self.cells.get((x, y, layer))

    def bounding_box(self) -> tuple[int, int]:
        if not self.cells:
            return 0, 0
        return (
            max(x for x, _, _ in self.cells) + 1,
            max(y for _, y, _ in self.cells) + 1,
        )

    def num_cells(self) -> int:
        return len(self.cells)

    def num_crossing_cells(self) -> int:
        """Cells on the via and crossing planes (layers 1 and 2)."""
        return sum(1 for (_, _, layer) in self.cells if layer > 0)

    def inputs(self) -> list[tuple[int, int, int]]:
        return [p for p, c in self.cells.items() if c.cell_type is QCACellType.INPUT]

    def outputs(self) -> list[tuple[int, int, int]]:
        return [p for p, c in self.cells.items() if c.cell_type is QCACellType.OUTPUT]

    def render(self, layer: int = 0) -> str:
        """ASCII rendering of one cell layer (debugging aid)."""
        glyph = {
            QCACellType.NORMAL: "x",
            QCACellType.INPUT: "i",
            QCACellType.OUTPUT: "o",
            QCACellType.FIXED_0: "0",
            QCACellType.FIXED_1: "1",
            QCACellType.ROTATED: "r",
        }
        width, height = self.bounding_box()
        rows = []
        for y in range(height):
            rows.append(
                "".join(
                    glyph[self.cells[(x, y, layer)].cell_type]
                    if (x, y, layer) in self.cells
                    else "."
                    for x in range(width)
                )
            )
        return "\n".join(rows)


@dataclass
class SiDBLayout:
    """A silicon-dangling-bond layout on H-Si(100)-2×1 lattice coordinates.

    Dots are stored as ``(n, m, l)`` like SiQAD does: dimer column ``n``,
    dimer row ``m`` and atom selector ``l`` ∈ {0, 1}.
    """

    name: str = ""
    dots: set[tuple[int, int, int]] = field(default_factory=set)
    #: Pin positions, for bookkeeping in exports.
    input_labels: dict[tuple[int, int, int], str] = field(default_factory=dict)
    output_labels: dict[tuple[int, int, int], str] = field(default_factory=dict)

    def add_dot(self, n: int, m: int, l: int = 0) -> None:
        if l not in (0, 1):
            raise ValueError("atom selector must be 0 or 1")
        self.dots.add((n, m, l))

    def num_dots(self) -> int:
        return len(self.dots)

    def bounding_box(self) -> tuple[int, int]:
        if not self.dots:
            return 0, 0
        return (
            max(n for n, _, _ in self.dots) + 1,
            max(m for _, m, _ in self.dots) + 1,
        )
