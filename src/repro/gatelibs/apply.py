"""Gate library application: gate-level → cell-level compilation."""

from __future__ import annotations

from ..celllayout.cell_layout import QCACellLayout, SiDBLayout
from ..io.fgl import CanonicalFgl, columns_to_layout
from ..layout.gate_layout import GateLayout
from .bestagon import apply_bestagon
from .qca_one import apply_qca_one

#: Library names as they appear in the MNT Bench selection UI.
QCA_ONE = "QCA ONE"
BESTAGON = "Bestagon"

LIBRARIES = (QCA_ONE, BESTAGON)


def apply_gate_library(
    layout: GateLayout | CanonicalFgl, library: str
) -> QCACellLayout | SiDBLayout:
    """Compile ``layout`` with the named gate library.

    ``layout`` is a :class:`GateLayout` or its gate columns, as
    :func:`~repro.io.fgl.fgl_to_columns` reads them: QCA ONE compiles
    the columns directly, Bestagon builds the layout from them.
    ``QCA ONE`` expects Cartesian layouts, ``Bestagon`` hexagonal ones —
    the same pairing the MNT Bench website enforces in its filter logic.
    """
    normalized = library.strip().lower().replace(" ", "").replace("_", "")
    if normalized in ("qcaone", "one", "qca"):
        return apply_qca_one(layout)
    if normalized == "bestagon":
        if isinstance(layout, CanonicalFgl):
            layout = columns_to_layout(layout)
        return apply_bestagon(layout)
    raise ValueError(f"unknown gate library {library!r}; known: {', '.join(LIBRARIES)}")
