"""File formats: .fgl (gate level), .qca (QCADesigner), .sqd (SiQAD)."""

from .fgl import (
    FGL_VERSION,
    FglError,
    fgl_to_layout,
    fgl_to_layout_xml,
    layout_to_fgl,
    layout_to_fgl_reference,
    read_fgl,
    write_fgl,
)
from .qca import cell_layout_to_qca, qca_to_cell_layout, read_qca, write_qca
from .sqd import SqdError, read_sqd, sidb_layout_to_sqd, sqd_to_sidb_layout, write_sqd

__all__ = [
    "FGL_VERSION",
    "FglError",
    "SqdError",
    "cell_layout_to_qca",
    "fgl_to_layout",
    "fgl_to_layout_xml",
    "layout_to_fgl",
    "layout_to_fgl_reference",
    "qca_to_cell_layout",
    "read_qca",
    "read_sqd",
    "read_fgl",
    "sidb_layout_to_sqd",
    "sqd_to_sidb_layout",
    "write_fgl",
    "write_qca",
    "write_sqd",
]
