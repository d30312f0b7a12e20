"""File formats: .fgl (gate level), .qca (QCADesigner), .sqd (SiQAD).

The names below resolve on first use (see :mod:`repro._lazy`), so
reading an ``.fgl`` file does not import the cell-level layouts the
``.qca``/``.sqd`` writers need.
"""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".fgl": (
        "FGL_VERSION",
        "FglError",
        "fgl_to_layout",
        "fgl_to_layout_xml",
        "layout_to_fgl",
        "layout_to_fgl_reference",
        "read_fgl",
        "write_fgl",
    ),
    ".qca": ("cell_layout_to_qca", "qca_to_cell_layout", "read_qca", "write_qca"),
    ".sqd": ("SqdError", "read_sqd", "sidb_layout_to_sqd", "sqd_to_sidb_layout", "write_sqd"),
})
