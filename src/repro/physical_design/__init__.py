"""Physical design algorithms: exact, ortho, NanoPlaceR, shared routing.

The names below resolve on first use (see :mod:`repro._lazy`): one
engine does not import the others, nor ``multiprocessing`` for the
parallel exact search.
"""

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".routing": ("RoutingOptions", "find_path", "route", "unroute"),
    ".ortho": ("OrthoError", "OrthoParams", "OrthoResult", "orthogonal_layout"),
    ".exact": (
        "ExactParams",
        "ExactResult",
        "ExactSearchStats",
        "area_lower_bound",
        "exact_layout",
    ),
    ".parallel": ("parallel_exact_layout",),
    ".nanoplacer": (
        "NanoPlaceRParams",
        "NanoPlaceRResult",
        "NanoPlaceRScaleError",
        "nanoplacer_layout",
    ),
})
