"""Best-layout portfolio: the optimal tool combination per function.

MNT Bench's headline contribution (#3) is providing, for every
benchmark function, the area-best layout found by running the *optimal
combination* of physical design algorithms, optimisations, and clocking
schemes.  This module reproduces that portfolio:

* **QCA ONE** (Cartesian): exact across {2DDWave, USE, RES, ESR} on
  small functions, NanoPlaceR on small/medium ones, and
  ortho → input-ordering → PLO as the scalable backbone;
* **Bestagon** (hexagonal, ROW): exact on the hexagonal grid for small
  functions, plus every Cartesian 2DDWave flow pushed through the 45°
  hexagonalization.

Every candidate is verified (design rules + functional equivalence)
before it may win; the smallest verified area is returned together with
the provenance MNT Bench records in its file names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..layout.clocking import CARTESIAN_SCHEMES, ROW, TWODDWAVE
from ..layout.coordinates import Topology
from ..layout.equivalence import verify_layout
from ..layout.gate_layout import GateLayout
from ..layout.metrics import LayoutMetrics, compute_metrics
from ..networks.logic_network import LogicNetwork
from ..networks.transforms import decompose_to_aoig, prepare_for_layout
from ..optimization.hexagonalization import to_hexagonal
from ..optimization.input_ordering import InputOrderingParams, input_ordering
from ..optimization.post_layout import PostLayoutParams, post_layout_optimization
from ..optimization.wiring_reduction import wiring_reduction
from ..physical_design.exact import ExactParams, exact_layout
from ..physical_design.nanoplacer import (
    NanoPlaceRParams,
    NanoPlaceRScaleError,
    nanoplacer_layout,
)
from ..physical_design.ortho import OrthoError, OrthoParams

#: Gate library identifiers, matching :mod:`repro.gatelibs`.
QCA_ONE = "QCA ONE"
BESTAGON = "Bestagon"


@dataclass
class BestParams:
    """Effort knobs of the portfolio run."""

    #: Exact search is attempted when the prepared network has at most
    #: this many elements (the paper's exact entries stop around there).
    exact_max_elements: int = 32
    exact_timeout: float = 10.0
    exact_ratio_timeout: float | None = 1.0
    nanoplacer_timeout: float = 6.0
    nanoplacer_max_gates: int = 200
    inord_evaluations: int = 8
    inord_timeout: float = 30.0
    plo_timeout: float = 30.0
    plo_passes: int = 10
    #: Skip the verification of candidates larger than this many tiles
    #: (exhaustive/random simulation is still cheap, DRC dominates).
    verify_max_tiles: int | None = None
    #: Random-simulation vectors for large interfaces.
    verify_vectors: int = 64


@dataclass
class FlowCandidate:
    """One verified portfolio candidate."""

    layout: GateLayout
    metrics: LayoutMetrics
    algorithm: str
    scheme: str
    optimizations: tuple[str, ...]
    runtime_seconds: float

    @property
    def algorithm_label(self) -> str:
        """Paper-style Algorithm column value."""
        parts = [self.algorithm, *self.optimizations]
        return ", ".join(parts)


@dataclass
class BestResult:
    """Outcome of the portfolio for one (function, library) pair."""

    winner: FlowCandidate | None
    candidates: list[FlowCandidate] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.winner is not None


def best_layout(
    network: LogicNetwork,
    library: str = QCA_ONE,
    params: BestParams | None = None,
) -> BestResult:
    """Run the portfolio for ``network`` targeting ``library``."""
    params = params or BestParams()
    started = time.monotonic()
    hexagonal = library.strip().lower().startswith("bestagon")

    raw_candidates: list[tuple[GateLayout, str, str, tuple[str, ...], float]] = []
    rejected: list[str] = []

    keep_two_input = hexagonal
    prepared = prepare_for_layout(decompose_to_aoig(network, keep_two_input))
    small = len(prepared.topological_order()) + prepared.num_pos() <= params.exact_max_elements

    # -- exact -------------------------------------------------------------
    if small:
        if hexagonal:
            schemes = [(ROW, Topology.HEXAGONAL_EVEN_ROW)]
        else:
            schemes = [(s, Topology.CARTESIAN) for s in CARTESIAN_SCHEMES]
        for scheme, topology in schemes:
            result = exact_layout(
                network,
                ExactParams(
                    scheme=scheme,
                    topology=topology,
                    timeout=params.exact_timeout,
                    ratio_timeout=params.exact_ratio_timeout,
                    keep_two_input=keep_two_input,
                ),
            )
            if result.layout is not None:
                raw_candidates.append(
                    (result.layout, "exact", scheme.name, (), result.runtime_seconds)
                )
            else:
                rejected.append(f"exact/{scheme.name}: no layout within budget")

    # -- NanoPlaceR ----------------------------------------------------------
    try:
        np_result = nanoplacer_layout(
            network,
            NanoPlaceRParams(
                timeout=params.nanoplacer_timeout,
                max_gates=params.nanoplacer_max_gates,
            ),
        )
        if np_result.layout is not None:
            layout = np_result.layout
            runtime = np_result.runtime_seconds
            plo = post_layout_optimization(
                layout, PostLayoutParams(max_passes=params.plo_passes, timeout=params.plo_timeout)
            )
            raw_candidates.append(
                (plo.layout, "NPR", TWODDWAVE.name, ("PLO",), runtime + plo.runtime_seconds)
            )
    except NanoPlaceRScaleError as exc:
        rejected.append(f"NPR: {exc}")

    # -- ortho plain and ortho + InOrd + PLO -------------------------------------
    try:
        inord = input_ordering(
            network,
            InputOrderingParams(
                max_evaluations=params.inord_evaluations,
                timeout=params.inord_timeout,
                ortho=OrthoParams(keep_two_input=keep_two_input),
                objective="hex_area" if hexagonal else "area",
            ),
        )
        # The plain ortho layout is InOrd's identity evaluation; PLO gets
        # a copy so it cannot rewrite the plain candidate when the
        # identity order wins.
        plain = inord.identity
        raw_candidates.append(
            (plain.layout, "ortho", TWODDWAVE.name, (), plain.runtime_seconds)
        )
        plo = post_layout_optimization(
            inord.layout.clone(),
            PostLayoutParams(max_passes=params.plo_passes, timeout=params.plo_timeout),
        )
        raw_candidates.append(
            (
                plo.layout,
                "ortho",
                TWODDWAVE.name,
                ("InOrd (SDN)", "PLO"),
                inord.runtime_seconds + plo.runtime_seconds,
            )
        )
        # Wiring reduction rides on the PLO result; kept as a separate
        # candidate so Table I labels stay comparable with the paper.
        reduced = wiring_reduction(plo.layout)
        if reduced.rows_deleted or reduced.columns_deleted:
            raw_candidates.append(
                (
                    reduced.layout,
                    "ortho",
                    TWODDWAVE.name,
                    ("InOrd (SDN)", "PLO", "WR"),
                    inord.runtime_seconds + plo.runtime_seconds + reduced.runtime_seconds,
                )
            )
    except OrthoError as exc:
        rejected.append(f"ortho: {exc}")

    # -- 45° hexagonalization of every Cartesian 2DDWave candidate -------------
    if hexagonal:
        cartesian = [c for c in raw_candidates if c[1] != "exact" or c[2] == TWODDWAVE.name]
        hex_candidates = []
        for layout, algorithm, scheme, opts, runtime in cartesian:
            if layout.topology is not Topology.CARTESIAN or scheme != TWODDWAVE.name:
                continue
            hexed = to_hexagonal(layout)
            hex_candidates.append(
                (
                    hexed.layout,
                    algorithm,
                    ROW.name,
                    opts + ("45°",),
                    runtime + hexed.runtime_seconds,
                )
            )
        raw_candidates = [
            c for c in raw_candidates if c[0].topology is Topology.HEXAGONAL_EVEN_ROW
        ] + hex_candidates

    # -- verify and pick --------------------------------------------------------
    candidates: list[FlowCandidate] = []
    for layout, algorithm, scheme, opts, runtime in raw_candidates:
        drc, equivalence = verify_layout(
            layout, network, num_vectors=params.verify_vectors
        )
        label = f"{algorithm}/{scheme}" + (f"+{'+'.join(opts)}" if opts else "")
        if not drc.ok:
            rejected.append(f"{label}: DRC — {drc.violations[0]}")
            continue
        if not equivalence.equivalent:
            detail = equivalence.reason or f"counterexample {equivalence.counterexample}"
            rejected.append(f"{label}: not equivalent ({detail})")
            continue
        candidates.append(
            FlowCandidate(layout, compute_metrics(layout), algorithm, scheme, opts, runtime)
        )

    candidates.sort(key=lambda c: (c.metrics.area, c.metrics.num_wires))
    winner = candidates[0] if candidates else None
    return BestResult(winner, candidates, rejected, time.monotonic() - started)
