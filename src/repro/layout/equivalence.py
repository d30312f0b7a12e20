"""Layout-versus-network equivalence checking.

MNT Bench publishes only layouts that implement their specification
network; this module reproduces that gate: the layout is converted back
into a :class:`LogicNetwork` (dropping wires and fanouts via buffers)
and compared against the specification exhaustively or on deterministic
random stimulus, reusing :mod:`repro.networks.simulation`.
"""

from __future__ import annotations

from ..networks.logic_network import LogicNetwork
from ..networks.simulation import EquivalenceResult, check_equivalence
from .gate_layout import GateLayout
from .verification import DrcReport, check_layout


def layout_equivalent(
    layout: GateLayout,
    specification: LogicNetwork,
    num_vectors: int = 256,
    seed: int = 0,
) -> EquivalenceResult:
    """Check that ``layout`` implements ``specification``.

    PIs/POs are matched positionally (placement algorithms keep the
    network's interface order).  Small interfaces are proven
    exhaustively; larger ones sampled deterministically — both on the
    word-level engine, with wire chains collapsed during extraction so
    simulation cost scales with the logic content, not the wiring.
    """
    implemented = layout.extract_network()
    return check_equivalence(specification, implemented, num_vectors, seed)


def verify_layout(
    layout: GateLayout,
    specification: LogicNetwork,
    max_fanout: int = 2,
    num_vectors: int = 256,
) -> tuple[DrcReport, EquivalenceResult]:
    """Full sign-off: design rules plus functional equivalence.

    The DRC dataflow rule and the extraction share one topological
    order, memoized on the layout until it next changes.
    """
    drc = check_layout(layout, max_fanout=max_fanout)
    if not drc.ok:
        # A structurally broken layout cannot be extracted reliably;
        # report inequivalence without attempting simulation.
        reason = f"DRC failed: {drc.violations[0]}" if drc.violations else "DRC failed"
        return drc, EquivalenceResult(False, None, reason=reason)
    return drc, layout_equivalent(layout, specification, num_vectors)
