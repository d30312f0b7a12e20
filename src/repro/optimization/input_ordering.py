"""Input ordering with Signal Distribution Networks (Walter et al. [8]).

The ISVLSI'23 paper observes that scalable placement algorithms such as
ortho are highly sensitive to the order in which primary inputs are fed
into the layout: a good order lets fanout trees and first-level gates
consume their signals locally, while a bad one forces long distribution
wiring across the layout (the *signal distribution network*, SDN).

This pass reproduces that optimisation as a deterministic search over PI
permutations driving the ortho placement
(:mod:`repro.physical_design.ortho`):

* the **identity order** is always evaluated first — it is the baseline
  the improvement is measured against, and its placement is exactly
  what plain :func:`~repro.physical_design.ortho.orthogonal_layout`
  returns,
* then a **structure-derived order** (barycentric sort of PIs by the
  average topological position of their readers — the published
  heuristic's core idea) and the reversed identity,
* followed by deterministic neighbour exchanges (adjacent
  transpositions) hill-climbing on layout area,
* within a configurable evaluation budget, since every evaluation is a
  full placement run.  The network is prepared for layout (AOIG
  decomposition, fanout substitution) once per search; every
  evaluation places that one prepared network.

The best layout over all evaluated orders is returned together with the
winning permutation, which MNT Bench records in the benchmark file name
(``InOrd (SDN)`` in Table I's Algorithm column), and with the identity
order's placement, so a caller that also wants the plain ortho layout
need not place it again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..layout.gate_layout import GateLayout
from ..networks.logic_network import LogicNetwork
from ..networks.transforms import decompose_to_aoig, prepare_for_layout
from ..physical_design.ortho import OrthoError, OrthoParams, OrthoResult, place_prepared


@dataclass
class InputOrderingParams:
    """Parameters of the input-ordering search."""

    #: Maximum number of full placement evaluations.
    max_evaluations: int = 12
    #: Wall-clock budget in seconds.
    timeout: float = 30.0
    ortho: OrthoParams = field(default_factory=OrthoParams)
    #: Scoring objective.  ``"area"`` minimises the Cartesian bounding
    #: box; ``"hex_area"`` minimises the area *after* the 45°
    #: hexagonalization — the right goal for Bestagon-bound flows, where
    #: the hexagonal height is width + height − 1 and a skewed aspect
    #: ratio ruins an otherwise small Cartesian layout.
    objective: str = "area"


@dataclass
class InputOrderingResult:
    """Best layout found and the PI permutation that produced it."""

    layout: GateLayout
    pi_order: list[int]
    runtime_seconds: float
    evaluations: int
    area_identity: int
    area_best: int
    #: The identity order's placement, i.e. the plain ortho layout; its
    #: ``runtime_seconds`` includes the search's one preparation.  When
    #: the identity order wins, ``layout`` is this very object.
    identity: OrthoResult

    @property
    def improvement(self) -> float:
        """Relative area improvement over the identity order."""
        if self.area_identity == 0:
            return 0.0
        return 1.0 - self.area_best / self.area_identity


def structural_order(network: LogicNetwork) -> list[int]:
    """Barycentric PI order: sort PIs by their readers' topological rank.

    PIs consumed early in the topological order are fed in first, so the
    distribution network degenerates into short local hops.  Readers
    outside the order (dangling nodes no layout keeps) are not scored;
    a PI without a ranked reader goes last.
    """
    rank: dict[int, int] = {}
    for position, uid in enumerate(network.topological_order()):
        rank[uid] = position
    scores = []
    for index, pi in enumerate(network.pis()):
        ranked = [rank[r] for r in network.fanouts(pi) if r in rank]
        score = sum(ranked) / len(ranked) if ranked else float("inf")
        scores.append((score, index))
    scores.sort()
    return [index for _, index in scores]


def input_ordering(
    network: LogicNetwork, params: InputOrderingParams | None = None
) -> InputOrderingResult:
    """Search PI orders for the area-smallest ortho layout."""
    params = params or InputOrderingParams()
    started = time.monotonic()
    deadline = started + params.timeout
    num_pis = network.num_pis()
    prepared = prepare_for_layout(decompose_to_aoig(network, params.ortho.keep_two_input))

    evaluations = 0

    def score(layout: GateLayout) -> int:
        width, height = layout.bounding_box()
        if params.objective == "hex_area":
            from .hexagonalization import to_hexagonal

            return to_hexagonal(layout).hexagonal_area
        return width * height

    def evaluate(order: list[int], since: float) -> OrthoResult | None:
        nonlocal evaluations
        evaluations += 1
        ortho_params = OrthoParams(
            routing=params.ortho.routing,
            pi_order=order,
            compact=params.ortho.compact,
        )
        try:
            return place_prepared(prepared, ortho_params, since)
        except OrthoError:
            return None

    identity = list(range(num_pis))
    # Timed from the search's start, so the identity placement's runtime
    # carries the preparation just as a plain ortho run's would.
    identity_result = evaluate(identity, started)
    if identity_result is None:
        raise OrthoError("ortho failed even for the identity PI order")
    best_found = identity_result.layout
    area_identity = score(best_found)
    best_area, best_order = area_identity, identity

    candidates: list[list[int]] = []
    if num_pis > 1:
        candidates.append(structural_order(network))
        candidates.append(list(reversed(identity)))

    index = 0
    while (
        num_pis > 1
        and evaluations < params.max_evaluations
        and time.monotonic() < deadline
    ):
        if index < len(candidates):
            order = candidates[index]
            index += 1
        else:
            # Hill climbing: adjacent transpositions of the current best.
            swap = (evaluations - index) % max(1, num_pis - 1)
            order = list(best_order)
            order[swap], order[swap + 1] = order[swap + 1], order[swap]
        if order == best_order:
            continue
        outcome = evaluate(order, time.monotonic())
        if outcome is None:
            continue
        area = score(outcome.layout)
        if area < best_area:
            best_area, best_found, best_order = area, outcome.layout, order

    return InputOrderingResult(
        best_found,
        best_order,
        time.monotonic() - started,
        evaluations,
        area_identity,
        best_area,
        identity_result,
    )
