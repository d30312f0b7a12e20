"""Randomised flow configurations for the fuzz driver.

A :class:`FlowConfig` is a picklable, JSON-serialisable description of
one complete physical-design pipeline — algorithm, clocking scheme,
optimisation passes and target gate library — the same axes the MNT
Bench website spans.  :func:`sample_flow` draws a *valid* configuration
from that space (ortho only targets 2DDWave, Bestagon requires a
hexagonal layout, wiring reduction and PLO are 2DDWave passes, …), so
every sampled config is expected to succeed and any oracle failure is a
genuine bug, not a misuse of the API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..layout.clocking import ROW, get_scheme
from ..layout.coordinates import Topology
from ..layout.gate_layout import GateLayout
from ..networks.generators import GeneratorSpec, generate_network
from ..networks.logic_network import LogicNetwork
from ..optimization.input_ordering import InputOrderingParams, input_ordering
from ..optimization.post_layout import PostLayoutParams, post_layout_optimization
from ..optimization.hexagonalization import to_hexagonal
from ..optimization.wiring_reduction import wiring_reduction
from ..physical_design.exact import ExactParams, exact_layout
from ..physical_design.nanoplacer import (
    NanoPlaceRParams,
    NanoPlaceRScaleError,
    nanoplacer_layout,
)
from ..physical_design.ortho import OrthoError, OrthoParams, orthogonal_layout

#: Optimisation pass tags, in the order the pipeline applies them.
INORD = "InOrd"
PLO = "PLO"
WIRE_REDUCTION = "WiRe"
HEXAGONALIZATION = "45°"

#: Cartesian clocking schemes the exact search is fuzzed on.
EXACT_SCHEMES = ("2DDWave", "USE", "RES", "ESR", "ROW")

#: Differential modes: check the flow's layout through a second layer.
DIFF_ANALYTICS = "analytics"  # columnar vs. per-artifact metrics/DRC/signature
DIFF_SERVE = "serve"  # HTTP endpoints vs. in-process serving API


class FlowSkipped(Exception):
    """A flow legitimately produced no layout (scale/timeout limits).

    Not an oracle failure: NanoPlaceR rejects networks beyond its scale,
    the exact search may exhaust its budget, compact ortho falls back —
    the driver counts these separately instead of reporting a bug.
    """


@dataclass(frozen=True)
class FlowConfig:
    """One sampled physical-design pipeline."""

    algorithm: str  # "ortho" | "exact" | "nanoplacer"
    scheme: str = "2DDWave"
    #: ``True`` for the exact search on the hexagonal ROW grid
    #: (Bestagon-style 45° flow with native two-input gates).
    hexagonal_exact: bool = False
    #: Ortho placement mode (compact packs densely, sparse is the
    #: published conflict-free discipline).
    compact: bool = True
    optimizations: tuple[str, ...] = ()
    library: str = "QCA ONE"
    differential: str | None = None
    #: Seed for stochastic algorithms (NanoPlaceR rollouts).
    algorithm_seed: int = 0
    exact_timeout: float = 4.0

    def describe(self) -> str:
        opts = "+".join(self.optimizations) if self.optimizations else "-"
        diff = f" diff={self.differential}" if self.differential else ""
        return f"{self.algorithm}/{self.scheme} opts={opts} lib={self.library}{diff}"

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "scheme": self.scheme,
            "hexagonal_exact": self.hexagonal_exact,
            "compact": self.compact,
            "optimizations": list(self.optimizations),
            "library": self.library,
            "differential": self.differential,
            "algorithm_seed": self.algorithm_seed,
            "exact_timeout": self.exact_timeout,
        }

    @staticmethod
    def from_json(record: dict) -> "FlowConfig":
        """Load a record; keys of retired fields (``engine``,
        ``plo_engine``, ``exact_optimized``) are ignored."""
        return FlowConfig(
            algorithm=record["algorithm"],
            scheme=record.get("scheme", "2DDWave"),
            hexagonal_exact=record.get("hexagonal_exact", False),
            compact=record.get("compact", True),
            optimizations=tuple(record.get("optimizations", ())),
            library=record.get("library", "QCA ONE"),
            differential=record.get("differential"),
            algorithm_seed=record.get("algorithm_seed", 0),
            exact_timeout=record.get("exact_timeout", 4.0),
        )

    # -- execution ----------------------------------------------------------

    def run(self, network: LogicNetwork) -> GateLayout:
        """Run the configured pipeline; raises :class:`FlowSkipped` when
        the flow legitimately yields no layout."""
        layout = self._place(network)
        for pass_name in self.optimizations:
            layout = self._optimize(layout, pass_name)
        return layout

    def _place(self, network: LogicNetwork) -> GateLayout:
        if self.algorithm == "ortho":
            ortho_params = OrthoParams(compact=self.compact)
            if INORD in self.optimizations:
                result = input_ordering(
                    network,
                    InputOrderingParams(
                        max_evaluations=4, timeout=10.0, ortho=ortho_params
                    ),
                )
                return result.layout
            try:
                return orthogonal_layout(network, ortho_params).layout
            except OrthoError as exc:  # pragma: no cover - sparse mode is total
                raise FlowSkipped(f"ortho failed: {exc}") from exc
        if self.algorithm == "exact":
            params = ExactParams(
                scheme=ROW if self.hexagonal_exact else get_scheme(self.scheme),
                topology=(
                    Topology.HEXAGONAL_EVEN_ROW
                    if self.hexagonal_exact
                    else Topology.CARTESIAN
                ),
                keep_two_input=self.hexagonal_exact,
                timeout=self.exact_timeout,
            )
            result = exact_layout(network, params)
            if result.layout is None:
                raise FlowSkipped(
                    f"exact search yielded no layout "
                    f"(timed_out={result.timed_out}, ratios={result.explored_ratios})"
                )
            return result.layout
        if self.algorithm == "nanoplacer":
            try:
                result = nanoplacer_layout(
                    network,
                    NanoPlaceRParams(
                        seed=self.algorithm_seed, max_rollouts=8, timeout=6.0
                    ),
                )
            except NanoPlaceRScaleError as exc:
                raise FlowSkipped(str(exc)) from exc
            if result.layout is None:
                raise FlowSkipped("no NanoPlaceR rollout produced a layout")
            return result.layout
        raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def _optimize(self, layout: GateLayout, pass_name: str) -> GateLayout:
        if pass_name == INORD:
            return layout  # applied during placement
        if pass_name == PLO:
            return post_layout_optimization(
                layout.clone(),
                PostLayoutParams(max_passes=4, timeout=10.0),
            ).layout
        if pass_name == WIRE_REDUCTION:
            return wiring_reduction(layout).layout
        if pass_name == HEXAGONALIZATION:
            return to_hexagonal(layout).layout
        raise ValueError(f"unknown optimization pass {pass_name!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_flow(rng: random.Random) -> FlowConfig:
    """Draw a valid flow configuration, weighted towards cheap flows."""
    algorithm = rng.choices(
        ("ortho", "exact", "nanoplacer"), weights=(0.55, 0.25, 0.20)
    )[0]
    if algorithm == "exact":
        return _sample_exact(rng)
    if algorithm == "nanoplacer":
        return _sample_2ddwave(rng, "nanoplacer")
    return _sample_2ddwave(rng, "ortho")


def _sample_exact(rng: random.Random) -> FlowConfig:
    hexagonal = rng.random() < 0.2
    scheme = "ROW" if hexagonal else rng.choice(EXACT_SCHEMES)
    differential = _sample_differential(rng)
    optimizations: tuple[str, ...] = ()
    library = "Bestagon" if hexagonal else "QCA ONE"
    if not hexagonal and scheme == "2DDWave" and rng.random() < 0.25:
        optimizations = (HEXAGONALIZATION,)
        library = "Bestagon"
    return FlowConfig(
        algorithm="exact",
        scheme=scheme,
        hexagonal_exact=hexagonal,
        optimizations=optimizations,
        library=library,
        differential=differential,
    )


def _sample_2ddwave(rng: random.Random, algorithm: str) -> FlowConfig:
    optimizations: list[str] = []
    if algorithm == "ortho":
        if rng.random() < 0.25:
            optimizations.append(INORD)
    if rng.random() < 0.35:
        optimizations.append(PLO)
    if rng.random() < 0.35:
        optimizations.append(WIRE_REDUCTION)
    hexed = rng.random() < 0.3
    if hexed:
        optimizations.append(HEXAGONALIZATION)
    differential = _sample_differential(rng)
    return FlowConfig(
        algorithm=algorithm,
        scheme="2DDWave",
        compact=rng.random() < 0.6,
        optimizations=tuple(optimizations),
        library="Bestagon" if hexed else "QCA ONE",
        differential=differential,
        algorithm_seed=rng.randrange(1 << 16),
    )


def _sample_differential(rng: random.Random) -> str | None:
    """One roll: analytics 25 %, serve 5 %, none 70 %."""
    roll = rng.random()
    if roll < 0.25:
        return DIFF_ANALYTICS
    if roll < 0.30:
        return DIFF_SERVE
    return None


def sample_spec(rng: random.Random, flow: FlowConfig, run_index: int) -> GeneratorSpec:
    """Draw a synthetic network spec sized for ``flow``'s cost profile."""
    if flow.algorithm == "exact":
        num_pis = rng.randint(2, 3)
        num_pos = rng.randint(1, 2)
        num_gates = rng.randint(num_pos, 4)
    elif flow.algorithm == "nanoplacer":
        num_pis = rng.randint(2, 3)
        num_pos = rng.randint(1, 2)
        num_gates = rng.randint(2, 8)
    else:
        num_pis = rng.randint(2, 4)
        num_pos = rng.randint(1, 3)
        num_gates = rng.randint(3, 16)
    return GeneratorSpec(
        name=f"fuzz{run_index}",
        num_pis=num_pis,
        num_pos=num_pos,
        num_gates=num_gates,
        seed=rng.randrange(1 << 31),
        locality=rng.choice((0.4, 0.6, 0.75, 0.9)),
    )


def build_network(spec: GeneratorSpec) -> LogicNetwork:
    """Materialise the network of a sampled spec (thin alias)."""
    return generate_network(spec)
