"""Edge cases of the optimization passes.

Empty layouts, crossing-heavy layouts and defaults that must not be
shared between parameter objects — the corners the benchmark circuits
rarely hit.  The bytes PLO and wiring reduction produce on small
networks are pinned in ``test_plo_golden.py``.
"""

import pytest

from repro.layout import GateLayout, TWODDWAVE, Topology
from repro.networks.generators import GeneratorSpec, generate_network
from repro.optimization import (
    PostLayoutParams,
    post_layout_optimization,
    to_hexagonal,
    wiring_reduction,
)
from repro.physical_design import OrthoParams, orthogonal_layout
from repro.qa import run_oracle_stack


def _crossing_heavy(rng):
    """A generated network whose compact ortho layout has crossings."""
    for _ in range(20):
        spec = GeneratorSpec(
            name="xheavy",
            num_pis=4,
            num_pos=3,
            num_gates=14,
            seed=rng.randrange(1 << 31),
            locality=0.4,
        )
        net = generate_network(spec)
        layout = orthogonal_layout(net).layout
        if layout.num_crossings() > 0:
            return net, layout
    pytest.fail("no crossing-heavy layout found in 20 draws")


class TestSharedDefaults:
    def test_routing_default_not_shared(self):
        # Regression: ``routing`` used to be a single class-level
        # ``RoutingOptions()`` instance shared by every params object.
        first = PostLayoutParams()
        second = PostLayoutParams()
        assert first.routing is not second.routing
        assert first.routing == second.routing


class TestEmptyLayouts:
    def test_plo(self):
        result = post_layout_optimization(GateLayout(4, 4, TWODDWAVE))
        assert result.moves_applied == 0
        assert result.area_after == 0

    def test_wiring_reduction(self):
        result = wiring_reduction(GateLayout(4, 4, TWODDWAVE))
        assert result.rows_deleted == 0
        assert result.columns_deleted == 0
        assert result.layout.num_gates() == 0


class TestHexagonalizationEdgeCases:
    def test_crossing_heavy_layout_oracle_clean(self, rng):
        net, layout = _crossing_heavy(rng)
        hexed = to_hexagonal(layout).layout
        assert hexed.topology is Topology.HEXAGONAL_EVEN_ROW
        assert hexed.num_crossings() == layout.num_crossings()
        failure = run_oracle_stack(net, hexed, library="Bestagon")
        assert failure is None, str(failure)

    def test_empty_layout(self):
        hexed = to_hexagonal(GateLayout(4, 4, TWODDWAVE))
        assert hexed.layout.num_gates() == 0
        assert hexed.layout.topology is Topology.HEXAGONAL_EVEN_ROW


class TestOracleStackAfterReduction:
    def test_wire_reduced_layout_oracle_clean(self, rng):
        spec = GeneratorSpec(
            name="wireoracle",
            num_pis=3,
            num_pos=2,
            num_gates=10,
            seed=rng.randrange(1 << 31),
            locality=0.75,
        )
        net = generate_network(spec)
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        optimised = post_layout_optimization(layout).layout
        reduced = wiring_reduction(optimised).layout
        failure = run_oracle_stack(net, reduced)
        assert failure is None, str(failure)
