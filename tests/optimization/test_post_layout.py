"""Tests for the post-layout optimisation (PLO) pass."""

import pytest

from repro.layout import compute_metrics
from repro.networks.library import (
    full_adder,
    mux21,
    one_bit_mux_tree,
    parity_checker,
    ripple_carry_adder,
)
from repro.optimization import PostLayoutParams, post_layout_optimization
from repro.physical_design import OrthoParams, orthogonal_layout
from tests.conftest import assert_layout_good

FUNCTIONS = [
    mux21,
    full_adder,
    lambda: parity_checker(4),
    lambda: ripple_carry_adder(2),
    lambda: one_bit_mux_tree(2, "mux41"),
]


class TestCorrectness:
    @pytest.mark.parametrize("factory", FUNCTIONS)
    def test_preserves_function_and_rules(self, factory):
        net = factory()
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        result = post_layout_optimization(layout, PostLayoutParams(timeout=20))
        assert_layout_good(result.layout, net)

    def test_optimises_in_place(self):
        net = mux21()
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        result = post_layout_optimization(layout)
        assert result.layout is layout


class TestReduction:
    def test_sparse_layouts_shrink(self):
        net = full_adder()
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        before = compute_metrics(layout).area
        result = post_layout_optimization(layout, PostLayoutParams(timeout=20))
        after = compute_metrics(result.layout).area
        assert after < before
        assert result.area_reduction > 0
        assert result.area_before == before
        assert result.area_after == after

    def test_already_tight_layout_stable(self):
        # A compact exact-style layout has little slack; PLO must not
        # break it even when it cannot improve.
        net = mux21()
        layout = orthogonal_layout(net).layout  # compact mode
        before = compute_metrics(layout).area
        result = post_layout_optimization(layout, PostLayoutParams(timeout=10))
        assert compute_metrics(result.layout).area <= before
        assert_layout_good(result.layout, net)

    def test_moves_counted(self):
        net = full_adder()
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        result = post_layout_optimization(layout, PostLayoutParams(timeout=20))
        assert result.moves_applied > 0
        assert result.passes >= 1


def _cost_from_scratch(layout):
    """``(bounding-box area, wire tiles, Σ x+y over non-wire elements)``."""
    width, height = layout.bounding_box()
    wires = position_sum = 0
    for tile, gate in layout.tiles():
        if gate.is_wire:
            wires += 1
        else:
            position_sum += tile.x + tile.y
    return (width * height, wires, position_sum)


class TestCostTuple:
    @pytest.mark.parametrize("factory", FUNCTIONS)
    def test_tracked_cost_equals_a_full_recount(self, factory):
        # PLO keeps its cost tuple by per-move deltas; a recount from
        # scratch before and after the pass must agree with it.
        layout = orthogonal_layout(factory(), OrthoParams(compact=False)).layout
        before = _cost_from_scratch(layout)
        result = post_layout_optimization(layout, PostLayoutParams(timeout=None))
        assert result.cost_before == before
        assert result.cost_after == _cost_from_scratch(result.layout)
        assert result.cost_after <= result.cost_before


class TestBudget:
    def test_zero_passes(self):
        net = mux21()
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        before = compute_metrics(layout).area
        result = post_layout_optimization(layout, PostLayoutParams(max_passes=0))
        # max_passes=0 still crops the bounding box but moves nothing.
        assert result.moves_applied == 0
        assert result.area_after <= before

    def test_timeout_respected(self):
        net = ripple_carry_adder(3)
        layout = orthogonal_layout(net, OrthoParams(compact=False)).layout
        result = post_layout_optimization(
            layout, PostLayoutParams(timeout=0.3, max_passes=50)
        )
        assert result.runtime_seconds < 8
        assert_layout_good(result.layout, net)


def test_non_2ddwave_rejected():
    from repro.layout import GateLayout, ROW, Tile

    lay = GateLayout(4, 4, ROW)
    a = lay.create_pi(Tile(0, 0))
    lay.create_po(Tile(0, 1), a)
    with pytest.raises(ValueError, match="2DDWave"):
        post_layout_optimization(lay)
