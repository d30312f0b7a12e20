"""Tests for the input-ordering (InOrd/SDN) optimisation."""

import pytest

from repro.benchsuite import get_benchmark
from repro.io import layout_to_fgl
from repro.networks import network_to_verilog, parse_verilog
from repro.networks.library import full_adder, mux21, one_bit_mux_tree
from repro.optimization import InputOrderingParams, input_ordering, structural_order
from repro.physical_design import OrthoParams, orthogonal_layout
from tests.conftest import assert_layout_good


class TestStructuralOrder:
    def test_is_permutation(self):
        net = full_adder()
        order = structural_order(net)
        assert sorted(order) == list(range(net.num_pis()))

    def test_deterministic(self):
        assert structural_order(full_adder()) == structural_order(full_adder())

    @pytest.mark.parametrize("name, expected", [
        ("t", [1, 3, 4, 0, 2]), ("newtag", [1, 2, 0, 3, 4, 5, 6, 7]),
    ])
    def test_dangling_readers_do_not_move_the_order(self, name, expected):
        # The built networks carry dangling nodes that their Verilog
        # drops; both must give the order the database's flows place.
        built = get_benchmark("fontes18", name).build()
        parsed = parse_verilog(network_to_verilog(built))
        assert structural_order(built) == structural_order(parsed) == expected


class TestSearch:
    def test_never_worse_than_identity(self):
        net = one_bit_mux_tree(2, "mux41")
        result = input_ordering(net, InputOrderingParams(max_evaluations=8, timeout=20))
        assert result.area_best <= result.area_identity
        assert result.improvement >= 0

    def test_result_verifies(self):
        net = one_bit_mux_tree(2, "mux41")
        result = input_ordering(net, InputOrderingParams(max_evaluations=8, timeout=20))
        assert_layout_good(result.layout, net)

    def test_winning_order_is_permutation(self):
        net = full_adder()
        result = input_ordering(net, InputOrderingParams(max_evaluations=6, timeout=15))
        assert sorted(result.pi_order) == list(range(net.num_pis()))

    def test_evaluation_budget_respected(self):
        net = mux21()
        result = input_ordering(net, InputOrderingParams(max_evaluations=3, timeout=15))
        assert result.evaluations <= 3

    def test_single_pi_network(self):
        from repro.networks import LogicNetwork

        ntk = LogicNetwork("inv")
        a = ntk.create_pi("a")
        ntk.create_po(ntk.create_not(a), "f")
        result = input_ordering(ntk, InputOrderingParams(max_evaluations=4, timeout=10))
        assert result.pi_order == [0]
        assert_layout_good(result.layout, ntk)

    def test_finds_improvement_on_reversed_sensitivity(self):
        # The mux tree is highly order-sensitive; the search should beat
        # the identity order.
        net = one_bit_mux_tree(2, "mux41")
        result = input_ordering(net, InputOrderingParams(max_evaluations=10, timeout=30))
        assert result.area_best < result.area_identity


class TestIdentityPlacement:
    """The identity order's placement is the plain ortho layout."""

    @pytest.mark.parametrize("keep_two_input", [False, True])
    @pytest.mark.parametrize("objective", ["area", "hex_area"])
    @pytest.mark.parametrize("suite, name", [("trindade16", "full_adder"), ("iscas85", "c432")])
    def test_identity_equals_orthogonal_layout(self, suite, name, objective, keep_two_input):
        # full_adder places in compact mode, c432 in sparse HV mode.
        net = get_benchmark(suite, name).build()
        result = input_ordering(
            net,
            InputOrderingParams(
                max_evaluations=2,
                timeout=60,
                ortho=OrthoParams(keep_two_input=keep_two_input),
                objective=objective,
            ),
        )
        plain = orthogonal_layout(net, OrthoParams(keep_two_input=keep_two_input))
        assert result.identity.mode == plain.mode
        assert layout_to_fgl(result.identity.layout) == layout_to_fgl(plain.layout)

    def test_identity_winner_is_the_identity_layout(self):
        # c17's identity order is never beaten within three evaluations.
        net = get_benchmark("iscas85", "c17").build()
        result = input_ordering(net, InputOrderingParams(max_evaluations=3, timeout=30))
        assert result.pi_order == list(range(net.num_pis()))
        assert result.layout is result.identity.layout
