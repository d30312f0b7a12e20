"""Tests for the structural Verilog reader/writer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.networks import (
    GateType,
    LogicNetwork,
    VerilogError,
    check_equivalence,
    network_to_verilog,
    parse_verilog,
    read_verilog,
    write_verilog,
)
from repro.networks.generators import DEFAULT_GATE_MIX, GeneratorSpec, generate_network
from repro.networks.library import full_adder, full_adder_maj, mux21
from repro.networks.verilog import MAX_NESTING


class TestWriter:
    def test_module_structure(self):
        text = network_to_verilog(mux21())
        assert text.startswith("module mux21(")
        assert "input a , b , s ;" in text
        assert "output f ;" in text
        assert text.rstrip().endswith("endmodule")

    def test_all_gate_types_serialisable(self):
        ntk = LogicNetwork("gates")
        a, b, c = (ntk.create_pi(x) for x in "abc")
        outputs = [
            ntk.create_and(a, b),
            ntk.create_nand(a, b),
            ntk.create_or(a, b),
            ntk.create_nor(a, b),
            ntk.create_xor(a, b),
            ntk.create_xnor(a, b),
            ntk.create_not(a),
            ntk.create_buf(b),
            ntk.create_maj(a, b, c),
            ntk.create_mux(a, b, c),
        ]
        for i, out in enumerate(outputs):
            ntk.create_po(out, f"y{i}")
        reparsed = parse_verilog(network_to_verilog(ntk))
        assert check_equivalence(ntk, reparsed).equivalent

    def test_name_sanitisation(self):
        ntk = LogicNetwork("my design!")
        a = ntk.create_pi("in[0]")
        ntk.create_po(a, "out.x")
        text = network_to_verilog(ntk)
        assert "module my_design_" in text
        reparsed = parse_verilog(text)
        assert reparsed.num_pis() == 1

    def test_duplicate_names_deduplicated(self):
        ntk = LogicNetwork("dups")
        a = ntk.create_pi("x")
        b = ntk.create_pi("x")
        ntk.create_po(ntk.create_and(a, b), "x")
        reparsed = parse_verilog(network_to_verilog(ntk))
        assert reparsed.num_pis() == 2
        assert reparsed.num_pos() == 1

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "fa.v"
        write_verilog(full_adder(), path)
        loaded = read_verilog(path)
        assert check_equivalence(full_adder(), loaded).equivalent


class TestParser:
    def test_minimal_module(self):
        ntk = parse_verilog(
            "module top(a, b, y);\ninput a, b;\noutput y;\n"
            "assign y = a & b;\nendmodule"
        )
        assert ntk.num_pis() == 2
        assert ntk.simulate()[0].to_hex() == "8"

    def test_operator_precedence(self):
        ntk = parse_verilog(
            "module top(a, b, c, y);\ninput a, b, c;\noutput y;\n"
            "assign y = a | b & c;\nendmodule"
        )
        reference = LogicNetwork()
        a, b, c = (reference.create_pi() for _ in range(3))
        reference.create_po(reference.create_or(a, reference.create_and(b, c)))
        assert check_equivalence(reference, ntk).equivalent

    def test_ternary(self):
        ntk = parse_verilog(
            "module top(s, t, e, y);\ninput s, t, e;\noutput y;\n"
            "assign y = s ? t : e;\nendmodule"
        )
        assert ntk.evaluate([True, True, False]) == [True]
        assert ntk.evaluate([False, True, False]) == [False]

    def test_constants(self):
        ntk = parse_verilog(
            "module top(a, y);\ninput a;\noutput y;\nassign y = a ^ 1'b1;\nendmodule"
        )
        assert ntk.evaluate([True]) == [False]

    def test_out_of_order_assigns(self):
        ntk = parse_verilog(
            "module top(a, y);\ninput a;\noutput y;\nwire w;\n"
            "assign y = ~w;\nassign w = ~a;\nendmodule"
        )
        assert ntk.evaluate([True]) == [True]

    def test_comments_stripped(self):
        ntk = parse_verilog(
            "// header\nmodule top(a, y); /* block\ncomment */\n"
            "input a;\noutput y;\nassign y = a;\nendmodule"
        )
        assert ntk.num_pis() == 1

    def test_missing_module_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog("input a;")

    def test_missing_driver_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog("module t(a, y);\ninput a;\noutput y;\nendmodule")

    def test_combinational_loop_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module t(a, y);\ninput a;\noutput y;\nwire p, q;\n"
                "assign p = q & a;\nassign q = p & a;\nassign y = p;\nendmodule"
            )

    def test_undeclared_signal_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module t(a, y);\ninput a;\noutput y;\nassign y = ghost;\nendmodule"
            )

    def test_unbalanced_parentheses_rejected(self):
        with pytest.raises(VerilogError):
            parse_verilog(
                "module t(a, y);\ninput a;\noutput y;\nassign y = (a;\nendmodule"
            )

    @pytest.mark.parametrize(
        "expr", ["(" * 5000 + "a" + ")" * 5000, "a ? " * 5000 + "a" + " : a" * 5000]
    )
    def test_deep_nesting_rejected(self, expr):
        with pytest.raises(VerilogError, match="nests deeper"):
            parse_verilog(f"module t(a, y);\ninput a;\noutput y;\nassign y = {expr};\nendmodule")

    def test_nesting_limit_parses(self):
        depth = MAX_NESTING
        expr = "(" * depth + "~a" + ")" * depth
        ntk = parse_verilog(f"module t(a, y);\ninput a;\noutput y;\nassign y = {expr};\nendmodule")
        assert ntk.evaluate([True]) == [False]

    def test_long_negation_chain_parses(self):
        expr = "~" * 5000 + "a"
        ntk = parse_verilog(f"module t(a, y);\ninput a;\noutput y;\nassign y = {expr};\nendmodule")
        assert ntk.evaluate([True]) == [True]


RICH_MIX = DEFAULT_GATE_MIX + ((GateType.MAJ, 0.08), (GateType.MUX, 0.08))


class TestRoundTripProperties:
    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_random_network_roundtrip(self, seed):
        spec = GeneratorSpec("rt", 6, 3, 40, seed=seed, gate_mix=RICH_MIX)
        ntk = generate_network(spec)
        reparsed = parse_verilog(network_to_verilog(ntk))
        assert reparsed.num_pis() == ntk.num_pis()
        assert reparsed.num_pos() == ntk.num_pos()
        assert check_equivalence(ntk, reparsed).equivalent

    def test_known_functions_roundtrip(self):
        for factory in (mux21, full_adder, full_adder_maj):
            ntk = factory()
            assert check_equivalence(ntk, parse_verilog(network_to_verilog(ntk))).equivalent
