"""Tests for structural network analysis."""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.networks import LogicNetwork
from repro.networks.analysis import (
    critical_nodes,
    fanout_histogram,
    format_profile,
    gate_mix,
    levels,
    profile,
    reconvergent_gates,
    to_networkx,
)
from repro.networks.library import full_adder, mux21, parity_generator


class TestGraphExport:
    def test_dag(self):
        graph = to_networkx(full_adder())
        assert nx.is_directed_acyclic_graph(graph)

    def test_node_count_matches(self):
        net = mux21()
        graph = to_networkx(net)
        live = [u for u in net.topological_order() if not net.is_constant(u)]
        assert graph.number_of_nodes() == len(live)

    def test_attributes(self):
        net = mux21()
        graph = to_networkx(net)
        types = {data["gate_type"] for _, data in graph.nodes(data=True)}
        assert "pi" in types and "and" in types


class TestStatistics:
    def test_gate_mix_mux(self):
        mix = gate_mix(mux21())
        assert mix == {"not": 1, "and": 2, "or": 1}

    def test_fanout_histogram(self):
        ntk = LogicNetwork()
        a = ntk.create_pi()
        ntk.create_po(ntk.create_not(a))
        ntk.create_po(ntk.create_buf(a))
        hist = fanout_histogram(ntk)
        assert hist[2] == 1  # the PI feeds two readers
        assert hist[1] == 2  # each gate feeds one PO

    def test_levels(self):
        ntk = LogicNetwork()
        a = ntk.create_pi()
        n1 = ntk.create_not(a)
        n2 = ntk.create_not(n1)
        ntk.create_po(n2)
        lv = levels(ntk)
        assert lv[a] == 0 and lv[n1] == 1 and lv[n2] == 2

    def test_critical_nodes_chain(self):
        ntk = LogicNetwork()
        a = ntk.create_pi()
        b = ntk.create_pi()
        deep = ntk.create_not(ntk.create_not(a))
        out = ntk.create_and(deep, b)
        ntk.create_po(out)
        critical = critical_nodes(ntk)
        assert out in critical
        assert a in critical
        assert b not in critical  # the shallow side is off the longest path

    def test_reconvergence_detected(self):
        # xor built from shared inputs is reconvergent at the OR.
        from repro.networks.library import xor2

        recon = reconvergent_gates(xor2())
        assert recon  # the final OR reconverges a and b

    def test_tree_has_no_reconvergence(self):
        ntk = LogicNetwork()
        a, b, c, d = (ntk.create_pi() for _ in range(4))
        ntk.create_po(ntk.create_and(ntk.create_and(a, b), ntk.create_and(c, d)))
        assert reconvergent_gates(ntk) == set()


class TestProfile:
    def test_full_adder_profile(self):
        p = profile(full_adder())
        assert p.num_pis == 3 and p.num_pos == 2
        assert p.num_gates == 13
        assert p.depth == full_adder().depth()
        assert p.components == 1
        assert p.reconvergent_gates > 0
        assert p.average_cone_size > 1

    def test_parity_profile(self):
        p = profile(parity_generator(4))
        assert p.max_fanout >= 2

    def test_format(self):
        text = format_profile(mux21())
        assert "mux21" in text
        assert "I/O = 3/1" in text
        assert "critical" in text


def test_profile_without_networkx_is_a_usage_error(monkeypatch, capsys):
    # networkx is the optional ``analysis`` extra: without it the
    # profile verb exits 2 with one stderr line, not a traceback.
    from repro.cli import main

    monkeypatch.setitem(sys.modules, "networkx", None)
    assert main(["profile", "trindade16/mux21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "networkx" in captured.err and "analysis" in captured.err


def test_cli_import_does_not_load_networkx():
    # networkx is imported only where the graph functions need it, so a
    # cold ``mnt-bench`` start does not pay for it.
    src = str(Path(__file__).resolve().parents[2] / "src")
    snippet = (
        f"import sys; sys.path.insert(0, {src!r}); import repro.cli; "
        "loaded = 'networkx' in sys.modules; "
        "from repro.networks import profile; "
        "from repro.networks.library import mux21; "
        "p = profile(mux21()); "
        "print(loaded, p.components, 'networkx' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert completed.stdout.split() == ["False", "1", "True"]
