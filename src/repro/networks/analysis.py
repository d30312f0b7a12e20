"""Structural network analysis.

MNT Bench's per-benchmark pages report structural statistics of the
network files (gate mix, depth profile, fanout distribution), and the
physical design literature cares about structure because it predicts
layout cost: reconvergence forces crossings, high-fanout nets force
fanout trees, and deep cones stretch the 2DDWave diagonal.  This module
computes those statistics on :class:`LogicNetwork` instances, using
``networkx`` for the graph-theoretic parts.  ``networkx`` is imported
only by the functions that use it, so importing the package (and
starting the CLI) does not pay for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .logic_network import GateType, LogicNetwork

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class NetworkProfile:
    """Structural summary of a network."""

    num_pis: int
    num_pos: int
    num_gates: int
    depth: int
    gate_mix: dict[str, int]
    fanout_histogram: dict[int, int]
    max_fanout: int
    #: Nodes on at least one longest PI→PO path.
    critical_nodes: int
    #: Gates with reconvergent fanin (their fanin cones overlap).
    reconvergent_gates: int
    #: Number of weakly connected components of the logic DAG.
    components: int
    #: Average fanin-cone size over all POs (a locality measure).
    average_cone_size: float


def to_networkx(network: LogicNetwork) -> nx.DiGraph:
    """The network's logic DAG as a ``networkx`` digraph.

    Nodes are the network's live node ids (constants excluded); each
    node carries ``gate_type`` and ``name`` attributes; edges point from
    fanin to reader.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for uid in network.topological_order():
        if network.is_constant(uid):
            continue
        node = network.node(uid)
        graph.add_node(uid, gate_type=node.gate_type.value, name=node.name)
        for fanin in node.fanins:
            if not network.is_constant(fanin):
                graph.add_edge(fanin, uid)
    return graph


def gate_mix(network: LogicNetwork) -> dict[str, int]:
    """Gate-type histogram over the live logic nodes."""
    counts = Counter(
        network.node(uid).gate_type.value
        for uid in network.topological_order()
        if not network.is_constant(uid) and not network.is_pi(uid)
    )
    return dict(counts)


def fanout_histogram(network: LogicNetwork) -> dict[int, int]:
    """Histogram of fanout sizes over PIs and gates."""
    counts: Counter[int] = Counter()
    for uid in network.topological_order():
        if network.is_constant(uid):
            continue
        counts[network.fanout_size(uid)] += 1
    return dict(counts)


def levels(network: LogicNetwork) -> dict[int, int]:
    """Topological level of every live node (sources at level 0)."""
    level: dict[int, int] = {}
    for uid in network.topological_order():
        node = network.node(uid)
        if node.gate_type.is_source:
            level[uid] = 0
        else:
            level[uid] = 1 + max(
                (level[f] for f in node.fanins if f in level), default=0
            )
    return level


def critical_nodes(network: LogicNetwork) -> set[int]:
    """Nodes lying on at least one maximum-depth PI→PO path."""
    level = levels(network)
    depth = network.depth()
    # Height: longest path from the node down to any PO.
    height: dict[int, int] = {}
    order = network.topological_order()
    po_signals = set(network.po_signals())
    for uid in reversed(order):
        readers = [r for r in network.fanouts(uid) if r in level]
        base = 0 if uid in po_signals else -(1 << 30)
        height[uid] = max([base] + [1 + height[r] for r in readers if r in height])
    return {
        uid
        for uid in order
        if not network.is_constant(uid)
        and height.get(uid, -1) >= 0
        and level[uid] + height[uid] == depth
    }


def reconvergent_gates(network: LogicNetwork) -> set[int]:
    """Gates whose fanin cones share a node (reconvergent fanin).

    Reconvergence is the structural driver of wire crossings in FCN
    layouts: the shared signal must be distributed along two disjoint
    physical paths that meet again.
    """
    cones: dict[int, frozenset[int]] = {}
    result: set[int] = set()
    for uid in network.topological_order():
        node = network.node(uid)
        if network.is_constant(uid):
            continue
        if node.gate_type.is_source:
            cones[uid] = frozenset({uid})
            continue
        fanin_cones = [cones[f] for f in node.fanins if f in cones]
        if len(fanin_cones) >= 2:
            merged: set[int] = set()
            overlap = False
            for cone in fanin_cones:
                if merged & cone:
                    overlap = True
                merged |= cone
            if overlap:
                result.add(uid)
            cones[uid] = frozenset(merged | {uid})
        else:
            base = fanin_cones[0] if fanin_cones else frozenset()
            cones[uid] = frozenset(base | {uid})
    return result


def profile(network: LogicNetwork) -> NetworkProfile:
    """Compute the full structural profile."""
    import networkx as nx

    graph = to_networkx(network)
    histogram = fanout_histogram(network)
    cone_sizes = []
    for signal in network.po_signals():
        if network.is_constant(signal):
            cone_sizes.append(0)
            continue
        cone_sizes.append(len(nx.ancestors(graph, signal)) + 1)
    return NetworkProfile(
        num_pis=network.num_pis(),
        num_pos=network.num_pos(),
        num_gates=network.num_gates(),
        depth=network.depth(),
        gate_mix=gate_mix(network),
        fanout_histogram=histogram,
        max_fanout=max(histogram, default=0),
        critical_nodes=len(critical_nodes(network)),
        reconvergent_gates=len(reconvergent_gates(network)),
        components=nx.number_weakly_connected_components(graph) if graph else 0,
        average_cone_size=sum(cone_sizes) / len(cone_sizes) if cone_sizes else 0.0,
    )


def format_profile(network: LogicNetwork) -> str:
    """Human-readable profile report."""
    p = profile(network)
    mix = ", ".join(f"{t}: {c}" for t, c in sorted(p.gate_mix.items()))
    fanouts = ", ".join(f"{k}→{v}" for k, v in sorted(p.fanout_histogram.items()))
    return "\n".join(
        [
            f"network {network.name or '<unnamed>'}",
            f"  interface   I/O = {p.num_pis}/{p.num_pos}",
            f"  gates       N = {p.num_gates}, depth = {p.depth}",
            f"  gate mix    {mix}",
            f"  fanouts     {fanouts} (max {p.max_fanout})",
            f"  structure   {p.critical_nodes} critical node(s), "
            f"{p.reconvergent_gates} reconvergent gate(s), "
            f"{p.components} component(s)",
            f"  avg PO cone {p.average_cone_size:.1f} nodes",
        ]
    )
