"""Technology-independent logic networks.

This module provides the network abstraction MNT Bench distributes at the
``Network (.v)`` abstraction level and that all physical design algorithms
in this reproduction consume.  It is modelled after *fiction*'s
``technology_network`` (a mockturtle ``klut_network`` specialisation):

* nodes are identified by dense integer ids,
* constants and primary inputs are nodes, primary outputs are references,
* gate nodes carry an explicit :class:`GateType` (no complemented edges —
  inverters are nodes, as required for gate-level layout generation),
* explicit fanout nodes can be inserted so that every node's fanout degree
  is bounded, which the ortho [6] and exact [4] algorithms both require.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .truth_table import TruthTable


class GateType(enum.Enum):
    """Node function of a :class:`LogicNetwork` node."""

    CONST0 = "const0"
    CONST1 = "const1"
    PI = "pi"
    PO = "po"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MAJ = "maj"
    MUX = "mux"
    FANOUT = "fanout"

    # Members are singletons compared by identity, so the C-level identity
    # hash is sound; ``Enum.__hash__`` hashes the name in a Python frame.
    __hash__ = object.__hash__

    @property
    def arity(self) -> int:
        """Number of fanins a node of this type carries."""
        return _ARITY[self]

    @property
    def is_source(self) -> bool:
        """True for nodes without fanins (constants and PIs)."""
        return self in (GateType.CONST0, GateType.CONST1, GateType.PI)


_ARITY = {
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.PI: 0,
    GateType.PO: 1,
    GateType.BUF: 1,
    GateType.NOT: 1,
    GateType.FANOUT: 1,
    GateType.AND: 2,
    GateType.NAND: 2,
    GateType.OR: 2,
    GateType.NOR: 2,
    GateType.XOR: 2,
    GateType.XNOR: 2,
    GateType.MAJ: 3,
    GateType.MUX: 3,
}

#: Evaluation functions over boolean fanin tuples, keyed by gate type.
GATE_EVAL = {
    GateType.CONST0: lambda: False,
    GateType.CONST1: lambda: True,
    GateType.PO: lambda a: a,
    GateType.BUF: lambda a: a,
    GateType.FANOUT: lambda a: a,
    GateType.NOT: lambda a: not a,
    GateType.AND: lambda a, b: a and b,
    GateType.NAND: lambda a, b: not (a and b),
    GateType.OR: lambda a, b: a or b,
    GateType.NOR: lambda a, b: not (a or b),
    GateType.XOR: lambda a, b: a != b,
    GateType.XNOR: lambda a, b: a == b,
    GateType.MAJ: lambda a, b, c: (a and b) or (a and c) or (b and c),
    # MUX fanin convention: (select, then, else) — select=1 picks `then`.
    GateType.MUX: lambda s, t, e: t if s else e,
}

#: Word-level evaluation functions: each takes the all-ones mask of the
#: packed word followed by one integer word per fanin, and returns the
#: output word.  Bit ``j`` of every word is stimulus vector ``j``, so one
#: call evaluates the gate for every packed vector at once.
GATE_EVAL_WORDS = {
    GateType.CONST0: lambda m: 0,
    GateType.CONST1: lambda m: m,
    GateType.PO: lambda m, a: a,
    GateType.BUF: lambda m, a: a,
    GateType.FANOUT: lambda m, a: a,
    GateType.NOT: lambda m, a: a ^ m,
    GateType.AND: lambda m, a, b: a & b,
    GateType.NAND: lambda m, a, b: (a & b) ^ m,
    GateType.OR: lambda m, a, b: a | b,
    GateType.NOR: lambda m, a, b: (a | b) ^ m,
    GateType.XOR: lambda m, a, b: a ^ b,
    GateType.XNOR: lambda m, a, b: (a ^ b) ^ m,
    GateType.MAJ: lambda m, a, b, c: (a & b) | (a & c) | (b & c),
    GateType.MUX: lambda m, s, t, e: (s & t) | ((s ^ m) & e),
}


@dataclass
class Node:
    """A single network node: its function, fanins, and optional name."""

    uid: int
    gate_type: GateType
    fanins: tuple[int, ...]
    name: str | None = None


@dataclass
class NetworkStats:
    """Summary statistics of a network, as reported in Table I."""

    num_pis: int
    num_pos: int
    num_gates: int
    depth: int


class LogicNetwork:
    """A directed acyclic network of logic gates.

    The class intentionally exposes a mockturtle-flavoured API
    (``create_pi``, ``create_and``, …, ``create_po``) so that benchmark
    definitions and the Verilog reader stay close to the upstream tools
    MNT Bench wraps.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: list[Node] = []
        self._pis: list[int] = []
        self._pos: list[tuple[int, str | None]] = []
        self._fanout_cache: dict[int, list[int]] | None = None
        # Constants always exist at fixed ids 0 and 1, like in mockturtle.
        self._add_node(GateType.CONST0, ())
        self._add_node(GateType.CONST1, ())

    # -- construction ------------------------------------------------------

    def _add_node(self, gate_type: GateType, fanins: tuple[int, ...], name: str | None = None) -> int:
        if len(fanins) != gate_type.arity:
            raise ValueError(
                f"{gate_type.value} expects {gate_type.arity} fanins, got {len(fanins)}"
            )
        for fanin in fanins:
            if not 0 <= fanin < len(self._nodes):
                raise ValueError(f"fanin {fanin} does not exist")
        uid = len(self._nodes)
        self._nodes.append(Node(uid, gate_type, tuple(fanins), name))
        self._fanout_cache = None
        return uid

    def get_constant(self, value: bool) -> int:
        """Node id of the requested constant."""
        return 1 if value else 0

    def create_pi(self, name: str | None = None) -> int:
        uid = self._add_node(GateType.PI, (), name)
        self._pis.append(uid)
        return uid

    def create_po(self, signal: int, name: str | None = None) -> None:
        if not 0 <= signal < len(self._nodes):
            raise ValueError(f"PO signal {signal} does not exist")
        self._pos.append((signal, name))
        self._fanout_cache = None

    def create_buf(self, a: int) -> int:
        return self._add_node(GateType.BUF, (a,))

    def create_not(self, a: int) -> int:
        return self._add_node(GateType.NOT, (a,))

    def create_and(self, a: int, b: int) -> int:
        return self._add_node(GateType.AND, (a, b))

    def create_nand(self, a: int, b: int) -> int:
        return self._add_node(GateType.NAND, (a, b))

    def create_or(self, a: int, b: int) -> int:
        return self._add_node(GateType.OR, (a, b))

    def create_nor(self, a: int, b: int) -> int:
        return self._add_node(GateType.NOR, (a, b))

    def create_xor(self, a: int, b: int) -> int:
        return self._add_node(GateType.XOR, (a, b))

    def create_xnor(self, a: int, b: int) -> int:
        return self._add_node(GateType.XNOR, (a, b))

    def create_maj(self, a: int, b: int, c: int) -> int:
        return self._add_node(GateType.MAJ, (a, b, c))

    def create_mux(self, select: int, then: int, orelse: int) -> int:
        return self._add_node(GateType.MUX, (select, then, orelse))

    def create_fanout(self, a: int) -> int:
        return self._add_node(GateType.FANOUT, (a,))

    def create_gate(self, gate_type: GateType, fanins, name: str | None = None) -> int:
        """Generic node creation used by readers and generators."""
        if gate_type is GateType.PI:
            return self.create_pi(name)
        return self._add_node(gate_type, tuple(fanins), name)

    # -- structure queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, uid: int) -> Node:
        return self._nodes[uid]

    def nodes(self):
        """All nodes, including constants and PIs."""
        return iter(self._nodes)

    def pis(self) -> list[int]:
        return list(self._pis)

    def pos(self) -> list[tuple[int, str | None]]:
        return list(self._pos)

    def po_signals(self) -> list[int]:
        return [signal for signal, _ in self._pos]

    def num_pis(self) -> int:
        return len(self._pis)

    def num_pos(self) -> int:
        return len(self._pos)

    def num_gates(self) -> int:
        """Number of logic nodes (everything except constants and PIs)."""
        return sum(1 for n in self._nodes if not n.gate_type.is_source)

    def gates(self):
        """All logic nodes in creation order."""
        return (n for n in self._nodes if not n.gate_type.is_source)

    def is_pi(self, uid: int) -> bool:
        return self._nodes[uid].gate_type is GateType.PI

    def is_constant(self, uid: int) -> bool:
        return self._nodes[uid].gate_type in (GateType.CONST0, GateType.CONST1)

    def fanins(self, uid: int) -> tuple[int, ...]:
        return self._nodes[uid].fanins

    def fanouts(self, uid: int) -> list[int]:
        """Node ids reading ``uid`` (POs not included; see ``fanout_size``)."""
        if self._fanout_cache is None:
            cache: dict[int, list[int]] = {n.uid: [] for n in self._nodes}
            for n in self._nodes:
                for fanin in n.fanins:
                    cache[fanin].append(n.uid)
            self._fanout_cache = cache
        return list(self._fanout_cache[uid])

    def fanout_size(self, uid: int) -> int:
        """Total number of readers: fanout nodes plus PO references."""
        return len(self.fanouts(uid)) + sum(1 for s, _ in self._pos if s == uid)

    def pi_name(self, uid: int) -> str:
        node = self._nodes[uid]
        return node.name if node.name else f"pi{self._pis.index(uid)}"

    def po_name(self, index: int) -> str:
        signal, name = self._pos[index]
        return name if name else f"po{index}"

    # -- traversal -----------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Node ids in a topological order (sources first).

        Only nodes in the transitive fanin of some PO — plus all PIs and
        constants — are returned, matching how layout algorithms see the
        network.
        """
        order: list[int] = [0, 1] + list(self._pis)
        visited = set(order)
        stack: list[tuple[int, bool]] = []
        for signal in self.po_signals():
            stack.append((signal, False))
        while stack:
            uid, expanded = stack.pop()
            if uid in visited and not expanded:
                continue
            if expanded:
                if uid not in visited:
                    visited.add(uid)
                    order.append(uid)
                continue
            stack.append((uid, True))
            for fanin in self._nodes[uid].fanins:
                if fanin not in visited:
                    stack.append((fanin, False))
        return order

    def depth(self) -> int:
        """Length of the longest PI→PO path, counting logic nodes."""
        level: dict[int, int] = {}
        for uid in self.topological_order():
            node = self._nodes[uid]
            if node.gate_type.is_source:
                level[uid] = 0
            else:
                level[uid] = 1 + max(level[f] for f in node.fanins)
        if not self._pos:
            return 0
        return max(level.get(s, 0) for s in self.po_signals())

    def stats(self) -> NetworkStats:
        return NetworkStats(self.num_pis(), self.num_pos(), self.num_gates(), self.depth())

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, input_values) -> list[bool]:
        """Evaluate all POs for one input assignment (list ordered like PIs)."""
        values = self._evaluate_nodes(input_values)
        return [values[s] for s in self.po_signals()]

    def _evaluate_nodes(self, input_values) -> dict[int, bool]:
        input_values = list(input_values)
        if len(input_values) != len(self._pis):
            raise ValueError(
                f"expected {len(self._pis)} input values, got {len(input_values)}"
            )
        values: dict[int, bool] = {0: False, 1: True}
        for uid, value in zip(self._pis, input_values):
            values[uid] = bool(value)
        for uid in self.topological_order():
            if uid in values:
                continue
            node = self._nodes[uid]
            values[uid] = GATE_EVAL[node.gate_type](*(values[f] for f in node.fanins))
        return values

    def simulate_words(self, input_words, num_vectors: int) -> list[int]:
        """Bit-parallel evaluation of all POs over packed stimulus words.

        ``input_words`` carries one arbitrary-precision integer per PI;
        bit ``j`` of PI ``i``'s word is the value of that input in
        stimulus vector ``j`` (``0 <= j < num_vectors``).  Every gate is
        evaluated exactly once with bitwise integer operations, so the
        cost of checking hundreds of vectors is a single topological
        walk instead of one walk per vector.  Returns one output word
        per PO with the same bit layout.
        """
        words = self._node_words(input_words, num_vectors)
        return [words[s] for s in self.po_signals()]

    def _node_words(self, input_words, num_vectors: int) -> dict[int, int]:
        input_words = list(input_words)
        if len(input_words) != len(self._pis):
            raise ValueError(
                f"expected {len(self._pis)} input words, got {len(input_words)}"
            )
        if num_vectors < 1:
            raise ValueError("num_vectors must be positive")
        mask = (1 << num_vectors) - 1
        words: dict[int, int] = {0: 0, 1: mask}
        for uid, word in zip(self._pis, input_words):
            words[uid] = word & mask
        nodes = self._nodes
        eval_words = GATE_EVAL_WORDS
        for uid in self.topological_order():
            if uid in words:
                continue
            node = nodes[uid]
            words[uid] = eval_words[node.gate_type](
                mask, *(words[f] for f in node.fanins)
            )
        return words

    def evaluate_words(self, input_words, num_vectors: int) -> list[int]:
        """Alias of :meth:`simulate_words` mirroring :meth:`evaluate`."""
        return self.simulate_words(input_words, num_vectors)

    def simulate(self) -> list[TruthTable]:
        """Exhaustively simulate into one truth table per PO.

        A thin wrapper around :meth:`simulate_words`: the packed word of
        PI ``var`` is its projection pattern over all ``2^n`` rows, so
        the resulting PO words *are* the truth-table bit masks.  Only
        feasible for networks with at most 16 primary inputs; larger
        networks should be compared with :mod:`repro.networks.simulation`'s
        random-vector equivalence checking instead.
        """
        n = len(self._pis)
        if n > 16:
            raise ValueError("exhaustive simulation limited to 16 inputs")
        rows = 1 << n
        projections = [TruthTable.projection(var, n).bits for var in range(n)]
        return [
            TruthTable(n, word)
            for word in self.simulate_words(projections, rows)
        ]

    # -- transformations -----------------------------------------------------

    def substitute_fanout(self, max_degree: int = 2) -> "LogicNetwork":
        """Return a copy with explicit fanout nodes bounding fanout degree.

        Following *fiction*'s ``fanout_substitution``, a gate tile has
        exactly one output signal, so every node driving more than one
        reader (fanin references plus PO references) gets a tree of
        explicit ``FANOUT`` nodes.  Only the inserted fanout nodes may
        drive up to ``max_degree`` readers (2 for standard FCN tiles,
        since a tile has at most three free sides and one is the input).
        """
        if max_degree < 2:
            raise ValueError("max_degree must be at least 2")
        out = LogicNetwork(self.name)
        mapping: dict[int, int] = {0: 0, 1: 1}
        # Per original node: output taps in `out` with per-tap use counts.
        # Capacity is 1 for regular replicas and `max_degree` for fanouts.
        taps: dict[int, list[int]] = {}
        uses: dict[int, int] = {}

        def capacity(tap: int) -> int:
            return max_degree if out.node(tap).gate_type is GateType.FANOUT else 1

        def fresh_tap(orig: int) -> int:
            """An output signal of `orig`'s replica with spare capacity."""
            if self.is_constant(orig):
                # Constants are not physical tiles; they are materialised by
                # the gate libraries and carry no fanout restriction.
                return mapping[orig]
            for tap in taps[orig]:
                if uses[tap] < capacity(tap):
                    uses[tap] += 1
                    return tap
            # All taps saturated.  The pre-growth pass sizes the tree from
            # the known reader demand, so this is unreachable in practice;
            # fail loudly rather than silently violating the fanout bound.
            raise AssertionError(
                f"fanout tree for node {orig} undersized (demand accounting bug)"
            )

        demand: dict[int, int] = {}
        for n in self._nodes:
            for fanin in n.fanins:
                demand[fanin] = demand.get(fanin, 0) + 1
        for signal, _ in self._pos:
            demand[signal] = demand.get(signal, 0) + 1

        for uid in self.topological_order():
            node = self._nodes[uid]
            if self.is_constant(uid):
                continue
            if node.gate_type is GateType.PI:
                replica = out.create_pi(node.name)
            else:
                new_fanins = tuple(fresh_tap(f) for f in node.fanins)
                replica = out.create_gate(node.gate_type, new_fanins, node.name)
            mapping[uid] = replica
            taps[uid] = [replica]
            uses[replica] = 0
            # Pre-grow a fanout tree when more readers are waiting than the
            # replica's single output can serve.
            needed = demand.get(uid, 0)
            while sum(capacity(t) - uses[t] for t in taps[uid]) < needed:
                tap = next(t for t in taps[uid] if uses[t] < capacity(t))
                uses[tap] += 1
                fo = out.create_fanout(tap)
                taps[uid].append(fo)
                uses[fo] = 0
        for signal, name in self._pos:
            out.create_po(fresh_tap(signal), name)
        return out

    def cleanup_dangling(self) -> "LogicNetwork":
        """Return a copy with nodes not reaching any PO removed."""
        out = LogicNetwork(self.name)
        mapping: dict[int, int] = {0: 0, 1: 1}
        keep = set(self.topological_order())
        for uid in self.topological_order():
            node = self._nodes[uid]
            if uid not in keep or uid in mapping:
                continue
            if node.gate_type is GateType.PI:
                mapping[uid] = out.create_pi(node.name)
            else:
                mapping[uid] = out.create_gate(
                    node.gate_type, tuple(mapping[f] for f in node.fanins), node.name
                )
        for signal, name in self._pos:
            out.create_po(mapping[signal], name)
        return out

    def clone(self) -> "LogicNetwork":
        out = LogicNetwork(self.name)
        for node in self._nodes[2:]:
            if node.gate_type is GateType.PI:
                out.create_pi(node.name)
            else:
                out.create_gate(node.gate_type, node.fanins, node.name)
        for signal, name in self._pos:
            out.create_po(signal, name)
        return out

    def max_fanout_degree(self) -> int:
        """Largest combined reader count over all non-constant nodes."""
        best = 0
        for node in self._nodes[2:]:
            best = max(best, self.fanout_size(node.uid))
        return best

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"LogicNetwork(name={self.name!r}, pis={self.num_pis()}, "
            f"pos={self.num_pos()}, gates={self.num_gates()})"
        )
