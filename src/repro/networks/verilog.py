"""Structural Verilog reader and writer.

MNT Bench distributes its ``Network`` abstraction level as Verilog files
written by mockturtle: one module, ``input``/``output``/``wire``
declarations, and one ``assign`` per gate using ``~ & | ^`` and the
ternary operator.  This module implements that dialect — enough to
round-trip every network this reproduction produces and to ingest
mockturtle-written benchmark files.
"""

from __future__ import annotations

import re
from pathlib import Path

from .logic_network import GateType, LogicNetwork


class VerilogError(ValueError):
    """Raised for files outside the supported structural subset."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

_OPERATORS = {
    GateType.AND: "&",
    GateType.OR: "|",
    GateType.XOR: "^",
}


def network_to_verilog(network: LogicNetwork, module_name: str | None = None) -> str:
    """Serialise a network as mockturtle-style structural Verilog."""
    module = module_name or network.name or "top"
    module = re.sub(r"\W", "_", module) or "top"
    pi_names = [_sanitize(network.pi_name(pi), f"x{i}") for i, pi in enumerate(network.pis())]
    po_names = [_sanitize(network.po_name(i), f"y{i}") for i in range(network.num_pos())]
    pi_names = _deduplicate(pi_names)
    po_names = _deduplicate(po_names, taken=set(pi_names))

    names: dict[int, str] = {0: "1'b0", 1: "1'b1"}
    for pi, name in zip(network.pis(), pi_names):
        names[pi] = name

    lines: list[str] = []
    ports = " , ".join(pi_names + po_names)
    lines.append(f"module {module}( {ports} );")
    if pi_names:
        lines.append(f"  input {' , '.join(pi_names)} ;")
    if po_names:
        lines.append(f"  output {' , '.join(po_names)} ;")

    order = [u for u in network.topological_order() if not network.node(u).gate_type.is_source]
    wires = []
    for uid in order:
        names[uid] = f"n{uid}"
        wires.append(names[uid])
    if wires:
        lines.append(f"  wire {' , '.join(wires)} ;")

    for uid in order:
        node = network.node(uid)
        f = [names[x] for x in node.fanins]
        t = node.gate_type
        if t in (GateType.BUF, GateType.FANOUT):
            expr = f[0]
        elif t is GateType.NOT:
            expr = f"~{f[0]}"
        elif t in _OPERATORS:
            expr = f"{f[0]} {_OPERATORS[t]} {f[1]}"
        elif t is GateType.NAND:
            expr = f"~( {f[0]} & {f[1]} )"
        elif t is GateType.NOR:
            expr = f"~( {f[0]} | {f[1]} )"
        elif t is GateType.XNOR:
            expr = f"~( {f[0]} ^ {f[1]} )"
        elif t is GateType.MAJ:
            expr = f"( {f[0]} & {f[1]} ) | ( {f[0]} & {f[2]} ) | ( {f[1]} & {f[2]} )"
        elif t is GateType.MUX:
            expr = f"{f[0]} ? {f[1]} : {f[2]}"
        else:  # pragma: no cover
            raise AssertionError(f"unhandled gate type {t}")
        lines.append(f"  assign {names[uid]} = {expr} ;")

    for index, (signal, _) in enumerate(network.pos()):
        lines.append(f"  assign {po_names[index]} = {names[signal]} ;")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(network: LogicNetwork, path) -> None:
    """Write a network to a ``.v`` file."""
    Path(path).write_text(network_to_verilog(network), encoding="utf-8")


def _sanitize(name: str, fallback: str) -> str:
    cleaned = re.sub(r"\W", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"_{cleaned}" if cleaned else fallback
    return cleaned


def _deduplicate(names: list[str], taken: set[str] | None = None) -> list[str]:
    seen = set(taken or ())
    out = []
    for name in names:
        candidate = name
        suffix = 1
        while candidate in seen:
            candidate = f"{name}_{suffix}"
            suffix += 1
        seen.add(candidate)
        out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

#: Deepest nesting of parentheses and ternary branches in one assign
#: expression; deeper input raises :class:`VerilogError` instead of
#: exhausting the interpreter stack (each level costs a few frames).
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[A-Za-z_\\][\w$\[\]\.]*)|(?P<const>1'b[01])|(?P<op>[~&|^?:()]))"
)


class _ExpressionParser:
    """Recursive-descent parser for the assign-expression grammar.

    Precedence (tightest first): ``~``, ``&``, ``^``, ``|``, ``?:`` —
    matching Verilog for the operators the dialect uses.
    """

    def __init__(self, text: str, resolve, network: LogicNetwork):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.resolve = resolve
        self.network = network
        #: Open parentheses and ternary branches around the cursor.
        self.depth = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                remainder = text[pos:].strip()
                if not remainder:
                    break
                raise VerilogError(f"cannot tokenise expression near {remainder!r}")
            tokens.append(match.group().strip())
            pos = match.end()
        return tokens

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise VerilogError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> int:
        signal = self._ternary()
        if self._peek() is not None:
            raise VerilogError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return signal

    def _ternary(self) -> int:
        cond = self._or()
        if self._peek() == "?":
            self._next()
            self._descend()
            then = self._ternary()
            if self._next() != ":":
                raise VerilogError("expected ':' in ternary expression")
            orelse = self._ternary()
            self.depth -= 1
            return self.network.create_mux(cond, then, orelse)
        return cond

    def _or(self) -> int:
        left = self._xor()
        while self._peek() == "|":
            self._next()
            left = self.network.create_or(left, self._xor())
        return left

    def _xor(self) -> int:
        left = self._and()
        while self._peek() == "^":
            self._next()
            left = self.network.create_xor(left, self._and())
        return left

    def _and(self) -> int:
        left = self._unary()
        while self._peek() == "&":
            self._next()
            left = self.network.create_and(left, self._unary())
        return left

    def _unary(self) -> int:
        negations = 0
        while self._peek() == "~":  # a loop, not recursion: any run of ~ is fine
            self._next()
            negations += 1
        token = self._peek()
        if token == "(":
            self._next()
            self._descend()
            signal = self._ternary()
            if self._next() != ")":
                raise VerilogError("unbalanced parentheses")
            self.depth -= 1
        elif token in ("1'b0", "1'b1"):
            self._next()
            signal = self.network.get_constant(token == "1'b1")
        else:
            signal = self.resolve(self._next())
        for _ in range(negations):
            signal = self.network.create_not(signal)
        return signal

    def _descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise VerilogError(f"expression nests deeper than {MAX_NESTING} levels")


def parse_verilog(text: str) -> LogicNetwork:
    """Parse a structural Verilog module into a :class:`LogicNetwork`."""
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)

    module_match = re.search(r"\bmodule\s+([\w$]+)\s*\((.*?)\)\s*;", text, re.DOTALL)
    if not module_match:
        raise VerilogError("no module declaration found")
    module_name = module_match.group(1)

    inputs = _collect_declarations(text, "input")
    outputs = _collect_declarations(text, "output")
    if not outputs:
        raise VerilogError("module declares no outputs")

    network = LogicNetwork(module_name)
    signals: dict[str, int] = {}
    for name in inputs:
        signals[name] = network.create_pi(name)

    assigns: list[tuple[str, str]] = []
    for target, expr in re.findall(r"\bassign\s+([\w$\[\]\.]+)\s*=\s*(.*?);", text, re.DOTALL):
        assigns.append((target, expr.strip()))

    # Assigns may be listed in any order; resolve iteratively.
    pending = list(assigns)
    defined_targets = {t for t, _ in assigns}
    for name in inputs:
        if name in defined_targets:
            raise VerilogError(f"input {name} is also assigned")
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for target, expr in pending:
            if _expression_ready(expr, signals, defined_targets):
                parser = _ExpressionParser(expr, lambda n: _resolve(n, signals), network)
                signals[target] = parser.parse()
                progress = True
            else:
                remaining.append((target, expr))
        pending = remaining
    if pending:
        unresolved = ", ".join(t for t, _ in pending)
        raise VerilogError(f"combinational loop or missing driver for: {unresolved}")

    for name in outputs:
        if name not in signals:
            raise VerilogError(f"output {name} has no driver")
        network.create_po(signals[name], name)
    return network


def read_verilog(path) -> LogicNetwork:
    """Read a ``.v`` file into a :class:`LogicNetwork`."""
    return parse_verilog(Path(path).read_text(encoding="utf-8"))


def _collect_declarations(text: str, keyword: str) -> list[str]:
    names: list[str] = []
    for decl in re.findall(rf"\b{keyword}\b(.*?);", text, re.DOTALL):
        for name in decl.split(","):
            name = name.strip()
            if name:
                names.append(name)
    return names


def _expression_ready(expr: str, signals: dict[str, int], defined: set[str]) -> bool:
    for token in re.findall(r"[A-Za-z_][\w$\[\]\.]*", expr):
        if token.startswith("1'b"):
            continue
        if token not in signals:
            if token in defined:
                return False
            # Unknown identifier: fail later with a clear resolve error.
    return True


def _resolve(name: str, signals: dict[str, int]) -> int:
    if name not in signals:
        raise VerilogError(f"undeclared signal {name!r}")
    return signals[name]
