"""Columnar metric / DRC / signature kernels over :class:`LayoutBatch`.

Each kernel replicates one reference computation bit-for-bit:

* :func:`layout_metrics` ≡ :func:`repro.layout.metrics.compute_metrics`
  (``None`` where the reference raises on cyclic/dangling connectivity);
* :func:`layout_drc` ≡ the violation/warning *counts* and verdict of
  :func:`repro.layout.verification.check_layout` (messages are the
  per-artifact path's job — the columnar engine answers "how many, and
  does it pass?");
* :func:`layout_signature` ≡
  ``output_signature(layout.extract_network())`` from
  :mod:`repro.networks.simulation`, evaluated directly on table rows
  with the packed-word gate semantics of
  :data:`repro.networks.logic_network.GATE_EVAL_WORDS`.

The bulk shape reductions (bounding box, kind counts, crossing counts)
run through numpy over the batch's ``array`` columns; all outputs are
exact ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..layout.metrics import LayoutMetrics, metrics_from_counts
from ..networks.simulation import EXHAUSTIVE_LIMIT, exhaustive_words, random_words
from .tables import (
    KIND_AND,
    KIND_ARITY,
    KIND_BUF,
    KIND_CONST0,
    KIND_CONST1,
    KIND_FANOUT,
    KIND_MAJ,
    KIND_MUX,
    KIND_NAND,
    KIND_NOR,
    KIND_NOT,
    KIND_OR,
    KIND_PI,
    KIND_PO,
    KIND_XNOR,
    KIND_XOR,
    LayoutBatch,
)

#: Default stimulus parameters — must match ``output_signature``.
DEFAULT_NUM_VECTORS = 64
DEFAULT_SEED = 7

#: Default DRC fanout capacity — must match ``check_layout``.
DEFAULT_MAX_FANOUT = 2

_HEX_EVEN = frozenset(((1, 0), (-1, 0), (0, -1), (1, -1), (0, 1), (1, 1)))
_HEX_ODD = frozenset(((1, 0), (-1, 0), (-1, -1), (0, -1), (-1, 1), (0, 1)))


@dataclass(frozen=True)
class DrcCounts:
    """Columnar DRC verdict: counts only, same pass/fail as the report."""

    violations: int
    warnings: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class LayoutAnalysis:
    """Everything the batch engine computes for one layout."""

    metrics: LayoutMetrics | None
    drc: DrcCounts
    signature: tuple | None = None
    num_pis: int = 0
    num_pos: int = 0


class LayoutState:
    """Derived per-layout state shared by the kernels.

    ``order`` is a valid topological order of the layout's global rows,
    or ``None`` when the connectivity is cyclic or references empty
    tiles — exactly the condition under which the reference
    ``topological_tiles`` raises.  ``degree[local]`` is the fanout
    degree (reader references, duplicates counted) of each row.
    """

    __slots__ = ("r0", "r1", "order", "degree")

    def __init__(self, batch: LayoutBatch, index: int) -> None:
        r0, r1 = batch.rows(index)
        self.r0, self.r1 = r0, r1
        fanin_start = batch.fanin_start
        fanin_row = batch.fanin_row
        degree = [0] * (r1 - r0)
        for j in range(fanin_start[r0], fanin_start[r1]):
            target = fanin_row[j]
            if target >= 0:
                degree[target - r0] += 1
        self.degree = degree
        if batch.sorted_flags[index] and not batch.dangling_flags[index]:
            self.order = range(r0, r1)
        else:
            self.order = _kahn_order(batch, r0, r1)


def _kahn_order(batch: LayoutBatch, r0: int, r1: int):
    """Topological row order for non-presorted layouts (None on cycles
    or dangling fanins, mirroring ``GateLayout.topological_tiles``)."""
    n = r1 - r0
    fanin_start = batch.fanin_start
    fanin_row = batch.fanin_row
    indegree = [fanin_start[r + 1] - fanin_start[r] for r in range(r0, r1)]
    readers: list[list[int]] = [[] for _ in range(n)]
    for r in range(r0, r1):
        for j in range(fanin_start[r], fanin_start[r + 1]):
            target = fanin_row[j]
            if target >= 0:
                readers[target - r0].append(r - r0)
    ready = [local for local in range(n) if indegree[local] == 0]
    order: list[int] = []
    while ready:
        local = ready.pop()
        order.append(r0 + local)
        for consumer in readers[local]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != n:
        return None
    return order


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _shape_counts(batch: LayoutBatch, index: int):
    """(width, height, num_gates, num_wires, num_crossings) — the bulk
    reductions."""
    r0, r1 = batch.rows(index)
    if r0 == r1:
        return 0, 0, 0, 0, 0
    kinds = np.frombuffer(batch.kind, dtype=np.int8)[r0:r1]
    gx = np.frombuffer(batch.gx, dtype=np.intc)[r0:r1]
    gy = np.frombuffer(batch.gy, dtype=np.intc)[r0:r1]
    gz = np.frombuffer(batch.gz, dtype=np.intc)[r0:r1]
    width = int(gx.max()) + 1
    height = int(gy.max()) + 1
    num_wires = int((kinds == KIND_BUF).sum())
    interface = int((kinds == KIND_PI).sum()) + int((kinds == KIND_PO).sum())
    num_crossings = int((gz == 1).sum())
    num_gates = (r1 - r0) - num_wires - interface
    return width, height, num_gates, num_wires, num_crossings


def layout_metrics(
    batch: LayoutBatch, index: int, state: LayoutState | None = None
) -> LayoutMetrics | None:
    """Metrics of layout ``index`` (``None`` on broken connectivity)."""
    state = state or LayoutState(batch, index)
    if state.order is None:
        return None
    width, height, num_gates, num_wires, num_crossings = _shape_counts(batch, index)
    critical_path, throughput = _timing(batch, index, state)
    return metrics_from_counts(
        width=width,
        height=height,
        num_gates=num_gates,
        num_wires=num_wires,
        num_crossings=num_crossings,
        critical_path=critical_path,
        throughput=throughput,
    )


def _timing(batch: LayoutBatch, index: int, state: LayoutState) -> tuple[int, int]:
    """(critical path, throughput) in one pass over the topological order.

    ``cp_depth`` counts tiles from 1 at sources (the critical path of
    ``compute_metrics``); ``tp_depth`` counts hops from 0, whose
    reconvergence imbalance in full clock cycles bounds the input rate
    (its throughput).
    """
    r0 = state.r0
    kind = batch.kind
    fanin_start = batch.fanin_start
    fanin_row = batch.fanin_row
    phases = batch.num_phases[index]
    n = state.r1 - r0
    cp_depth = [0] * n
    tp_depth = [0] * n
    best = 0
    worst = 0
    for r in state.order:
        local = r - r0
        f0, f1 = fanin_start[r], fanin_start[r + 1]
        if f0 == f1:
            cp_depth[local] = 1
            tp_depth[local] = 0
        else:
            first = fanin_row[f0] - r0
            cp_max = cp_depth[first]
            tp_max = tp_min = tp_depth[first]
            for j in range(f0 + 1, f1):
                source = fanin_row[j] - r0
                cp = cp_depth[source]
                if cp > cp_max:
                    cp_max = cp
                tp = tp_depth[source]
                if tp > tp_max:
                    tp_max = tp
                elif tp < tp_min:
                    tp_min = tp
            cp_depth[local] = 1 + cp_max
            tp_depth[local] = 1 + tp_max
            if f1 - f0 > 1:
                imbalance = (tp_max - tp_min) // phases
                if imbalance > worst:
                    worst = imbalance
        if kind[r] == KIND_PO and cp_depth[local] > best:
            best = cp_depth[local]
    return best, worst + 1


# ---------------------------------------------------------------------------
# DRC
# ---------------------------------------------------------------------------


def _zone_lookup(batch: LayoutBatch, index: int):
    """A ``zone(x, y)`` callable matching ``GateLayout.zone``."""
    scheme = batch.schemes[index]
    if scheme.regular:
        if scheme.diagonal:
            phases = scheme.num_phases
            return lambda x, y: (x + y) % phases
        matrix = scheme.matrix
        period_y = len(matrix)
        return lambda x, y: matrix[y % period_y][x % len(matrix[y % period_y])]
    zones = batch.explicit_zones[index] or {}
    return lambda x, y: zones.get((x, y), 0)


def layout_drc(
    batch: LayoutBatch,
    index: int,
    state: LayoutState | None = None,
    max_fanout: int = DEFAULT_MAX_FANOUT,
) -> DrcCounts:
    """DRC verdict of layout ``index``: same violation/warning counts
    (and therefore the same pass/fail) as ``check_layout``."""
    state = state or LayoutState(batch, index)
    r0, r1 = state.r0, state.r1
    kind = batch.kind
    gx, gy, gz = batch.gx, batch.gy, batch.gz
    fx, fy, fz = batch.fx, batch.fy, batch.fz
    fanin_start = batch.fanin_start
    fanin_row = batch.fanin_row
    ground_occupied = batch.ground_occupied
    degree = state.degree
    hexagonal = batch.topologies[index] == 1
    zone = _zone_lookup(batch, index)
    phases = batch.num_phases[index]

    violations = 0
    warnings = 0
    num_pis = 0
    num_pos = 0
    for r in range(r0, r1):
        k = kind[r]
        if k == KIND_PI:
            num_pis += 1
        elif k == KIND_PO:
            num_pos += 1
        f0, f1 = fanin_start[r], fanin_start[r + 1]
        nf = f1 - f0
        # structure: arity must match the gate kind
        if nf != KIND_ARITY[k]:
            violations += 1
        if nf > 1:
            # structure: duplicate fanin tiles
            if len({(fx[j], fy[j], fz[j]) for j in range(f0, f1)}) != nf:
                violations += 1
            # entry sides: two signals through the same ground tile
            if len({(fx[j], fy[j]) for j in range(f0, f1)}) != nf:
                violations += 1
        tx, ty = gx[r], gy[r]
        target_zone = zone(tx, ty) if nf else 0
        for j in range(f0, f1):
            if fanin_row[j] < 0:
                violations += 1  # structure: fanin references an empty tile
                continue
            sx, sy = fx[j], fy[j]
            if sx == tx and sy == ty:
                continue  # crossing stack: exempt from adjacency + clocking
            # structure: fanin must be a grid neighbour
            if hexagonal:
                adjacent = (tx - sx, ty - sy) in (
                    _HEX_EVEN if sy % 2 == 0 else _HEX_ODD
                )
            else:
                adjacent = abs(tx - sx) + abs(ty - sy) == 1
            if not adjacent:
                violations += 1
            # clocking: information flows along increasing clock zones
            if (zone(sx, sy) + 1) % phases != target_zone:
                violations += 1
        # fanout capacity
        d = degree[r - r0]
        if k == KIND_PO:
            if d > 0:
                violations += 1
        elif k == KIND_FANOUT:
            if d > max_fanout:
                violations += 1
        elif d > 1:
            violations += 1
        # crossing layer: only wires, only above occupied ground
        if gz[r] == 1:
            if k != KIND_BUF:
                violations += 1
            if not ground_occupied[r]:
                violations += 1
    # io
    if num_pis == 0:
        warnings += 1
    if num_pos == 0:
        violations += 1
    # dataflow
    if state.order is None:
        violations += 1  # cycle / dangling fanin; unread checks skipped
    else:
        for r in range(r0, r1):
            if kind[r] != KIND_PO and degree[r - r0] == 0:
                warnings += 1
    return DrcCounts(violations, warnings)


# ---------------------------------------------------------------------------
# Output signatures
# ---------------------------------------------------------------------------


def layout_signature(
    batch: LayoutBatch,
    index: int,
    state: LayoutState | None = None,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    seed: int = DEFAULT_SEED,
) -> tuple | None:
    """Word-level output signature of layout ``index``.

    Bit-identical to ``output_signature(layout.extract_network())``:
    PI words are assigned in PI row order (= interface order), rows are
    evaluated topologically with the packed-word gate semantics, and PO
    words are collected in PO row order.  Small interfaces are proven
    exhaustively, larger ones on the shared deterministic stimulus.

    Precondition: the layout is DRC-clean (arity and connectivity
    valid); callers gate on :meth:`DrcCounts.ok` exactly like the
    reference ``verify_layout`` does.  Returns ``None`` on broken
    connectivity, where the reference extraction raises.
    """
    state = state or LayoutState(batch, index)
    if state.order is None:
        return None
    r0, r1 = state.r0, state.r1
    kind = batch.kind
    pi_rows = [r for r in range(r0, r1) if kind[r] == KIND_PI]
    po_rows = [r for r in range(r0, r1) if kind[r] == KIND_PO]
    num_inputs = len(pi_rows)
    exhaustive = num_inputs <= EXHAUSTIVE_LIMIT
    if exhaustive:
        words, width = exhaustive_words(num_inputs)
    else:
        words, width = random_words(num_inputs, num_vectors, seed), num_vectors
    mask = (1 << width) - 1

    values = [0] * (r1 - r0)
    for position, r in enumerate(pi_rows):
        values[r - r0] = words[position] & mask
    fanin_start = batch.fanin_start
    fanin_row = batch.fanin_row
    for r in state.order:
        k = kind[r]
        if k == KIND_PI:
            continue
        f0 = fanin_start[r]
        if k == KIND_PO or k == KIND_BUF or k == KIND_FANOUT:
            values[r - r0] = values[fanin_row[f0] - r0]
            continue
        if k == KIND_NOT:
            values[r - r0] = values[fanin_row[f0] - r0] ^ mask
            continue
        if k == KIND_CONST0:
            values[r - r0] = 0
            continue
        if k == KIND_CONST1:
            values[r - r0] = mask
            continue
        a = values[fanin_row[f0] - r0]
        b = values[fanin_row[f0 + 1] - r0]
        if k == KIND_AND:
            word = a & b
        elif k == KIND_NAND:
            word = (a & b) ^ mask
        elif k == KIND_OR:
            word = a | b
        elif k == KIND_NOR:
            word = (a | b) ^ mask
        elif k == KIND_XOR:
            word = a ^ b
        elif k == KIND_XNOR:
            word = (a ^ b) ^ mask
        else:
            c = values[fanin_row[f0 + 2] - r0]
            if k == KIND_MAJ:
                word = (a & b) | (a & c) | (b & c)
            elif k == KIND_MUX:
                word = (a & b) | ((a ^ mask) & c)
            else:  # pragma: no cover - KIND_ORDER is exhaustive
                raise ValueError(f"unknown gate kind {k}")
        values[r - r0] = word

    signature = [values[r - r0] for r in po_rows]
    if exhaustive:
        return tuple(signature)
    return (width, *signature)


# ---------------------------------------------------------------------------
# Combined per-layout analysis
# ---------------------------------------------------------------------------


def analyze_layout(
    batch: LayoutBatch,
    index: int,
    max_fanout: int = DEFAULT_MAX_FANOUT,
    with_signature: bool = False,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    seed: int = DEFAULT_SEED,
) -> LayoutAnalysis:
    """Metrics + DRC (+ optional signature) sharing one derived state."""
    state = LayoutState(batch, index)
    metrics = layout_metrics(batch, index, state)
    drc = layout_drc(batch, index, state, max_fanout)
    signature = None
    if with_signature and drc.ok:
        signature = layout_signature(batch, index, state, num_vectors, seed)
    kinds = batch.kind[state.r0 : state.r1]
    return LayoutAnalysis(
        metrics=metrics,
        drc=drc,
        signature=signature,
        num_pis=kinds.count(KIND_PI),
        num_pos=kinds.count(KIND_PO),
    )


def analyze_batch(
    batch: LayoutBatch,
    max_fanout: int = DEFAULT_MAX_FANOUT,
    with_signatures: bool = False,
    num_vectors: int = DEFAULT_NUM_VECTORS,
    seed: int = DEFAULT_SEED,
) -> list[LayoutAnalysis]:
    """Analyse every layout of the batch."""
    return [
        analyze_layout(
            batch,
            index,
            max_fanout=max_fanout,
            with_signature=with_signatures,
            num_vectors=num_vectors,
            seed=seed,
        )
        for index in range(batch.num_layouts)
    ]
