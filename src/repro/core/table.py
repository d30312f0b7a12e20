"""Table I generation: paper-style rows with ΔA and paper comparison.

For every benchmark function and gate library, a row reports the
interface (*I/O*), node count (*N*), the winning layout's dimensions and
area, its runtime, the algorithm combination and clocking scheme, and
ΔA — the area reduction the optimal tool combination achieves over the
single-tool baseline (plain ortho for QCA ONE; plain ortho + 45° for
Bestagon), which is the "previous state of the art" the paper measures
against.  The paper's own values are attached where Table I lists them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..benchsuite.registry import BenchmarkSpec
from ..networks.logic_network import LogicNetwork
from ..optimization.hexagonalization import to_hexagonal
from ..physical_design.ortho import OrthoError, OrthoParams, orthogonal_layout
from .best import BESTAGON, QCA_ONE, BestParams, BestResult, best_layout
from .paper_data import PaperEntry, paper_entry


@dataclass
class TableRow:
    """One rendered row of the reproduction's Table I."""

    suite: str
    name: str
    num_inputs: int
    num_outputs: int
    num_nodes: int
    reported_nodes: int
    library: str
    width: int | None
    height: int | None
    area: int | None
    runtime_seconds: float | None
    algorithm: str | None
    scheme: str | None
    baseline_area: int | None
    paper: PaperEntry | None

    @property
    def delta_area_percent(self) -> float | None:
        """Measured ΔA versus the single-tool baseline."""
        if self.area is None or not self.baseline_area:
            return None
        return 100.0 * (self.area / self.baseline_area - 1.0)

    def format(self) -> str:
        io = f"{self.num_inputs}/{self.num_outputs}"
        if self.area is None:
            body = "—  (no verified layout)"
        else:
            delta = self.delta_area_percent
            delta_text = f"{delta:+7.1f}%" if delta is not None else "     — "
            runtime = (
                "<1" if (self.runtime_seconds or 0) < 1 else f"{self.runtime_seconds:.0f}"
            )
            body = (
                f"{self.width:>5} x {self.height:<5} = {self.area:<9} t={runtime:>4s} "
                f"{(self.algorithm or ''):<30.30s} {(self.scheme or ''):<8s} ΔA={delta_text}"
            )
        paper_text = ""
        if self.paper is not None:
            paper_text = f" | paper: A={self.paper.area} ({self.paper.algorithm}, {self.paper.scheme})"
        return (
            f"{self.suite:<11s} {self.name:<14s} {io:>8s} N={self.num_nodes:<5d} "
            f"{body}{paper_text}"
        )


def baseline_area(network: LogicNetwork, library: str) -> int | None:
    """Area of the single-tool baseline flow (plain ortho [+ 45°])."""
    try:
        result = orthogonal_layout(
            network, OrthoParams(keep_two_input=library == BESTAGON)
        )
    except OrthoError:
        return None
    layout = result.layout
    if library == BESTAGON:
        layout = to_hexagonal(layout).layout
    width, height = layout.bounding_box()
    return width * height


def table_row(
    spec: BenchmarkSpec,
    library: str = QCA_ONE,
    params: BestParams | None = None,
    node_cap: int | None = None,
) -> tuple[TableRow, BestResult]:
    """Run the portfolio for one benchmark and render its row."""
    network = spec.build(node_cap)
    base = baseline_area(network, library)
    result = best_layout(network, library, params)
    paper = paper_entry(spec.suite, spec.name, library)
    if result.winner is None:
        row = TableRow(
            spec.suite, spec.name, network.num_pis(), network.num_pos(),
            network.num_gates(), spec.reported_nodes, library,
            None, None, None, None, None, None, base, paper,
        )
        return row, result
    winner = result.winner
    row = TableRow(
        suite=spec.suite,
        name=spec.name,
        num_inputs=network.num_pis(),
        num_outputs=network.num_pos(),
        num_nodes=network.num_gates(),
        reported_nodes=spec.reported_nodes,
        library=library,
        width=winner.metrics.width,
        height=winner.metrics.height,
        area=winner.metrics.area,
        runtime_seconds=winner.runtime_seconds,
        algorithm=winner.algorithm_label,
        scheme=winner.scheme,
        baseline_area=base,
        paper=paper,
    )
    return row, result


def database_table_rows(
    db,
    library: str = QCA_ONE,
    selection=None,
    pairs=None,
) -> list[TableRow]:
    """Table I rows straight from a benchmark database.

    Instead of re-running the portfolio (:func:`table_row`), the rows
    tabulate the artifacts already in the database: one columnar sweep
    computes every metric, the area-best artifact per function wins, and
    the interface counts come from the decoded layouts themselves.  Pass
    ``pairs`` to reuse an existing
    :func:`repro.analytics.engine.sweep_database` result.
    """
    from ..analytics.engine import best_pairs, gate_level_records, sweep_database

    if pairs is None:
        records = gate_level_records(db, selection)
        pairs = sweep_database(db, records)
    rows = []
    for record, analysis in best_pairs(pairs):
        if (record.gate_library or "") != library:
            continue
        metrics = analysis.metrics
        algorithm = ", ".join(
            part for part in (record.algorithm or "", *record.optimizations) if part
        )
        rows.append(
            TableRow(
                suite=record.suite,
                name=record.name,
                num_inputs=analysis.num_pis,
                num_outputs=analysis.num_pos,
                num_nodes=metrics.num_gates if metrics else 0,
                reported_nodes=metrics.num_gates if metrics else 0,
                library=library,
                width=metrics.width if metrics else None,
                height=metrics.height if metrics else None,
                area=metrics.area if metrics else None,
                runtime_seconds=record.runtime_seconds,
                algorithm=algorithm or None,
                scheme=record.clocking_scheme,
                baseline_area=None,
                paper=paper_entry(record.suite, record.name, library),
            )
        )
    return rows


def format_table(rows: list[TableRow], library: str) -> str:
    """Render rows in the paper's layout, grouped by suite."""
    lines = [
        f"Most efficient layouts w.r.t. area — {library} gate library",
        "=" * 100,
    ]
    current_suite = None
    for row in rows:
        if row.suite != current_suite:
            current_suite = row.suite
            lines.append(f"--- {current_suite} " + "-" * (96 - len(current_suite)))
        lines.append(row.format())
    return "\n".join(lines)
