"""Table I generation: paper-style rows with ΔA and paper comparison.

For every benchmark function and gate library, a row reports the
interface (*I/O*), node count (*N*), the area-best layout's dimensions
and area, its runtime, the algorithm combination and clocking scheme,
and ΔA — the area reduction the optimal tool combination achieves over
the single-tool baseline (plain ortho for QCA ONE; plain ortho + 45° for
Bestagon), which is the "previous state of the art" the paper measures
against.  The paper's own values are attached where Table I lists them.

The rows tabulate a benchmark database: ``generate`` and ``optimize``
run the tool portfolio, :func:`database_table_rows` picks the area-best
artifact per function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paper_data import PaperEntry, paper_entry

#: Gate library identifiers, matching :mod:`repro.gatelibs`.
QCA_ONE = "QCA ONE"
BESTAGON = "Bestagon"

#: (optimizations, clocking scheme) of each library's plain ortho
#: artifact: the baseline ΔA is measured against.
_PLAIN_ORTHO = {QCA_ONE: ((), "2DDWave"), BESTAGON: (("45°",), "ROW")}


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
    #: Area of the function's plain ortho layout (the ΔA baseline).
    ortho_area: int | None
    paper: PaperEntry | None

    @property
    def delta_area_percent(self) -> float | None:
        """Measured ΔA versus the single-tool baseline."""
        if self.area is None or not self.ortho_area:
            return None
        return 100.0 * (self.area / self.ortho_area - 1.0)

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


def database_table_rows(
    db,
    library: str = QCA_ONE,
    selection=None,
    pairs=None,
) -> list[TableRow]:
    """Table I rows straight from a benchmark database.

    The rows tabulate the artifacts already in the database: one
    columnar sweep computes every metric, the area-best artifact per
    function wins, ΔA compares it with the function's plain ortho
    artifact, and the interface counts come from the decoded layouts
    themselves.  Pass ``pairs`` to reuse an existing
    :func:`repro.analytics.engine.sweep_database` result.
    """
    from ..analytics.engine import best_pairs, gate_level_records, sweep_database

    if pairs is None:
        records = gate_level_records(db, selection)
        pairs = sweep_database(db, records)
    plain = _PLAIN_ORTHO.get(library)
    ortho_areas = {
        (record.suite, record.name): analysis.metrics.area
        for record, analysis in pairs
        if record.gate_library == library
        and record.algorithm == "ortho"
        and (record.optimizations, record.clocking_scheme) == plain
        and analysis.metrics is not None
    }
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
                ortho_area=ortho_areas.get((record.suite, record.name)),
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
