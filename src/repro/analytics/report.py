"""``mnt-bench report``: Table-I / Figure-1 aggregates from one sweep.

One columnar pass over the database produces

* the **best-layout rows** (area-best artifact per suite × function ×
  gate library, ranked on *computed* metrics, not recorded metadata),
* the **aggregate rows** the Figure 1 facets expose (count, minimum and
  mean area per suite × clocking scheme × gate library × algorithm),
* the paper-style **Table I rendering** via
  :func:`repro.core.table.database_table_rows` /
  :func:`repro.core.table.format_table` — byte-identical to the report
  the per-artifact object path yields (the golden test in
  ``tests/analytics/test_report.py`` asserts it).

Renderers: :meth:`AnalyticsReport.to_markdown`, ``to_csv`` and
``to_json``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from ..core.table import database_table_rows, format_table
from .engine import best_pairs, gate_level_records, sweep_database


def algorithm_label(record) -> str:
    """Paper-style Algorithm column: base algorithm + optimisations."""
    parts = [record.algorithm or "", *record.optimizations]
    return ", ".join(part for part in parts if part)


@dataclass(frozen=True)
class ReportRow:
    """One best-layout line of the report."""

    suite: str
    name: str
    gate_library: str
    clocking_scheme: str
    algorithm: str
    path: str
    num_inputs: int
    num_outputs: int
    width: int | None
    height: int | None
    area: int | None
    num_gates: int | None
    num_wires: int | None
    num_crossings: int | None
    critical_path: int | None
    throughput: int | None
    drc_violations: int
    drc_warnings: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class AggregateRow:
    """One suite × scheme × library × algorithm aggregate."""

    suite: str
    clocking_scheme: str
    gate_library: str
    algorithm: str
    count: int
    min_area: int | None
    mean_area: float | None

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class AnalyticsReport:
    """The full report: best rows, aggregates, Table I renderings."""

    num_artifacts: int
    rows: tuple[ReportRow, ...]
    aggregates: tuple[AggregateRow, ...]
    #: gate library → paper-style Table I text (``format_table``).
    tables: dict

    # -- renderers ----------------------------------------------------------

    def to_markdown(self) -> str:
        lines = [
            "# MNT Bench report",
            "",
            "- engine: `columnar`",
            f"- gate-level artifacts analysed: {self.num_artifacts}",
            "",
            "## Best layouts (computed metrics)",
            "",
            "| suite | name | library | scheme | algorithm | W×H | area "
            "| gates | wires | cross | CP | TP | DRC |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for row in self.rows:
            dims = (
                f"{row.width}×{row.height}" if row.area is not None else "—"
            )
            drc = (
                "ok"
                if row.drc_violations == 0
                else f"{row.drc_violations} violation(s)"
            )
            lines.append(
                f"| {row.suite} | {row.name} | {row.gate_library} "
                f"| {row.clocking_scheme} | {row.algorithm} | {dims} "
                f"| {_cell(row.area)} | {_cell(row.num_gates)} "
                f"| {_cell(row.num_wires)} | {_cell(row.num_crossings)} "
                f"| {_cell(row.critical_path)} | {_cell(row.throughput)} "
                f"| {drc} |"
            )
        lines += [
            "",
            "## Aggregates (suite × scheme × library × algorithm)",
            "",
            "| suite | scheme | library | algorithm | layouts | min area | mean area |",
            "|---|---|---|---|---|---|---|",
        ]
        for agg in self.aggregates:
            mean = f"{agg.mean_area:.1f}" if agg.mean_area is not None else "—"
            lines.append(
                f"| {agg.suite} | {agg.clocking_scheme} | {agg.gate_library} "
                f"| {agg.algorithm} | {agg.count} | {_cell(agg.min_area)} "
                f"| {mean} |"
            )
        for library, text in sorted(self.tables.items()):
            lines += ["", f"## Table I — {library}", "", "```", text, "```"]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """One flat CSV; the ``section`` column separates best-layout
        rows from aggregate rows."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            [
                "section", "suite", "name", "gate_library", "clocking_scheme",
                "algorithm", "path", "num_inputs", "num_outputs", "width",
                "height", "area", "num_gates", "num_wires", "num_crossings",
                "critical_path", "throughput", "drc_violations",
                "drc_warnings", "count", "min_area", "mean_area",
            ]
        )
        for row in self.rows:
            writer.writerow(
                [
                    "best", row.suite, row.name, row.gate_library,
                    row.clocking_scheme, row.algorithm, row.path,
                    row.num_inputs, row.num_outputs, row.width, row.height,
                    row.area, row.num_gates, row.num_wires,
                    row.num_crossings, row.critical_path, row.throughput,
                    row.drc_violations, row.drc_warnings, "", "", "",
                ]
            )
        for agg in self.aggregates:
            writer.writerow(
                [
                    "aggregate", agg.suite, "", agg.gate_library,
                    agg.clocking_scheme, agg.algorithm, "", "", "", "", "",
                    "", "", "", "", "", "", "", "", agg.count, agg.min_area,
                    agg.mean_area,
                ]
            )
        return buffer.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "engine": "columnar",
                "num_artifacts": self.num_artifacts,
                "best": [row.to_json() for row in self.rows],
                "aggregates": [agg.to_json() for agg in self.aggregates],
                "tables": self.tables,
            },
            indent=2,
        )

    def render(self, fmt: str) -> str:
        renderers = {
            "markdown": self.to_markdown,
            "md": self.to_markdown,
            "csv": self.to_csv,
            "json": self.to_json,
        }
        if fmt not in renderers:
            raise ValueError(
                f"unknown report format {fmt!r}; choose from markdown/csv/json"
            )
        return renderers[fmt]()


def _cell(value) -> str:
    return "—" if value is None else str(value)


def build_report(db, selection=None) -> AnalyticsReport:
    """Sweep the database once and assemble the full report."""
    records = gate_level_records(db, selection)
    pairs = sweep_database(db, records)

    rows = tuple(
        _report_row(record, analysis) for record, analysis in best_pairs(pairs)
    )

    groups: dict[tuple, list] = {}
    for record, analysis in pairs:
        key = (
            record.suite,
            record.clocking_scheme or "",
            record.gate_library or "",
            algorithm_label(record),
        )
        groups.setdefault(key, []).append(analysis)
    aggregates = []
    for key in sorted(groups):
        analyses = groups[key]
        areas = [a.metrics.area for a in analyses if a.metrics is not None]
        aggregates.append(
            AggregateRow(
                suite=key[0],
                clocking_scheme=key[1],
                gate_library=key[2],
                algorithm=key[3],
                count=len(analyses),
                min_area=min(areas) if areas else None,
                mean_area=round(sum(areas) / len(areas), 2) if areas else None,
            )
        )

    libraries = sorted({record.gate_library or "" for record in records})
    tables = {
        library: format_table(
            database_table_rows(db, library, selection=selection, pairs=pairs),
            library,
        )
        for library in libraries
    }
    return AnalyticsReport(
        num_artifacts=len(records),
        rows=rows,
        aggregates=tuple(aggregates),
        tables=tables,
    )


def _report_row(record, analysis) -> ReportRow:
    metrics = analysis.metrics
    return ReportRow(
        suite=record.suite,
        name=record.name,
        gate_library=record.gate_library or "",
        clocking_scheme=record.clocking_scheme or "",
        algorithm=algorithm_label(record),
        path=record.path,
        num_inputs=analysis.num_pis,
        num_outputs=analysis.num_pos,
        width=metrics.width if metrics else None,
        height=metrics.height if metrics else None,
        area=metrics.area if metrics else None,
        num_gates=metrics.num_gates if metrics else None,
        num_wires=metrics.num_wires if metrics else None,
        num_crossings=metrics.num_crossings if metrics else None,
        critical_path=metrics.critical_path if metrics else None,
        throughput=metrics.throughput if metrics else None,
        drc_violations=analysis.drc.violations,
        drc_warnings=analysis.drc.warnings,
    )
