"""``mnt-bench report``/``info`` and the golden per-artifact parity test."""

import csv
import io
import json

import pytest

from repro.analytics import build_report
from repro.cli import main
from repro.core import database_table_rows, format_table

from .conftest import per_artifact_sweep


class TestGoldenPerArtifactParity:
    """The acceptance gate: the columnar report must match the one the
    per-artifact object path yields byte for byte — same rows, same
    aggregates, same Table I rendering."""

    def test_table_rows_byte_identical(self, analytics_db):
        columnar = format_table(
            database_table_rows(analytics_db, "QCA ONE"), "QCA ONE"
        )
        reference = format_table(
            database_table_rows(
                analytics_db, "QCA ONE", pairs=per_artifact_sweep(analytics_db)
            ),
            "QCA ONE",
        )
        assert columnar == reference
        assert "mux21" in columnar and "xor2" in columnar

    def test_report_renderings_byte_identical(self, analytics_db, monkeypatch):
        columnar = build_report(analytics_db)
        monkeypatch.setattr(
            "repro.analytics.report.sweep_database", per_artifact_sweep
        )
        reference = build_report(analytics_db)
        assert columnar.rows == reference.rows
        assert columnar.aggregates == reference.aggregates
        assert columnar.tables == reference.tables
        for fmt in ("markdown", "csv", "json"):
            assert columnar.render(fmt) == reference.render(fmt)

    def test_table_rows_match_recorded_metadata(self, analytics_db):
        # The fabricated records carry the true width/height/area, so
        # computed metrics must reproduce them exactly.
        by_path = {r.path: r for r in analytics_db.files()}
        report = build_report(analytics_db)
        for row in report.rows:
            record = by_path[row.path]
            assert (row.width, row.height, row.area) == (
                record.width,
                record.height,
                record.area,
            )


class TestReportContent:
    def test_aggregates_cover_every_group(self, analytics_db):
        report = build_report(analytics_db)
        assert report.num_artifacts == 6
        labels = {(a.algorithm, a.count) for a in report.aggregates}
        assert labels == {("ortho", 3), ("ortho, PLO", 3)}
        for aggregate in report.aggregates:
            assert aggregate.min_area is not None
            assert aggregate.mean_area >= aggregate.min_area

    def test_csv_sections(self, analytics_db):
        text = build_report(analytics_db).to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        sections = {row["section"] for row in rows}
        assert sections == {"best", "aggregate"}
        assert sum(row["section"] == "best" for row in rows) == 3

    def test_json_roundtrips(self, analytics_db):
        payload = json.loads(build_report(analytics_db).to_json())
        assert payload["engine"] == "columnar"
        assert len(payload["best"]) == 3
        assert "QCA ONE" in payload["tables"]

    def test_unknown_format_raises(self, analytics_db):
        with pytest.raises(ValueError, match="unknown report format"):
            build_report(analytics_db).render("yaml")


class TestCli:
    def test_report_markdown(self, analytics_db, capsys):
        assert main(["report", "--database", str(analytics_db.root)]) == 0
        out = capsys.readouterr().out
        assert "# MNT Bench report" in out
        assert "mux21" in out
        assert "Table I — QCA ONE" in out

    def test_report_json_to_file(self, analytics_db, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            [
                "report", "--database", str(analytics_db.root),
                "--format", "json", "--output", str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["engine"] == "columnar"
        assert "written to" in capsys.readouterr().out

    def test_report_name_filter(self, analytics_db, capsys):
        code = main(
            [
                "report", "--database", str(analytics_db.root),
                "--benchmark", "trindade16/xor2", "--format", "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xor2" in out
        assert "mux21" not in out

    @pytest.mark.parametrize(
        "argv",
        [["report", "--engine", "columnar"], ["verify", "--engine", "reference"],
         ["info", "--backend", "numpy"]],
    )
    def test_retired_analytics_flags_rejected(self, analytics_db, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--database", str(analytics_db.root)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_info_text(self, analytics_db, capsys):
        assert main(["info", "--database", str(analytics_db.root)]) == 0
        out = capsys.readouterr().out
        assert "records:  6" in out
        assert "6/6 gate-level artifact(s) packed" in out
        assert "facets:   loaded" in out
        assert "fallback decode(s)" in out

    def test_info_json(self, analytics_db, capsys):
        assert main(["info", "--database", str(analytics_db.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate_level_artifacts"] == 6
        assert payload["facet_index"]["degraded"] is False
        assert payload["backend"] == "numpy"

    def test_verify_ok(self, analytics_db, capsys):
        assert main(["verify", "--database", str(analytics_db.root)]) == 0
        out = capsys.readouterr().out
        assert "6 ok" in out

    def test_verify_verbose_lists_artifacts(self, analytics_db, capsys):
        code = main(
            ["verify", "--database", str(analytics_db.root), "--verbose"]
        )
        assert code == 0
        assert out_count(capsys.readouterr().out, ".fgl") == 6


def out_count(text: str, needle: str) -> int:
    return sum(needle in line for line in text.splitlines())
