"""Database sweeps: columnar vs. per-artifact, rankings, verification."""

from repro.analytics import best_pairs, database_info, sweep_database
from repro.core import Selection

from .conftest import per_artifact_sweep


class TestSweepAgreement:
    def test_columnar_matches_per_artifact(self, analytics_db):
        columnar = sweep_database(analytics_db, with_signatures=True)
        reference = per_artifact_sweep(analytics_db, with_signatures=True)
        assert len(columnar) == len(reference) == 6
        for (rec_c, ana_c), (rec_r, ana_r) in zip(columnar, reference):
            assert rec_c is rec_r
            assert ana_c == ana_r


class TestBest:
    def test_ranking_uses_computed_metrics(self, analytics_db):
        best = analytics_db.best()
        # One winner per (suite, name, library).
        keys = [(r.suite, r.name, r.gate_library) for r, _ in best]
        assert len(keys) == len(set(keys)) == 3
        # Each winner has the minimal computed area of its group.
        sweep = sweep_database(analytics_db)
        for record, analysis in best:
            group = [
                a.metrics.area
                for r, a in sweep
                if (r.suite, r.name, r.gate_library)
                == (record.suite, record.name, record.gate_library)
            ]
            assert analysis.metrics.area == min(group)

    def test_ranking_matches_per_artifact(self, analytics_db):
        reference = best_pairs(per_artifact_sweep(analytics_db))
        assert [(r.path, a) for r, a in analytics_db.best()] == [
            (r.path, a) for r, a in reference
        ]

    def test_selection_filter(self, analytics_db):
        best = analytics_db.best(Selection.make(names=["mux21"]))
        assert [r.name for r, _ in best] == ["mux21"]


class TestVerifyAll:
    def test_everything_verifies(self, analytics_db):
        summary = analytics_db.verify_all()
        assert summary.ok
        assert summary.count("ok") == 6
        assert "6 artifact(s): 6 ok" in summary.summary()

    def test_verdicts_match_per_artifact(self, analytics_db, monkeypatch):
        columnar = analytics_db.verify_all()
        monkeypatch.setattr(
            "repro.analytics.engine.sweep_database", per_artifact_sweep
        )
        assert columnar.records == analytics_db.verify_all().records

    def test_missing_spec_reported_not_failed(self, tmp_path):
        from .conftest import build_analytics_db

        db = build_analytics_db(tmp_path)
        (tmp_path / "trindade16" / "xor2.v").unlink()
        summary = db.verify_all()
        assert summary.ok  # no-spec is reported, not failed
        assert summary.count("no-spec") == 2
        assert summary.count("ok") == 4

    def test_wrong_function_flagged_inequivalent(self, tmp_path):
        from repro.core.bench import BenchmarkFile
        from repro.core.selection import AbstractionLevel
        from repro.io.fgl import layout_to_fgl
        from repro.networks.library import xnor2
        from repro.physical_design.ortho import orthogonal_layout

        from .conftest import build_analytics_db

        db = build_analytics_db(tmp_path)
        # A DRC-clean layout registered under the *wrong* function name:
        # the signature check against trindade16/xor2.v must flag it.
        impostor = orthogonal_layout(xnor2()).layout
        relpath = "trindade16/xor2_ONE_2DDWave_impostor.fgl"
        (tmp_path / relpath).write_text(layout_to_fgl(impostor), encoding="utf-8")
        db._records.append(
            BenchmarkFile(
                suite="trindade16",
                name="xor2",
                abstraction_level=AbstractionLevel.GATE_LEVEL,
                path=relpath,
                gate_library="QCA ONE",
                clocking_scheme="2DDWave",
                algorithm="impostor",
            )
        )
        summary = db.verify_all()
        assert not summary.ok
        assert summary.count("inequivalent") == 1
        flagged = [r for r in summary.records if r.status == "inequivalent"]
        assert flagged[0].path == relpath

    def test_drc_failed_artifact(self, tmp_path):
        from repro.core.bench import BenchmarkFile
        from repro.core.selection import AbstractionLevel
        from repro.io.fgl import layout_to_fgl
        from repro.layout import GateLayout, TWODDWAVE, Tile

        from .conftest import build_analytics_db

        db = build_analytics_db(tmp_path)
        broken = GateLayout(5, 5, TWODDWAVE)
        a = broken.create_pi(Tile(1, 1))
        broken.create_wire(Tile(2, 1), a)
        broken.create_wire(Tile(1, 2), a)  # fanout capacity violation
        relpath = "trindade16/broken_ONE_2DDWave_ortho.fgl"
        (tmp_path / relpath).write_text(layout_to_fgl(broken), encoding="utf-8")
        db._records.append(
            BenchmarkFile(
                suite="trindade16",
                name="broken",
                abstraction_level=AbstractionLevel.GATE_LEVEL,
                path=relpath,
                gate_library="QCA ONE",
                clocking_scheme="2DDWave",
                algorithm="ortho",
            )
        )
        summary = db.verify_all()
        assert not summary.ok
        assert summary.count("drc-failed") == 1
        failed = [r for r in summary.records if r.status == "drc-failed"]
        assert failed[0].name == "broken"
        assert failed[0].violations > 0


class TestDatabaseInfo:
    def test_counters(self, analytics_db):
        info = analytics_db.info()
        assert info["records"] == 6
        assert info["gate_level_artifacts"] == 6
        assert info["packed_artifacts"] == 6
        assert info["loose_artifacts"] == 0
        assert info["compression_ratio"] > 1
        assert info["facet_index"]["status"] == "loaded"
        assert not info["facet_index"]["degraded"]
        assert info["fallback_decodes"] == 0
        assert info["layout_totals"]["gates"] > 0

    def test_info_is_engine_function(self, analytics_db):
        assert database_info(analytics_db) == analytics_db.info()
