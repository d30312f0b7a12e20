"""Table I: paper reference data, and rows tabulated from a database.

``generate`` + ``optimize`` run the tool portfolio into a database and
``database_table_rows`` picks each function's area-best artifact;
``mnt-bench best`` is that same sequence on a temporary database.

Exact search and NanoPlaceR end on wall-clock budgets, so :data:`GATED`
switches them off and gives InOrd and PLO budgets they never reach,
which makes every remaining flow deterministic.
"""

import re

import pytest

import repro.core
from repro.benchsuite import get_benchmark
from repro.cli import main
from repro.core import (
    BESTAGON,
    BESTAGON_TABLE,
    QCA_ONE,
    QCA_ONE_TABLE,
    BenchmarkDatabase,
    GenerationParams,
    database_table_rows,
    format_table,
    paper_entry,
)
from repro.gatelibs import apply_gate_library
from repro.io.sqd import sidb_layout_to_sqd
from repro.layout import Topology, check_layout, layout_equivalent

SPECS = ["trindade16/mux21", "trindade16/xor2", "trindade16/full_adder", "fontes18/t"]

#: Forced onto every ``GenerationParams`` the CLI builds in this module.
GATED = dict(
    exact_max_elements=0,
    nanoplacer_max_gates=0,
    inord_timeout=120.0,
    plo_timeout=120.0,
    reproducible=True,
)


class TestPaperData:
    def test_tables_cover_all_benchmarks(self):
        assert len(QCA_ONE_TABLE) == 40
        assert len(BESTAGON_TABLE) == 40

    def test_lookup(self):
        entry = paper_entry("trindade16", "mux21", QCA_ONE)
        assert entry is not None
        assert entry.area == 12
        assert entry.algorithm == "exact"

    def test_bestagon_lookup(self):
        entry = paper_entry("trindade16", "mux21", BESTAGON)
        assert entry.scheme == "ROW"

    def test_missing_entry(self):
        assert paper_entry("trindade16", "ghost", QCA_ONE) is None

    def test_dimensions_consistent_where_given(self):
        for entry in QCA_ONE_TABLE + BESTAGON_TABLE:
            if entry.width is not None and entry.height is not None:
                assert entry.width * entry.height == entry.area, entry

    def test_bestagon_always_row(self):
        assert all(e.scheme == "ROW" for e in BESTAGON_TABLE)

    def test_exact_only_on_small_functions(self):
        for entry in QCA_ONE_TABLE:
            if entry.suite in ("iscas85", "epfl") and entry.name != "c17":
                assert "ortho" in entry.algorithm or "NPR" in entry.algorithm


@pytest.fixture(scope="module")
def gated_cli():
    """The CLI with exact search and NanoPlaceR gated off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.core,
            "GenerationParams",
            lambda **kwargs: GenerationParams(**{**kwargs, **GATED}),
        )
        yield main


@pytest.fixture(scope="module")
def database(gated_cli, tmp_path_factory):
    root = tmp_path_factory.mktemp("table1_db")
    benchmarks = [arg for spec in SPECS for arg in ("--benchmark", spec)]
    assert gated_cli(["generate", "--database", str(root), "--quiet", *benchmarks]) == 0
    assert gated_cli(["optimize", "--database", str(root)]) == 0
    return BenchmarkDatabase(root)


def _rows(db):
    return {
        (row.library, f"{row.suite}/{row.name}"): row
        for library in (QCA_ONE, BESTAGON)
        for row in database_table_rows(db, library)
    }


def _table_lines(text: str, spec: str) -> list[str]:
    suite, name = spec.split("/")
    return [line for line in text.splitlines() if line.startswith(f"{suite:<11s} {name} ")]


class TestBaseline:
    def test_baseline_areas(self, database):
        # ΔA's baseline is the library's plain ortho artifact: no
        # optimization on 2DDWave for QCA ONE, 45° alone for Bestagon.
        plain = {QCA_ONE: ((), "2DDWave"), BESTAGON: (("45°",), "ROW")}
        areas = {
            (record.gate_library, f"{record.suite}/{record.name}"): record.area
            for record in database.files()
            if record.algorithm == "ortho"
            and (record.optimizations, record.clocking_scheme) == plain[record.gate_library]
        }
        rows = _rows(database)
        assert set(areas) == set(rows)
        for key, row in rows.items():
            assert row.ortho_area == areas[key] > 0, key


class TestAlgorithmLabels:
    def test_label_format(self, database):
        # The label names the winner's algorithm, then its optimizations
        # in the order they ran.
        rows = _rows(database)
        winners = {
            (record.gate_library, f"{record.suite}/{record.name}"): record
            for record, _ in database.best()
        }
        assert set(winners) == set(rows)
        for key, row in rows.items():
            record = winners[key]
            assert row.algorithm == ", ".join((record.algorithm, *record.optimizations))
            assert row.scheme == record.clocking_scheme


class TestDatabaseRows:
    def test_every_function_has_a_row_per_library(self, database):
        assert set(_rows(database)) == {
            (library, spec) for library in (QCA_ONE, BESTAGON) for spec in SPECS
        }

    def test_delta_area_never_positive(self, database):
        # The plain ortho artifact is itself a candidate.
        for row in _rows(database).values():
            assert row.ortho_area and row.ortho_area > 0
            assert row.delta_area_percent is not None
            assert row.delta_area_percent <= 0, row.format()

    def test_winner_is_the_minimum_over_candidates(self, database):
        rows = _rows(database)
        for record in database.files():
            if record.area is not None:
                row = rows[(record.gate_library, f"{record.suite}/{record.name}")]
                assert row.area <= record.area, record.path

    def test_every_artifact_verifies(self, database, gated_cli):
        assert gated_cli(["verify", "--database", str(database.root)]) == 0
        for record in database.files():
            if record.area is not None:
                network = get_benchmark(record.suite, record.name).build()
                layout = database.load_layout(record)
                assert check_layout(layout).ok, record.path
                assert layout_equivalent(layout, network).equivalent, record.path

    def test_bestagon_artifacts_are_row_clocked_45_degree_images(self, database):
        libraries = set()
        for record in database.files():
            if record.area is None:
                continue
            libraries.add(record.gate_library)
            layout = database.load_layout(record)
            if record.gate_library == QCA_ONE:
                assert layout.topology is Topology.CARTESIAN
                continue
            assert record.clocking_scheme == "ROW"
            assert "45°" in record.optimizations
            assert layout.topology is Topology.HEXAGONAL_EVEN_ROW
            assert sidb_layout_to_sqd(apply_gate_library(layout, BESTAGON))
        assert libraries == {QCA_ONE, BESTAGON}

    def test_t_bestagon_places_native_two_input_gates(self, database):
        # 196 tiles on the AOIG decomposition; the paper reports 44.  The
        # benchmark's built network reaches 80: one dangling node, which
        # no layout keeps, shifts InOrd's structure-derived PI order.
        # The database places the network parsed back from its Verilog.
        row = _rows(database)[(BESTAGON, "fontes18/t")]
        assert row.area == 84
        assert row.algorithm == "ortho, InOrd (SDN), PLO, 45°"

    def test_row_format(self, database):
        row = _rows(database)[(QCA_ONE, "trindade16/mux21")]
        assert row.area == row.width * row.height
        assert (row.num_inputs, row.num_outputs) == (3, 1)
        text = row.format()
        assert "mux21" in text and "3/1" in text and "paper" in text
        table = format_table([row], QCA_ONE)
        assert "QCA ONE" in table and "trindade16" in table


@pytest.mark.parametrize("library", [QCA_ONE, BESTAGON])
def test_best_prints_the_report_row(database, gated_cli, capsys, library):
    assert gated_cli(
        ["report", "--database", str(database.root), "--library", library]
    ) == 0
    report = capsys.readouterr().out
    for spec in SPECS:
        assert gated_cli(["best", spec, "--library", library]) == 0
        best = capsys.readouterr().out
        assert _table_lines(best, spec) == _table_lines(report, spec), spec
        (line,) = _table_lines(best, spec)
        delta = re.search(r"ΔA=\s*([+-]\d+\.\d)%", line)
        assert delta and float(delta.group(1)) <= 0, line


def test_exact_wins_mux21(tmp_path):
    # Table I: exact gives the area-best QCA ONE mux21, 3 x 4 = 12 tiles
    # (ortho + InOrd + PLO ties it here and wins the tie on wires).
    db = BenchmarkDatabase(tmp_path)
    params = GenerationParams(nanoplacer_max_gates=0, exact_timeout=30.0)
    db.generate([get_benchmark("trindade16", "mux21")], libraries=(QCA_ONE,), params=params)
    db.optimize(params=params)
    (row,) = database_table_rows(db, QCA_ONE)
    exact = [r.area for r in db.files() if r.algorithm == "exact"]
    assert row.area == min(exact) == 12
