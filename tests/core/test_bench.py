"""Tests for the benchmark database (generation, index, query)."""

import json

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase, GenerationParams, Selection
from repro.core.selection import AbstractionLevel
from repro.networks import check_equivalence, read_verilog

FAST = GenerationParams(
    exact_timeout=6.0,
    exact_ratio_timeout=0.8,
    nanoplacer_timeout=1.5,
    inord_evaluations=3,
    inord_timeout=8.0,
    plo_timeout=6.0,
    node_cap=60,
)


@pytest.fixture(scope="module")
def populated_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("db")
    db = BenchmarkDatabase(root)
    db.generate([get_benchmark("trindade16", "mux21")], params=FAST)
    return db


class TestGeneration:
    def test_network_artifact_written(self, populated_db):
        networks = [
            r for r in populated_db.files()
            if r.abstraction_level is AbstractionLevel.NETWORK
        ]
        assert len(networks) == 1
        loaded = read_verilog(populated_db.root / networks[0].path)
        spec = get_benchmark("trindade16", "mux21").build()
        assert check_equivalence(spec, loaded).equivalent

    def test_gate_level_artifacts_written(self, populated_db):
        layouts = [
            r for r in populated_db.files()
            if r.abstraction_level is AbstractionLevel.GATE_LEVEL
        ]
        assert len(layouts) >= 4
        for record in layouts:
            assert (populated_db.root / record.path).exists()
            assert record.area == record.width * record.height

    def test_both_libraries_covered(self, populated_db):
        libraries = {r.gate_library for r in populated_db.files() if r.gate_library}
        assert libraries == {"QCA ONE", "Bestagon"}

    def test_layouts_functionally_correct(self, populated_db):
        spec = get_benchmark("trindade16", "mux21").build()
        for record in populated_db.files():
            if record.abstraction_level is AbstractionLevel.GATE_LEVEL:
                layout = populated_db.load_layout(record)
                assert check_equivalence(spec, layout.extract_network()).equivalent

    def test_index_persisted(self, populated_db):
        index = json.loads((populated_db.root / "index.json").read_text())
        assert len(index["files"]) == len(populated_db.files())

    def test_reload_from_disk(self, populated_db):
        reloaded = BenchmarkDatabase(populated_db.root)
        assert len(reloaded.files()) == len(populated_db.files())


class TestQuery:
    def test_algorithm_filter(self, populated_db):
        hits = populated_db.query(Selection.make(algorithms=["exact"]))
        assert hits
        assert all(r.algorithm == "exact" for r in hits)

    def test_best_only_one_per_library(self, populated_db):
        hits = populated_db.query(Selection.make(best_only=True))
        keys = [(r.suite, r.name, r.gate_library) for r in hits]
        assert len(keys) == len(set(keys))
        assert len(hits) == 2  # one per gate library

    def test_best_is_minimal(self, populated_db):
        best = populated_db.query(
            Selection.make(best_only=True, gate_libraries=["qca one"])
        )[0]
        all_qca = populated_db.query(Selection.make(gate_libraries=["qca one"]))
        assert best.area == min(r.area for r in all_qca)


class TestBestOnlyRanking:
    """``area == 0`` is a legitimate value and must rank best, while
    ``None`` means missing and must rank last (regression for the old
    ``record.area or 1 << 60`` sentinel)."""

    @staticmethod
    def _db_with_areas(tmp_path, areas):
        from repro.core.bench import BenchmarkFile

        db = BenchmarkDatabase(tmp_path)
        for i, area in enumerate(areas):
            db._records.append(
                BenchmarkFile(
                    suite="t",
                    name="f",
                    abstraction_level=AbstractionLevel.GATE_LEVEL,
                    path=f"t/f_{i}.fgl",
                    gate_library="QCA ONE",
                    clocking_scheme="2DDWave",
                    algorithm=f"alg{i}",
                    width=area,
                    height=1 if area is not None else None,
                    area=area,
                )
            )
        return db

    def test_zero_area_beats_positive(self, tmp_path):
        db = self._db_with_areas(tmp_path, [12, 0, 7])
        best = db.query(Selection.make(best_only=True))
        assert len(best) == 1
        assert best[0].area == 0

    def test_none_area_ranks_last(self, tmp_path):
        db = self._db_with_areas(tmp_path, [None, 9])
        best = db.query(Selection.make(best_only=True))
        assert best[0].area == 9
        everything = db.query(Selection.make())
        assert [r.area for r in everything] == [9, None]

    def test_all_none_still_returns_one(self, tmp_path):
        db = self._db_with_areas(tmp_path, [None, None])
        best = db.query(Selection.make(best_only=True))
        assert len(best) == 1


class TestGenerationReporting:
    def test_generate_returns_outcome_with_report(self, populated_db):
        # the module fixture ran generate(); re-run hits the flow cache
        outcome = populated_db.generate(
            [get_benchmark("trindade16", "mux21")], params=FAST
        )
        assert outcome.report.executed_flows == 0
        assert outcome.report.skipped_cached > 0
        assert len(outcome) == len(populated_db.files())


class TestFileNames:
    def test_naming_convention(self):
        name = BenchmarkDatabase.file_name(
            "mux21", "QCA ONE", "2DDWave", "ortho", ("InOrd (SDN)", "PLO")
        )
        assert name == "mux21_ONE_2DDWave_ortho_inord_plo.fgl"

    def test_bestagon_45(self):
        name = BenchmarkDatabase.file_name("c432", "Bestagon", "ROW", "ortho", ("45°",))
        assert name == "c432_Bestagon_ROW_ortho_45deg.fgl"


#: Deterministic flows only (exact and NanoPlaceR gated off by scale).
ORTHO_ONLY = GenerationParams(
    exact_max_elements=0,
    nanoplacer_max_gates=0,
    inord_evaluations=3,
    inord_timeout=120.0,
    plo_timeout=120.0,
    node_cap=60,
    reproducible=True,
)


class TestOrthoFamily:
    """``ortho_opt`` emits the plain ortho layout from InOrd's identity
    evaluation, preparing the network once."""

    def test_one_preparation_and_one_placement_per_evaluation(self, monkeypatch):
        import importlib

        import repro.core.bench as bench
        from repro.networks import network_to_verilog

        # The package re-exports a function under the submodule's name.
        inord_module = importlib.import_module("repro.optimization.input_ordering")
        ortho_module = importlib.import_module("repro.physical_design.ortho")

        calls = {"inord_prepare": 0, "ortho_prepare": 0, "place": 0}

        def counting(name, function):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(inord_module, "prepare_for_layout",
                            counting("inord_prepare", inord_module.prepare_for_layout))
        monkeypatch.setattr(ortho_module, "prepare_for_layout",
                            counting("ortho_prepare", ortho_module.prepare_for_layout))
        monkeypatch.setattr(inord_module, "place_prepared",
                            counting("place", inord_module.place_prepared))
        network = get_benchmark("trindade16", "full_adder").build()
        task = bench.FlowTask(
            "trindade16", "full_adder", "ortho_opt",
            network_to_verilog(network), ORTHO_ONLY,
        )
        result = bench._execute_flow_task(task)
        assert calls == {
            "inord_prepare": 1,
            "ortho_prepare": 0,
            "place": ORTHO_ONLY.inord_evaluations,
        }
        assert [c.status for c in result.candidates] == ["admitted", "admitted"]
        assert [c.optimizations for c in result.candidates] == [
            (), ("InOrd (SDN)", "PLO"),
        ]

    def test_single_record_ortho_opt_cache_entries_are_served(self, tmp_path):
        """A database written when the plain layout had its own ``ortho``
        task holds one record per ``ortho_opt`` entry; re-generating it
        runs nothing and leaves the index's records as they are."""
        from repro.networks import output_signature

        spec = get_benchmark("trindade16", "mux21")
        db = BenchmarkDatabase(tmp_path)
        db.generate([spec], params=ORTHO_ONLY)
        signature = output_signature(spec.build(ORTHO_ONLY.node_cap))
        for flow, retired in (("ortho_opt", "ortho"), ("hex:ortho_opt", "hex:ortho")):
            entry = db._flow_cache[db._cache_key(signature, flow, ORTHO_ONLY)]
            plain, optimized = entry["records"]
            assert "PLO" not in plain["optimizations"]
            assert "PLO" in optimized["optimizations"]
            entry["records"] = [optimized]
            db._flow_cache[db._cache_key(signature, retired, ORTHO_ONLY)] = {
                **entry, "flow": retired, "records": [plain], "rejections": [],
            }
        db._save_index()
        files_before = json.loads((tmp_path / "index.json").read_text())["files"]

        outcome = BenchmarkDatabase(tmp_path).generate([spec], params=ORTHO_ONLY)
        assert outcome.report.executed_flows == 0
        assert outcome.report.skipped_cached == 4
        files_after = json.loads((tmp_path / "index.json").read_text())["files"]
        assert files_after == files_before

    def test_flow_names_skip_preparation_soundly(self, tmp_path):
        """The interface-size short cut in ``_flow_names`` never changes
        the portfolio: preparation keeps every PI and PO, and the
        topological order lists every PI."""
        from repro.benchsuite import benchmarks_of, suites
        from repro.networks.transforms import decompose_to_aoig, prepare_for_layout

        db = BenchmarkDatabase(tmp_path)
        params = GenerationParams()
        for suite in suites():
            for spec in benchmarks_of(suite):
                network = spec.build(params.node_cap)
                prepared = prepare_for_layout(decompose_to_aoig(network))
                elements = len(prepared.topological_order()) + prepared.num_pos()
                assert elements >= network.num_pis() + network.num_pos()
                small = elements <= params.exact_max_elements
                flows = db._flow_names(network, ("QCA ONE", "Bestagon"), params)
                assert ("exact:2DDWave" in flows) == small, spec.name
                assert ("exact_hex" in flows) == small, spec.name
