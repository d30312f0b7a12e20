"""Differential tests for the facet-indexed query path.

``BenchmarkDatabase.query`` must be indistinguishable from the retained
linear scan (``_query_linear``) — same objects, same order — across
random record sets and random selections, whether the index was built
in one pass or grown incrementally.  The index lives in memory only:
no ``facets.json`` is written, and one left by an older version is
never read.
"""

import json
import warnings

import pytest

from repro.benchsuite import get_benchmark
from repro.cli import main
from repro.core import BenchmarkDatabase, GenerationParams, Selection
from repro.core.bench import BenchmarkFile
from repro.core.facet_index import FacetIndex, records_digest
from repro.core.selection import AbstractionLevel

SUITES = ("trindade16", "fontes18", "iscas85")
NAMES = ("mux21", "xor2", "full_adder", "c17")
LIBRARIES = ("QCA ONE", "Bestagon")
SCHEMES = ("2DDWave", "USE", "RES", "ESR", "ROW")
ALGORITHMS = ("exact", "ortho", "NPR")
OPTIMIZATIONS = ("PLO", "InOrd (SDN)", "45°")


def random_records(rng, count):
    records = []
    for i in range(count):
        suite = rng.choice(SUITES)
        name = rng.choice(NAMES)
        if rng.random() < 0.2:
            records.append(
                BenchmarkFile(
                    suite=suite,
                    name=name,
                    abstraction_level=AbstractionLevel.NETWORK,
                    path=f"{suite}/{name}_{i}.v",
                )
            )
            continue
        # Small area range on purpose: ties exercise the stable-pick
        # ordering; None and 0 exercise the rank edge cases.
        area = rng.choice([None, 0, rng.randrange(6), rng.randrange(40)])
        records.append(
            BenchmarkFile(
                suite=suite,
                name=name,
                abstraction_level=AbstractionLevel.GATE_LEVEL,
                path=f"{suite}/{name}_{i}.fgl",
                gate_library=rng.choice(LIBRARIES),
                clocking_scheme=rng.choice(SCHEMES),
                algorithm=rng.choice(ALGORITHMS),
                optimizations=tuple(
                    rng.sample(OPTIMIZATIONS, rng.randrange(len(OPTIMIZATIONS) + 1))
                ),
                width=area,
                height=1 if area is not None else None,
                area=area,
            )
        )
    return records


def random_selection(rng):
    def pick(values):
        return tuple(rng.sample(values, rng.randrange(min(3, len(values) + 1))))

    return Selection.make(
        abstraction_levels=pick(("network", "gate-level")),
        gate_libraries=pick(LIBRARIES),
        clocking_schemes=pick(SCHEMES),
        algorithms=pick(ALGORITHMS),
        optimizations=pick(OPTIMIZATIONS),
        suites=pick(SUITES),
        names=pick(NAMES),
        best_only=rng.random() < 0.5,
    )


def old_sidecar(records, shape: str) -> str:
    """A ``facets.json`` as an older version wrote it (version 1: the
    record count and digest it was built from, and every posting bitmap
    as a hex string), broken in the way ``shape`` names."""
    if shape == "garbage":
        return "{not json"
    index = FacetIndex.build(records)
    data = {
        "version": 1,
        "records_digest": records_digest(records),
        "num_records": index.num_records,
        "bitmaps": {
            facet: {value: hex(bits) for value, bits in table.items()}
            for facet, table in index.bitmaps.items()
        },
    }
    if shape == "stale-digest":
        data["records_digest"] = "0" * 64
    elif shape == "stale-count":
        data["num_records"] += 1
    elif shape == "version-mismatch":
        data["version"] = 999
    elif shape == "tampered-bitmaps":
        # Every record claims every suite: read, it would break queries.
        data["bitmaps"]["suite"] = {
            suite.lower(): hex(index.all_mask) for suite in SUITES
        }
    else:
        assert shape == "current-old-format"
    return json.dumps(data)


def assert_identical_results(indexed, linear):
    assert len(indexed) == len(linear)
    for got, expected in zip(indexed, linear):
        assert got is expected  # same objects, same order


class TestDifferential:
    def test_indexed_query_matches_linear(self, tmp_path, rng):
        db = BenchmarkDatabase(tmp_path)
        db._records.extend(random_records(rng, 120))
        for _ in range(200):
            selection = random_selection(rng)
            assert_identical_results(db.query(selection), db._query_linear(selection))

    def test_incremental_add_matches_rebuild(self, tmp_path, rng):
        records = random_records(rng, 80)
        db = BenchmarkDatabase(tmp_path)
        db.query(Selection.make())  # materialise the (empty) index
        for record in records:
            db._remember(record)
        assert db._facets is not None
        assert db._facets.num_records == len(records)
        rebuilt = FacetIndex.build(records)
        assert db._facets.bitmaps == rebuilt.bitmaps
        for _ in range(100):
            selection = random_selection(rng)
            assert_identical_results(db.query(selection), db._query_linear(selection))

    def test_external_mutation_triggers_rebuild(self, tmp_path, rng):
        db = BenchmarkDatabase(tmp_path)
        db._records.extend(random_records(rng, 20))
        db.query(Selection.make())
        db._records.extend(random_records(rng, 20))  # behind the index's back
        for _ in range(50):
            selection = random_selection(rng)
            assert_identical_results(db.query(selection), db._query_linear(selection))

    def test_best_only_tie_keeps_first_record(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        common = dict(
            suite="t",
            name="f",
            abstraction_level=AbstractionLevel.GATE_LEVEL,
            gate_library="QCA ONE",
            clocking_scheme="2DDWave",
            algorithm="exact",
            width=5,
            height=1,
            area=5,
        )
        first = BenchmarkFile(path="t/a.fgl", **common)
        second = BenchmarkFile(path="t/b.fgl", **common)
        db._records.extend([first, second])
        best = db.query(Selection.make(best_only=True))
        assert len(best) == 1
        assert best[0] is first
        assert db._query_linear(Selection.make(best_only=True))[0] is first


def gate(path, *, suite="t", name="f", library="QCA ONE", scheme="2DDWave",
         algorithm="ortho", optimizations=(), area=5):
    return BenchmarkFile(
        suite=suite,
        name=name,
        abstraction_level=AbstractionLevel.GATE_LEVEL,
        path=path,
        gate_library=library,
        clocking_scheme=scheme,
        algorithm=algorithm,
        optimizations=optimizations,
        width=area,
        height=1 if area is not None else None,
        area=area,
    )


def network(path, *, suite="t", name="f"):
    return BenchmarkFile(
        suite=suite, name=name, abstraction_level=AbstractionLevel.NETWORK, path=path
    )


class TestFacetIndexQuery:
    """``FacetIndex.query`` on its own — the one query implementation
    behind both ``BenchmarkDatabase.query`` and ``DatabaseSnapshot.query``
    — checked against explicit expectations and the linear oracle."""

    @staticmethod
    def answer(records, selection):
        hits = FacetIndex.build(records).query(selection, records)
        oracle = BenchmarkDatabase.__new__(BenchmarkDatabase)
        oracle._records = list(records)
        assert_identical_results(hits, oracle._query_linear(selection))
        return [r.path for r in hits]

    def test_query_over_a_record_tuple_matches_linear(self, rng):
        records = tuple(random_records(rng, 120))
        index = FacetIndex.build(records)
        for _ in range(100):
            selection = random_selection(rng)
            assert_identical_results(
                index.query(selection, records),
                index.query(selection, list(records)),
            )
            self.answer(records, selection)

    def test_empty_index_answers_nothing(self):
        assert self.answer((), Selection.make()) == []
        assert self.answer((), Selection.make(best_only=True)) == []
        assert self.answer((), Selection.make(gate_libraries=["QCA ONE"])) == []

    def test_layout_facets_admit_networks_only_when_asked(self):
        records = [network("t/f.v"), gate("t/f.fgl")]
        assert self.answer(records, Selection.make(algorithms=["ortho"])) == [
            "t/f.fgl"
        ]
        assert self.answer(
            records,
            Selection.make(algorithms=["ortho"], abstraction_levels=["network"]),
        ) == ["t/f.v"]
        assert self.answer(
            records,
            Selection.make(
                algorithms=["ortho"], abstraction_levels=["network", "gate-level"]
            ),
        ) == ["t/f.fgl", "t/f.v"]

    def test_every_selected_optimization_must_apply(self):
        records = [
            gate("t/none.fgl"),
            gate("t/plo.fgl", optimizations=("PLO",)),
            gate("t/both.fgl", optimizations=("PLO", "45°")),
        ]
        assert self.answer(records, Selection.make(optimizations=["PLO"])) == [
            "t/plo.fgl",
            "t/both.fgl",
        ]
        assert self.answer(
            records, Selection.make(optimizations=["PLO", "45°"])
        ) == ["t/both.fgl"]

    def test_best_only_ranks_zero_area_first_and_missing_area_last(self):
        records = [
            gate("t/none.fgl", area=None),
            gate("t/seven.fgl", area=7),
            gate("t/zero.fgl", area=0),
        ]
        best = Selection.make(best_only=True)
        assert self.answer(records, best) == ["t/zero.fgl"]
        assert self.answer(records[:1], best) == ["t/none.fgl"]
        assert self.answer(records[:2], best) == ["t/seven.fgl"]

    def test_best_only_keeps_one_layout_per_library_and_no_networks(self):
        records = [
            network("t/f.v"),
            gate("t/one_big.fgl", area=9),
            gate("t/hex.fgl", library="Bestagon", scheme="ROW", area=30),
            gate("t/one_small.fgl", area=4),
        ]
        assert self.answer(records, Selection.make(best_only=True)) == [
            "t/one_small.fgl",
            "t/hex.fgl",
        ]

    def test_values_match_case_insensitively(self):
        records = [
            gate("t/one.fgl"),
            gate("t/hex.fgl", library="Bestagon", scheme="ROW"),
        ]
        assert self.answer(
            records, Selection.make(gate_libraries=["qca one"])
        ) == ["t/one.fgl"]
        assert self.answer(
            records, Selection.make(gate_libraries=["BESTAGON"], suites=["T"])
        ) == ["t/hex.fgl"]

    def test_results_are_ordered_by_suite_name_level_and_area(self):
        records = [
            gate("z/a.fgl", suite="z", name="a", area=3),
            gate("a/b_big.fgl", suite="a", name="b", area=8),
            network("a/b.v", suite="a", name="b"),
            gate("a/b_small.fgl", suite="a", name="b", area=2),
            gate("a/a.fgl", suite="a", name="a", area=None),
        ]
        assert self.answer(records, Selection.make()) == [
            "a/a.fgl",
            "a/b_small.fgl",
            "a/b_big.fgl",
            "a/b.v",
            "z/a.fgl",
        ]


class TestNoSidecar:
    def test_generate_writes_no_facets_json(self, tmp_path):
        params = GenerationParams(
            exact_max_elements=0, nanoplacer_max_gates=0, inord_evaluations=3,
            node_cap=60, reproducible=True,
        )
        db = BenchmarkDatabase(tmp_path)
        db.generate([get_benchmark("trindade16", "mux21")], params=params)
        assert (tmp_path / "index.json").exists()
        assert not (tmp_path / "facets.json").exists()

    @pytest.mark.parametrize(
        "shape",
        [
            "garbage",
            "stale-digest",
            "stale-count",
            "version-mismatch",
            "tampered-bitmaps",
            "current-old-format",
        ],
    )
    def test_old_facets_json_is_ignored(self, tmp_path, rng, shape):
        """A sidecar from an older version — garbage, stale, of another
        version, tampered with or one that version would have accepted —
        neither warns nor changes a single query answer, and is never
        rewritten."""
        db = BenchmarkDatabase(tmp_path)
        records = random_records(rng, 40)
        db._records.extend(records)
        db._save_index()
        (tmp_path / "facets.json").write_text(
            old_sidecar(records, shape), encoding="utf-8"
        )
        before = (tmp_path / "facets.json").read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = BenchmarkDatabase(tmp_path)
        for _ in range(50):
            selection = random_selection(rng)
            assert_identical_results(
                reloaded.query(selection), reloaded._query_linear(selection)
            )
        reloaded._save_index()
        assert (tmp_path / "facets.json").read_bytes() == before

    def test_reopened_database_rebuilds_the_same_index(self, tmp_path, rng):
        """What a writer's incrementally grown index answers, a fresh
        process rebuilds from ``index.json`` alone."""
        writer = BenchmarkDatabase(tmp_path)
        writer.query(Selection.make())  # materialise, then grow in lockstep
        for record in random_records(rng, 60):
            writer._remember(record)
        writer._save_index()
        reader = BenchmarkDatabase(tmp_path)
        assert reader._facets is None  # nothing is loaded at open
        reader.query(Selection.make())
        assert reader._facets.bitmaps == writer._facets.bitmaps
        for _ in range(50):
            selection = random_selection(rng)
            assert [r.path for r in reader.query(selection)] == [
                r.path for r in writer.query(selection)
            ]

    def test_query_json_has_no_facet_index_key(self, tmp_path, rng, capsys):
        db = BenchmarkDatabase(tmp_path)
        db._records.extend(random_records(rng, 10))
        db._save_index()
        (tmp_path / "facets.json").write_text("garbage", encoding="utf-8")
        assert main(["query", "--database", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 10
        assert "facet_index" not in payload
