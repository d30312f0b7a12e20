"""Tests for parallel, cached benchmark-database generation.

These use a deterministic flow subset (exact search and NanoPlaceR are
wall-clock-budget driven, so they are disabled via their scale gates)
to compare serial vs parallel generation and first-run vs cached-run
indices byte for byte.
"""

import json
import os
import shutil
import socket
from dataclasses import replace

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase, GenerationOutcome, GenerationParams
from repro.scheduler import GENERATION_STATS_NAME, JOURNAL_NAME
from tests.scheduler.conftest import assert_databases_identical

#: Deterministic flows only: ortho and ortho+InOrd+PLO (plus their 45°
#: hexagonalizations); generous timeouts so pass counts, not deadlines,
#: terminate the optimisation loops.
DETERMINISTIC = GenerationParams(
    exact_max_elements=0,
    nanoplacer_max_gates=0,
    inord_evaluations=3,
    inord_timeout=120.0,
    plo_timeout=120.0,
    node_cap=60,
)

SPECS = [get_benchmark("trindade16", "mux21"), get_benchmark("trindade16", "xor2")]


def strip_runtimes(records):
    return [
        {k: v for k, v in r.to_json().items() if k != "runtime_seconds"}
        for r in records
    ]


class TestFlowCache:
    def test_repeated_generate_hits_cache(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        first = db.generate(SPECS, params=DETERMINISTIC)
        assert first.report.admitted > 0
        index_first = (tmp_path / "index.json").read_bytes()

        second = db.generate(SPECS, params=DETERMINISTIC)
        # zero re-layouts / re-verifications: nothing executed at all
        assert second.report.executed_flows == 0
        assert second.report.admitted == 0
        assert second.report.skipped_cached == first.report.executed_flows
        # the same records are served, and the index is byte-identical
        assert strip_runtimes(second) == strip_runtimes(first)
        assert (tmp_path / "index.json").read_bytes() == index_first

    def test_cache_survives_reload(self, tmp_path):
        BenchmarkDatabase(tmp_path).generate(SPECS, params=DETERMINISTIC)
        index_first = (tmp_path / "index.json").read_bytes()
        reloaded = BenchmarkDatabase(tmp_path)
        outcome = reloaded.generate(SPECS, params=DETERMINISTIC)
        assert outcome.report.executed_flows == 0
        assert (tmp_path / "index.json").read_bytes() == index_first

    def test_cache_invalidated_by_missing_artifact(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        first = db.generate(SPECS, params=DETERMINISTIC)
        victim = next(r for r in first if r.path.endswith(".fgl"))
        (tmp_path / victim.path).unlink()
        again = db.generate(SPECS, params=DETERMINISTIC)
        # only the flow whose artifact vanished is re-executed
        assert again.report.executed_flows >= 1
        assert (tmp_path / victim.path).exists()

    def test_cache_keyed_on_params(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        db.generate(SPECS, params=DETERMINISTIC)
        changed = replace(DETERMINISTIC, inord_evaluations=4)
        outcome = db.generate(SPECS, params=changed)
        assert outcome.report.executed_flows > 0

    def test_cache_disabled_on_request(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        first = db.generate(SPECS, params=DETERMINISTIC)
        no_cache = db.generate(SPECS, params=replace(DETERMINISTIC, use_cache=False))
        assert no_cache.report.skipped_cached == 0
        assert no_cache.report.executed_flows == first.report.executed_flows

    def test_jobs_do_not_affect_cache_key(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        db.generate(SPECS, params=DETERMINISTIC)
        outcome = db.generate(SPECS, params=replace(DETERMINISTIC, jobs=2))
        assert outcome.report.executed_flows == 0


class TestParallelGeneration:
    def test_parallel_matches_serial(self, tmp_path):
        serial_db = BenchmarkDatabase(tmp_path / "serial")
        serial = serial_db.generate(SPECS, params=DETERMINISTIC)
        parallel_db = BenchmarkDatabase(tmp_path / "parallel")
        parallel = parallel_db.generate(SPECS, params=replace(DETERMINISTIC, jobs=2))
        assert strip_runtimes(serial) == strip_runtimes(parallel)
        assert strip_runtimes(serial_db.files()) == strip_runtimes(parallel_db.files())
        assert serial.report.admitted == parallel.report.admitted

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_result_is_journaled_under_this_process(self, tmp_path, jobs):
        """Pool workers execute flows, but the sweep's own process merges
        and owns every result: each journal line, the report and the
        stats sidecar name the same ``hostname-pid`` node."""
        node = f"{socket.gethostname()}-{os.getpid()}"
        outcome = BenchmarkDatabase(tmp_path).generate(
            SPECS, params=replace(DETERMINISTIC, jobs=jobs)
        )
        assert outcome.report.scheduler["node"] == node
        sidecar = json.loads((tmp_path / GENERATION_STATS_NAME).read_text())
        assert sidecar["node"] == node
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == outcome.report.executed_flows == 8
        assert {json.loads(line)["node"] for line in lines} == {node}

    def test_inline_fallback_matches_serial(self, tmp_path, monkeypatch):
        from repro.scheduler import WorkerPoolUnavailable

        def no_workers(*args, **kwargs):
            raise WorkerPoolUnavailable("no worker processes")

        params = replace(DETERMINISTIC, reproducible=True)
        BenchmarkDatabase(tmp_path / "serial").generate(SPECS, params=params)
        monkeypatch.setattr("repro.scheduler.engine.WorkerPool", no_workers)
        fallback = BenchmarkDatabase(tmp_path / "fallback").generate(
            SPECS, params=replace(params, jobs=2)
        )
        assert fallback.report.scheduler["mode"] == "inline-fallback"
        assert fallback.report.executed_flows == 8
        assert_databases_identical(tmp_path / "serial", tmp_path / "fallback")

    def test_parallel_artifacts_verify(self, tmp_path):
        from repro.core.selection import AbstractionLevel
        from repro.networks import check_equivalence

        db = BenchmarkDatabase(tmp_path)
        created = db.generate(
            [get_benchmark("trindade16", "mux21")],
            params=replace(DETERMINISTIC, jobs=2),
        )
        spec_network = get_benchmark("trindade16", "mux21").build()
        layouts = [
            r for r in created if r.abstraction_level is AbstractionLevel.GATE_LEVEL
        ]
        assert layouts
        for record in layouts:
            layout = db.load_layout(record)
            assert check_equivalence(spec_network, layout.extract_network()).equivalent


class TestGenerationReport:
    def test_report_counts_add_up(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        outcome = db.generate(SPECS, params=DETERMINISTIC)
        assert isinstance(outcome, GenerationOutcome)
        report = outcome.report
        # every flow executed is accounted for by a wall time entry
        assert report.executed_flows == len(report.flow_seconds)
        assert all(t >= 0.0 for t in report.flow_seconds.values())
        assert report.wall_seconds > 0.0
        # mux21 and xor2 each run ortho_opt (which also emits the plain
        # ortho layout), npr + 2 hex variants
        assert report.executed_flows == 8
        # npr flows are disabled by the scale gate -> no layouts from them
        assert report.no_layout == 4
        summary = report.summary()
        assert "admitted" in summary and "cache hits" in summary

    def test_rejections_recorded_in_cache(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        db.generate(SPECS, params=DETERMINISTIC)
        index = json.loads((tmp_path / "index.json").read_text())
        assert "flow_cache" in index
        for entry in index["flow_cache"].values():
            assert {"suite", "name", "flow", "records", "rejections"} <= set(entry)


class TestOutcomeCompatibility:
    def test_outcome_behaves_like_list(self, tmp_path):
        db = BenchmarkDatabase(tmp_path)
        outcome = db.generate([get_benchmark("trindade16", "xor2")], params=DETERMINISTIC)
        assert isinstance(outcome, list)
        assert len(outcome) == len(list(outcome))
        assert outcome[0].suite == "trindade16"


class TestOptimize:
    """``optimize`` runs on the generation scheduler: byte-identical
    across worker counts and cached like generation."""

    @pytest.fixture
    def generated(self, tmp_path):
        root = tmp_path / "generated"
        BenchmarkDatabase(root).generate(
            SPECS, params=replace(DETERMINISTIC, reproducible=True)
        )
        return root

    def test_optimize_jobs_are_byte_identical(self, tmp_path, generated):
        from tests.scheduler.conftest import database_fingerprint

        fingerprints = []
        for jobs, mode in ((1, "inline"), (2, "pool")):
            root = tmp_path / f"jobs{jobs}"
            shutil.copytree(generated, root)
            outcome = BenchmarkDatabase(root).optimize(
                params=replace(DETERMINISTIC, reproducible=True, jobs=jobs)
            )
            assert outcome.report.admitted == 2  # one 2DDWave ortho per spec
            assert outcome.report.scheduler["mode"] == mode
            assert all("PLO" in record.optimizations for record in outcome)
            fingerprints.append(database_fingerprint(root))
        assert fingerprints[0] == fingerprints[1]

    def test_optimize_rerun_is_all_cache_hits(self, generated):
        params = replace(DETERMINISTIC, reproducible=True)
        first = BenchmarkDatabase(generated).optimize(params=params)
        assert first.report.executed_flows == 2
        index_first = (generated / "index.json").read_bytes()

        second = BenchmarkDatabase(generated).optimize(params=params)
        assert second.report.executed_flows == 0
        assert second.report.skipped_cached == first.report.executed_flows
        assert strip_runtimes(second) == strip_runtimes(first)
        assert (generated / "index.json").read_bytes() == index_first
