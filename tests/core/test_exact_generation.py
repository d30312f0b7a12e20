"""Exact flows inside ``generate``: stats plumbing and the cache key.

The exact search is sequential; ``GenerationParams.exact_jobs`` survives
only as a compatibility field that must keep the flow-cache key of
existing databases unchanged.
"""

from __future__ import annotations

import json

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BenchmarkDatabase
import repro.core.bench as bench_module
from repro.core.bench import GenerationParams
from repro.layout.clocking import TWODDWAVE


def test_exact_jobs_accepts_only_one():
    assert GenerationParams(exact_jobs=1).exact_jobs == 1
    for value in (0, 2, 4):
        with pytest.raises(ValueError, match="exact_jobs must be 1"):
            GenerationParams(exact_jobs=value)


def test_default_cache_key_is_unchanged(tmp_path):
    # Digest of the default params' cache key, computed before the
    # parallel exact engine was removed: existing flow caches (and the
    # checked-in sweep index) must keep hitting.
    db = BenchmarkDatabase(tmp_path / "db")
    key = db._cache_key((3, "abc"), "exact:2DDWave", GenerationParams())
    assert key == "084e185fb47e1ef404513d6c11c56753b91fb7192c058ac6247faca185fc5e02"
    assert GenerationParams().cache_fields()["exact_jobs"] == 1


def test_exact_stats_reach_the_stats_file(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_module, "CARTESIAN_SCHEMES", (TWODDWAVE,))
    db = BenchmarkDatabase(tmp_path / "db")
    outcome = db.generate(
        [get_benchmark("trindade16", "mux21")],
        libraries=("QCA ONE",),
        params=GenerationParams(
            exact_max_elements=64,
            nanoplacer_max_gates=0,
            node_cap=60,
            reproducible=True,
            exact_timeout=30.0,
            exact_ratio_timeout=None,
        ),
    )
    assert outcome.report.exact_search["dimensions_explored"] >= 1
    assert outcome.report.exact_search["incumbent_updates"] >= 1
    payload = json.loads(
        (tmp_path / "db" / "generation_stats.json").read_text(encoding="utf-8")
    )
    # The scheduler stats file is what /v1/stats serves verbatim.
    assert payload["exact_search"] == outcome.report.exact_search
