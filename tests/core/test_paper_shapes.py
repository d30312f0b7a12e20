"""Shape-level checks of the paper's headline claims, as fast tests.

These pin the *qualitative* Table I findings with generous-but-bounded
budgets, independent of the benchmark harnesses: exact dominance on the
smallest functions, heuristic-only scalability beyond, and the 45°
mapping's geometric contract.  EXPERIMENTS.md references these.
"""

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BESTAGON, BenchmarkDatabase, GenerationParams
from repro.layout import compute_metrics
from repro.optimization import to_hexagonal
from repro.physical_design import (
    ExactParams,
    NanoPlaceRParams,
    NanoPlaceRScaleError,
    OrthoParams,
    exact_layout,
    nanoplacer_layout,
    orthogonal_layout,
)


class TestExactDominatesSmall:
    """Table I: `exact` gives the area-best layout for small functions."""

    def test_mux21_exact_beats_heuristics(self):
        net = get_benchmark("trindade16", "mux21").build()
        exact = exact_layout(net, ExactParams(timeout=20))
        assert exact.succeeded
        heuristic = orthogonal_layout(net).layout
        hw, hh = heuristic.bounding_box()
        assert exact.layout.area() < hw * hh

    def test_mux21_exact_matches_paper_area(self):
        net = get_benchmark("trindade16", "mux21").build()
        result = exact_layout(net, ExactParams(timeout=30))
        assert result.succeeded
        assert result.layout.area() == 12  # Table I: 3 × 4 = 12


class TestHeuristicsOwnTheLargeRows:
    """Table I: beyond a few dozen nodes only ortho-based flows finish."""

    def test_exact_gives_up_on_parity16(self):
        net = get_benchmark("fontes18", "parity").build()
        result = exact_layout(net, ExactParams(timeout=2.0, ratio_timeout=0.3))
        assert not result.succeeded

    def test_nanoplacer_refuses_iscas_scale(self):
        net = get_benchmark("iscas85", "c432").build(node_cap=300)
        with pytest.raises(NanoPlaceRScaleError):
            nanoplacer_layout(net, NanoPlaceRParams(max_gates=200))

    def test_ortho_finishes_iscas_scale_in_seconds(self):
        net = get_benchmark("iscas85", "c432").build(node_cap=300)
        result = orthogonal_layout(net, OrthoParams(compact=False))
        assert result.runtime_seconds < 20


class TestBestagonGeometry:
    """Table I: Bestagon layouts are ROW-clocked 45° images."""

    def test_hex_height_is_antidiagonal_count(self):
        net = get_benchmark("trindade16", "par_gen").build()
        cartesian = orthogonal_layout(net).layout
        width, height = cartesian.bounding_box()
        hexed = to_hexagonal(cartesian).layout
        assert hexed.bounding_box()[1] == width + height - 1

    def test_portfolio_winner_never_above_plain_ortho(self, tmp_path):
        # ΔA ≤ 0 by construction: plain ortho + 45° is itself a candidate.
        db = BenchmarkDatabase(tmp_path)
        params = GenerationParams(
            exact_max_elements=0, nanoplacer_max_gates=0,
            inord_timeout=120.0, plo_timeout=120.0, reproducible=True,
        )
        db.generate([get_benchmark("trindade16", "mux21")], libraries=(BESTAGON,), params=params)
        ((winner, analysis),) = db.best()
        assert winner.gate_library == BESTAGON and winner.clocking_scheme == "ROW"
        assert "45°" in winner.optimizations
        (plain,) = [
            r for r in db.files() if r.algorithm == "ortho" and r.optimizations == ("45°",)
        ]
        assert analysis.metrics.area <= plain.area
