"""Tests for the exact (branch-and-bound) physical design algorithm."""

import pytest

from repro.layout import ESR, OPEN, RES, ROW, TWODDWAVE, USE, Topology
from repro.networks import LogicNetwork
from repro.networks.library import mux21, xor2
from repro.physical_design import ExactParams, ExactSearchStats, exact_layout
from tests.conftest import assert_layout_good


def tiny_and():
    ntk = LogicNetwork("and2")
    a, b = ntk.create_pi("a"), ntk.create_pi("b")
    ntk.create_po(ntk.create_and(a, b), "f")
    return ntk


class TestMinimality:
    def test_and_is_six_tiles(self):
        # 2×2 cannot work: the AND needs west+north fanins, which pins it
        # to the south-east corner and leaves no tile for the PO — the
        # true minimum on 2DDWave is 2×3 = 6 tiles.
        result = exact_layout(tiny_and(), ExactParams(timeout=10))
        assert result.succeeded
        layout = result.layout
        assert layout.area() == 6
        assert_layout_good(layout, tiny_and())

    def test_mux21_matches_paper_area(self):
        # Table I: mux21 / QCA ONE / exact / 2DDWave = 3 × 4 = 12 tiles.
        result = exact_layout(mux21(), ExactParams(timeout=30))
        assert result.succeeded
        assert result.layout.area() == 12
        assert_layout_good(result.layout, mux21())

    def test_areas_visited_ascending(self):
        result = exact_layout(tiny_and(), ExactParams(timeout=10))
        # The first ratio large enough for 4 elements is area 4.
        assert result.explored_ratios >= 1


class TestSchemes:
    @pytest.mark.parametrize("scheme", [USE, RES, ESR])
    def test_feedback_schemes(self, scheme):
        result = exact_layout(
            xor2(), ExactParams(scheme=scheme, timeout=25, ratio_timeout=1.5)
        )
        assert result.succeeded, f"no layout on {scheme.name}"
        assert_layout_good(result.layout, xor2())
        assert result.layout.scheme is scheme

    def test_hexagonal_row(self):
        result = exact_layout(
            mux21(),
            ExactParams(
                scheme=ROW,
                topology=Topology.HEXAGONAL_EVEN_ROW,
                timeout=25,
                ratio_timeout=1.5,
            ),
        )
        assert result.succeeded
        assert result.layout.topology is Topology.HEXAGONAL_EVEN_ROW
        assert_layout_good(result.layout, mux21())


class TestBudget:
    def test_timeout_reported(self):
        # A sub-millisecond budget cannot finish anything.
        result = exact_layout(mux21(), ExactParams(timeout=0.001))
        assert not result.succeeded
        assert result.runtime_seconds < 5

    def test_border_io(self):
        result = exact_layout(tiny_and(), ExactParams(timeout=10, border_io=True))
        layout = result.layout
        for tile in layout.pis() + layout.pos():
            assert (
                tile.x in (0, layout.width - 1) or tile.y in (0, layout.height - 1)
            )

    def test_max_side_respected(self):
        result = exact_layout(mux21(), ExactParams(timeout=15, max_side=5))
        if result.succeeded:
            assert result.layout.width <= 5
            assert result.layout.height <= 5


class TestIrregularScheme:
    def test_open_is_refused_up_front(self):
        # The search never assigns clock zones, so on OPEN no wire step
        # is admissible; it must not burn its budget proving that.
        ntk = LogicNetwork("wire")
        ntk.create_po(ntk.create_pi("a"), "f")
        with pytest.raises(ValueError, match="regular clocking scheme"):
            exact_layout(ntk, ExactParams(scheme=OPEN, timeout=30))


class TestStats:
    def test_stats_populated(self):
        result = exact_layout(mux21(), ExactParams(timeout=60))
        stats = result.stats
        assert stats.dimensions_explored == result.explored_ratios
        assert stats.incumbent_updates == 1
        assert stats.dimensions_total >= stats.dimensions_explored

    def test_stats_json_roundtrip_and_merge(self):
        stats = ExactSearchStats(dimensions_total=7, dimensions_explored=3)
        assert ExactSearchStats.from_json(stats.to_json()) == stats
        # Unknown keys from newer writers are ignored, not fatal.
        assert ExactSearchStats.from_json({**stats.to_json(), "novel": 1}) == stats
        merged = ExactSearchStats()
        merged.merge(stats)
        merged.merge(stats.to_json())
        assert merged.dimensions_total == 14
        assert merged.dimensions_explored == 6

    def test_stats_with_retired_parallel_keys_still_load(self):
        # generation_stats.json files written while the parallel engine
        # existed carry its counters; loading and merging skip them.
        old = {
            "engine": "parallel",
            "jobs": 4,
            "dimensions_total": 7,
            "dimensions_filtered": 1,
            "dimensions_explored": 3,
            "dimensions_pruned": 2,
            "dimensions_killed": 1,
            "incumbent_updates": 1,
            "subtask_retries": 0,
            "subtask_failures": 0,
            "budget_kills": 0,
        }
        expected = ExactSearchStats(
            dimensions_total=7,
            dimensions_filtered=1,
            dimensions_explored=3,
            incumbent_updates=1,
        )
        assert ExactSearchStats.from_json(old) == expected
        merged = ExactSearchStats()
        merged.merge(old)
        assert merged == expected
        assert set(merged.to_json()) == set(expected.to_json())
