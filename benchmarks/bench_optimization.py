"""Post-layout optimization benchmark: incremental engine vs. baseline.

Times :func:`repro.optimization.post_layout.post_layout_optimization`
with the incremental engine (persistent connection index, delta-cost
candidate evaluation, dirty-set scheduling, pooled router arenas)
against the pre-optimization baseline on the Trindade16/Fontes18
benchmark sets and writes the numbers to ``BENCH_optimization.json``
at the repository root.

The baseline is the retained reference engine
(``PostLayoutParams(engine="reference")``) with the router arena pool
drained before every repetition — byte-faithful to the original
implementation, which re-traced the whole layout every pass and built
a fresh arena per routing call.  Both engines run on the same InOrd
layouts with the same move budget; the incremental result must be
structurally identical to the baseline result, with equal cost tuples
and equal areas, and is DRC-verified and equivalence-checked against
its specification network before the timing is accepted.

A second section times the two :func:`repro.optimization.\
wiring_reduction.wiring_reduction` engines (histogram single-rebuild
vs. one-line-at-a-time fixpoint) on the PLO-optimized layouts.

Runnable standalone (``python benchmarks/bench_optimization.py``, add
``--quick`` for a seconds-scale smoke subset) or under
``pytest benchmarks/bench_optimization.py --benchmark-only``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.benchsuite import get_benchmark
from repro.layout import verify_layout
from repro.optimization import (
    InputOrderingParams,
    PostLayoutParams,
    input_ordering,
    post_layout_optimization,
    wiring_reduction,
)
from repro.optimization.post_layout import layout_cost
from repro.physical_design import routing

RESULT_PATH = Path(__file__).parent.parent / "BENCH_optimization.json"

#: The acceptance floor on the PLO median speedup.
REQUIRED_PLO_SPEEDUP = 5.0

#: All Trindade16/Fontes18 circuits — the paper's Table I sets.
CASES = (
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "xnor2"),
    ("trindade16", "half_adder"),
    ("trindade16", "full_adder"),
    ("trindade16", "par_gen"),
    ("trindade16", "par_check"),
    ("fontes18", "1bitadderaoig"),
    ("fontes18", "1bitaddermaj"),
    ("fontes18", "2bitaddermaj"),
    ("fontes18", "xor5maj"),
    ("fontes18", "majority"),
    ("fontes18", "parity"),
    ("fontes18", "t"),
    ("fontes18", "b1_r2"),
    ("fontes18", "newtag"),
    ("fontes18", "clpl"),
    ("fontes18", "cm82a_5"),
)
CASES_QUICK = (
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "half_adder"),
)


def _inord_layout(ntk):
    """The benchmarked PLO input: an InOrd-placed 2DDWave layout."""
    return input_ordering(
        ntk, InputOrderingParams(max_evaluations=6, timeout=20.0)
    ).layout


def _time_plo(layout, engine: str, repeats: int, cold_arena: bool):
    """Best-of-``repeats`` PLO timing on clones of ``layout``.

    ``cold_arena`` drains the pooled router-arena cache before every
    repetition, reproducing the pre-PR per-layout arena construction
    for the baseline measurement.
    """
    best = float("inf")
    result = None
    params = PostLayoutParams(engine=engine, max_passes=8, timeout=None)
    for _ in range(repeats):
        clone = layout.clone()
        if cold_arena:
            routing._ARENA_POOL.clear()
        started = time.perf_counter()
        result = post_layout_optimization(clone, params)
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_plo(quick: bool) -> dict:
    cases = CASES_QUICK if quick else CASES
    repeats = 2 if quick else 7
    rows = []
    for suite, name in cases:
        ntk = get_benchmark(suite, name).build()
        layout = _inord_layout(ntk)
        inc_seconds, inc = _time_plo(layout, "incremental", repeats, cold_arena=False)
        base_seconds, base = _time_plo(layout, "reference", repeats, cold_arena=True)

        identical = inc.layout.structurally_equal(base.layout)
        equal_cost = layout_cost(inc.layout) == layout_cost(base.layout)
        drc, equiv = verify_layout(inc.layout, ntk)
        rows.append(
            {
                "suite": suite,
                "benchmark": name,
                "incremental_seconds": inc_seconds,
                "baseline_seconds": base_seconds,
                "speedup": base_seconds / inc_seconds if inc_seconds else None,
                "area_before": inc.area_before,
                "incremental_area": inc.area_after,
                "baseline_area": base.area_after,
                "equal_area": inc.area_after == base.area_after,
                "identical_layout": identical,
                "equal_cost": equal_cost,
                "moves_applied": inc.moves_applied,
                "drc_clean": drc.ok,
                "equivalent": equiv.equivalent,
            }
        )
    speedups = [r["speedup"] for r in rows if r["speedup"] is not None]
    return {
        "cases": rows,
        "median_speedup": statistics.median(speedups) if speedups else None,
    }


def bench_wiring_reduction(quick: bool) -> dict:
    cases = CASES_QUICK if quick else CASES
    repeats = 2 if quick else 7
    rows = []
    for suite, name in cases:
        ntk = get_benchmark(suite, name).build()
        layout = post_layout_optimization(
            _inord_layout(ntk), PostLayoutParams(max_passes=8, timeout=None)
        ).layout

        best = {}
        result = {}
        for engine in ("incremental", "reference"):
            best[engine] = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                result[engine] = wiring_reduction(layout, engine=engine)
                best[engine] = min(best[engine], time.perf_counter() - started)

        inc, ref = result["incremental"], result["reference"]
        rows.append(
            {
                "suite": suite,
                "benchmark": name,
                "incremental_seconds": best["incremental"],
                "baseline_seconds": best["reference"],
                "speedup": (
                    best["reference"] / best["incremental"]
                    if best["incremental"]
                    else None
                ),
                "rows_deleted": inc.rows_deleted,
                "columns_deleted": inc.columns_deleted,
                "identical_layout": inc.layout.structurally_equal(ref.layout),
                "equal_deletions": (
                    inc.rows_deleted == ref.rows_deleted
                    and inc.columns_deleted == ref.columns_deleted
                ),
            }
        )
    speedups = [r["speedup"] for r in rows if r["speedup"] is not None]
    return {
        "cases": rows,
        "median_speedup": statistics.median(speedups) if speedups else None,
    }


def run_all(
    quick: bool = False, write: bool = True, output: Path | None = None
) -> dict:
    results = {
        "quick": quick,
        "post_layout": bench_plo(quick),
        "wiring_reduction": bench_wiring_reduction(quick),
    }
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _check_plo_rows(section: dict) -> None:
    for row in section["cases"]:
        assert row["identical_layout"], row
        assert row["equal_cost"], row
        assert row["equal_area"], row
        assert row["drc_clean"] and row["equivalent"], row


@pytest.mark.slow
@pytest.mark.benchmark(group="optimization")
def test_plo_speedup(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    plo = results["post_layout"]
    _check_plo_rows(plo)
    assert plo["median_speedup"] >= REQUIRED_PLO_SPEEDUP, (
        f"incremental PLO only {plo['median_speedup']:.1f}x faster "
        f"(required {REQUIRED_PLO_SPEEDUP}x)"
    )
    for row in results["wiring_reduction"]["cases"]:
        assert row["identical_layout"] and row["equal_deletions"], row


def _print_section(title: str, section: dict) -> None:
    print(f"{title}:")
    for row in section["cases"]:
        label = f"{row['suite']}/{row['benchmark']}"
        print(
            f"  {label:28s} {row['incremental_seconds']:8.3f} s vs "
            f"{row['baseline_seconds']:8.3f} s — {row['speedup']:.1f}x "
            f"(identical: {row['identical_layout']})"
        )
    print(f"  median speedup: {section['median_speedup']:.1f}x")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_section("post-layout optimization", results["post_layout"])
    _print_section("wiring reduction", results["wiring_reduction"])
    _check_plo_rows(results["post_layout"])
    if not results["quick"]:
        assert results["post_layout"]["median_speedup"] >= REQUIRED_PLO_SPEEDUP
    print(f"written to {output or RESULT_PATH}")
