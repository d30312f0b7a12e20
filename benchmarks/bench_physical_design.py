"""Physical-design flow benchmark: fast core vs. pre-optimization baseline.

Times the three layout flows (exact, ortho, NanoPlaceR) on the
Trindade16/Fontes18 benchmark sets across the 2DDWave, USE and RES
clocking schemes and writes the numbers to
``BENCH_physical_design.json`` at the repository root.

For every flow the comparison is against the in-tree baseline:

* **exact** — ``ExactParams(optimized=False)`` reproduces the original
  remove-and-unroute search with the reference A* engine;
* **ortho / NanoPlaceR** — ``RoutingOptions(engine="reference")``
  selects the original A* implementation, everything else unchanged.

Every optimized exact layout is cross-checked against the baseline
(equal area), DRC-verified and equivalence-checked against its
specification network before the timing is accepted.

Runnable standalone (``python benchmarks/bench_physical_design.py``,
add ``--quick`` for a seconds-scale smoke subset) or under
``pytest benchmarks/bench_physical_design.py --benchmark-only``.
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
from repro.layout.clocking import RES, TWODDWAVE, USE, ClockingScheme
from repro.physical_design import (
    ExactParams,
    NanoPlaceRParams,
    OrthoParams,
    RoutingOptions,
    exact_layout,
    nanoplacer_layout,
    orthogonal_layout,
)

RESULT_PATH = Path(__file__).parent.parent / "BENCH_physical_design.json"

#: The acceptance floor on the exact flow's median speedup.
REQUIRED_EXACT_SPEEDUP = 5.0

_SCHEMES: dict[str, ClockingScheme] = {s.name: s for s in (TWODDWAVE, USE, RES)}

#: Exact-flow cases: (scheme, suite, benchmark, per-case timeout seconds).
#: The exact flow only scales to the small end of the sets (the paper's
#: Table I regime); USE/RES xnor2 and beyond exceed the baseline's
#: budget and are left to the heuristic flows.
EXACT_CASES = (
    ("2DDWave", "trindade16", "mux21", 90.0),
    ("2DDWave", "trindade16", "xor2", 90.0),
    ("2DDWave", "trindade16", "xnor2", 90.0),
    ("2DDWave", "trindade16", "half_adder", 90.0),
    ("USE", "trindade16", "mux21", 90.0),
    ("USE", "trindade16", "xor2", 90.0),
    ("RES", "trindade16", "mux21", 90.0),
    ("RES", "trindade16", "xor2", 90.0),
)
EXACT_CASES_QUICK = (
    ("2DDWave", "trindade16", "mux21", 30.0),
    ("2DDWave", "trindade16", "xor2", 30.0),
)

#: Ortho-flow cases (ortho is 2DDWave-only by construction).
ORTHO_CASES = (
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "xnor2"),
    ("trindade16", "half_adder"),
    ("trindade16", "full_adder"),
    ("trindade16", "par_gen"),
    ("trindade16", "par_check"),
    ("fontes18", "1bitadderaoig"),
    ("fontes18", "majority"),
    ("fontes18", "t"),
    ("fontes18", "b1_r2"),
    ("fontes18", "newtag"),
    ("fontes18", "clpl"),
)
ORTHO_CASES_QUICK = ORTHO_CASES[:3]

NANOPLACER_CASES = (
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "half_adder"),
)
NANOPLACER_CASES_QUICK = NANOPLACER_CASES[:1]


def _best_of(repeats: int, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_exact(quick: bool) -> dict:
    cases = EXACT_CASES_QUICK if quick else EXACT_CASES
    rows = []
    for scheme_name, suite, name, timeout in cases:
        scheme = _SCHEMES[scheme_name]
        ntk = get_benchmark(suite, name).build()
        common = dict(scheme=scheme, timeout=timeout, ratio_timeout=6.0)

        started = time.perf_counter()
        opt = exact_layout(ntk, ExactParams(**common))
        opt_seconds = time.perf_counter() - started

        started = time.perf_counter()
        base = exact_layout(ntk, ExactParams(optimized=False, **common))
        base_seconds = time.perf_counter() - started

        opt_area = opt.layout.width * opt.layout.height if opt.layout else None
        base_area = base.layout.width * base.layout.height if base.layout else None
        row = {
            "scheme": scheme_name,
            "suite": suite,
            "benchmark": name,
            "optimized_seconds": opt_seconds,
            "baseline_seconds": base_seconds,
            "speedup": base_seconds / opt_seconds if opt_seconds else None,
            "optimized_area": opt_area,
            "baseline_area": base_area,
            "equal_area": opt_area == base_area,
        }
        if opt.layout is not None:
            drc, equiv = verify_layout(opt.layout, ntk)
            row["drc_clean"] = drc.ok
            row["equivalent"] = equiv.equivalent
        rows.append(row)
    speedups = [r["speedup"] for r in rows if r["speedup"] is not None]
    return {
        "cases": rows,
        "median_speedup": statistics.median(speedups) if speedups else None,
    }


def bench_ortho(quick: bool) -> dict:
    cases = ORTHO_CASES_QUICK if quick else ORTHO_CASES
    repeats = 2 if quick else 3
    rows = []
    for suite, name in cases:
        ntk = get_benchmark(suite, name).build()
        fast_seconds, fast = _best_of(
            repeats, lambda: orthogonal_layout(ntk, OrthoParams())
        )
        ref_seconds, ref = _best_of(
            repeats,
            lambda: orthogonal_layout(
                ntk, OrthoParams(routing=RoutingOptions(engine="reference"))
            ),
        )
        fast_area = fast.layout.width * fast.layout.height
        ref_area = ref.layout.width * ref.layout.height
        rows.append(
            {
                "suite": suite,
                "benchmark": name,
                "fast_seconds": fast_seconds,
                "reference_seconds": ref_seconds,
                "speedup": ref_seconds / fast_seconds if fast_seconds else None,
                "fast_area": fast_area,
                "reference_area": ref_area,
                "equal_area": fast_area == ref_area,
            }
        )
    speedups = [r["speedup"] for r in rows if r["speedup"] is not None]
    return {
        "cases": rows,
        "median_speedup": statistics.median(speedups) if speedups else None,
    }


def bench_nanoplacer(quick: bool) -> dict:
    cases = NANOPLACER_CASES_QUICK if quick else NANOPLACER_CASES
    rows = []
    for suite, name in cases:
        ntk = get_benchmark(suite, name).build()
        fast_seconds, fast = _best_of(
            1, lambda: nanoplacer_layout(ntk, NanoPlaceRParams(timeout=30.0))
        )
        ref_seconds, ref = _best_of(
            1,
            lambda: nanoplacer_layout(
                ntk,
                NanoPlaceRParams(
                    timeout=30.0, routing=RoutingOptions(engine="reference")
                ),
            ),
        )
        fast_area = fast.layout.width * fast.layout.height if fast.layout else None
        ref_area = ref.layout.width * ref.layout.height if ref.layout else None
        rows.append(
            {
                "suite": suite,
                "benchmark": name,
                "fast_seconds": fast_seconds,
                "reference_seconds": ref_seconds,
                "speedup": ref_seconds / fast_seconds if fast_seconds else None,
                "fast_area": fast_area,
                "reference_area": ref_area,
                "equal_area": fast_area == ref_area,
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
        "exact": bench_exact(quick),
        "ortho": bench_ortho(quick),
        "nanoplacer": bench_nanoplacer(quick),
    }
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


@pytest.mark.slow
@pytest.mark.benchmark(group="physical_design")
def test_exact_flow_speedup(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    exact = results["exact"]
    assert exact["median_speedup"] >= REQUIRED_EXACT_SPEEDUP, (
        f"exact flow only {exact['median_speedup']:.1f}x faster "
        f"(required {REQUIRED_EXACT_SPEEDUP}x)"
    )
    for row in exact["cases"]:
        assert row["equal_area"], row
        assert row.get("drc_clean", True) and row.get("equivalent", True), row


def _print_section(title: str, section: dict, left: str, right: str) -> None:
    print(f"{title}:")
    for row in section["cases"]:
        scheme = row.get("scheme", "2DDWave")
        label = f"{scheme}/{row['benchmark']}"
        print(
            f"  {label:24s} {row[left]:8.3f} s vs {row[right]:8.3f} s "
            f"— {row['speedup']:.1f}x (equal area: {row['equal_area']})"
        )
    print(f"  median speedup: {section['median_speedup']:.1f}x")


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_section("exact", results["exact"], "optimized_seconds", "baseline_seconds")
    _print_section("ortho", results["ortho"], "fast_seconds", "reference_seconds")
    _print_section(
        "nanoplacer", results["nanoplacer"], "fast_seconds", "reference_seconds"
    )
    print(f"written to {output or RESULT_PATH}")
