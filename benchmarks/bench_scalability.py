"""Large-circuit scalability benchmark: sparse vs. dense grid backend.

The ISCAS85/EPFL sweep only became tractable once every per-layout pass
stopped touching the full ``width x height`` grid.  This harness pins
that claim with real circuits from the registry (built uncapped, the
same networks the generation sweep lays out): the full ortho flow
(``orthogonal_layout`` + ``layout_to_fgl``) with the size-selected
sparse grid backend vs. the same flow with the dense backend forced
(``DENSE_AREA_LIMIT`` lifted beyond any real bounding box).  The oracle
is byte-identical ``.fgl`` text.

Each backend runs once per circuit: the single execution is timed *and*
its output feeds the identity oracle, so a reported speedup is always a
speedup on provably identical results.  The acceptance floor —
aggregate speedup over the >=2000-node circuits — is asserted in full
mode only; ``--quick`` (the CI smoke job) runs small circuits and checks
the oracle alone.  Results go to ``BENCH_scalability.json`` at the
repository root.

Runnable standalone (``python benchmarks/bench_scalability.py``, add
``--quick``) or under ``pytest benchmarks/bench_scalability.py -m slow``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from repro.benchsuite import get_benchmark
from repro.io import layout_to_fgl
from repro.layout import gate_layout as _gate_layout
from repro.physical_design import OrthoParams, orthogonal_layout

RESULT_PATH = Path(__file__).parent.parent / "BENCH_scalability.json"

#: Acceptance floor: aggregate speedup across the large-circuit tier.
REQUIRED_SPEEDUP = 5.0

#: Nodes at or above this put a circuit in the large tier the floor is
#: asserted over.
LARGE_NODES = 2000

CIRCUITS = (
    ("iscas85", "c432"),
    ("iscas85", "c1908"),
    ("iscas85", "c5315"),
    ("iscas85", "c6288"),
)
CIRCUITS_QUICK = (
    ("iscas85", "c432"),
    ("epfl", "ctrl"),
)


def _timed(thunk):
    started = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - started


class _DenseForced:
    """Force the dense grid backend regardless of layout area."""

    def __enter__(self):
        self._saved = _gate_layout.DENSE_AREA_LIMIT
        _gate_layout.DENSE_AREA_LIMIT = 1 << 62
        return self

    def __exit__(self, *exc):
        _gate_layout.DENSE_AREA_LIMIT = self._saved
        return False


def _ortho_pipeline(network) -> tuple:
    result = orthogonal_layout(network, OrthoParams(compact=False))
    return result.layout, layout_to_fgl(result.layout)


def bench_circuit(suite: str, name: str) -> dict:
    network = get_benchmark(suite, name).build(None)
    (layout, sparse_fgl), sparse_s = _timed(lambda: _ortho_pipeline(network))
    with _DenseForced():
        (_, dense_fgl), dense_s = _timed(lambda: _ortho_pipeline(network))
    width, height = layout.bounding_box()
    return {
        "suite": suite,
        "name": name,
        "nodes": network.num_gates(),
        "tiles": len(layout),
        "bounding_box": [width, height],
        "sparse_grid_backend": layout.uses_sparse_grid(),
        "identical": sparse_fgl == dense_fgl,
        "dense_seconds": dense_s,
        "sparse_seconds": sparse_s,
        "speedup": dense_s / sparse_s if sparse_s else None,
    }


def _aggregate(circuits: list[dict], large_only: bool) -> float | None:
    dense = sparse = 0.0
    for circuit in circuits:
        if large_only and circuit["nodes"] < LARGE_NODES:
            continue
        dense += circuit["dense_seconds"]
        sparse += circuit["sparse_seconds"]
    return dense / sparse if sparse else None


def bench_scalability(quick: bool) -> dict:
    circuits = [
        bench_circuit(suite, name)
        for suite, name in (CIRCUITS_QUICK if quick else CIRCUITS)
    ]
    return {
        "large_nodes_threshold": LARGE_NODES,
        "circuits": circuits,
        "aggregate_speedup": _aggregate(circuits, large_only=False),
        "aggregate_speedup_large": _aggregate(circuits, large_only=True),
    }


def run_all(
    quick: bool = False, write: bool = True, output: Path | None = None
) -> dict:
    results = {"quick": quick, "scalability": bench_scalability(quick)}
    if write:
        path = output or RESULT_PATH
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return results


def _check_correctness(scalability: dict) -> None:
    for circuit in scalability["circuits"]:
        assert circuit["identical"], (
            f"{circuit['suite']}/{circuit['name']}: .fgl text differs between "
            "the sparse and dense grid backends"
        )


@pytest.mark.slow
@pytest.mark.benchmark(group="scalability")
def test_scalability_speedup(benchmark):
    results = benchmark.pedantic(
        run_all, kwargs={"write": False}, rounds=1, iterations=1
    )
    scalability = results["scalability"]
    _check_correctness(scalability)
    aggregate = scalability["aggregate_speedup_large"]
    assert aggregate is not None
    assert aggregate >= REQUIRED_SPEEDUP, (
        f"sparse grid backend only {aggregate:.1f}x faster on the "
        f">={LARGE_NODES}-node tier (required {REQUIRED_SPEEDUP}x)"
    )


def _print_results(scalability: dict) -> None:
    for circuit in scalability["circuits"]:
        box = circuit["bounding_box"]
        print(
            f"{circuit['suite']}/{circuit['name']}: {circuit['nodes']} nodes, "
            f"{circuit['tiles']} tiles, bbox {box[0]}x{box[1]}"
            + (" [sparse grid]" if circuit["sparse_grid_backend"] else "")
            + f" | dense {circuit['dense_seconds']:8.3f} s"
            f" | sparse {circuit['sparse_seconds']:8.3f} s"
            f" | {circuit['speedup']:5.1f}x"
        )
    aggregate = scalability["aggregate_speedup"]
    large = scalability["aggregate_speedup_large"]
    print(f"aggregate speedup: {aggregate:.1f}x" if aggregate else "no timings")
    if large is not None:
        print(
            f"aggregate speedup (>={scalability['large_nodes_threshold']}"
            f"-node circuits): {large:.1f}x"
        )


if __name__ == "__main__":
    quick = "--quick" in sys.argv
    output = None
    if "--output" in sys.argv:
        output = Path(sys.argv[sys.argv.index("--output") + 1])
    results = run_all(quick, output=output)
    _print_results(results["scalability"])
    _check_correctness(results["scalability"])
    if not results["quick"]:
        assert results["scalability"]["aggregate_speedup_large"] >= REQUIRED_SPEEDUP
    print(f"written to {output or RESULT_PATH}")
