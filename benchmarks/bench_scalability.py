"""Large-circuit scalability benchmark: sparse fast paths vs. dense references.

The ISCAS85/EPFL sweep only became tractable once every per-layout pass
stopped touching the full ``width x height`` grid.  This harness pins
that claim with real circuits from the registry (built uncapped, the
same networks the generation sweep lays out) and measures each fast
path against the retained dense reference it replaced:

* **pipeline** — the full ortho flow (``orthogonal_layout`` +
  ``layout_to_fgl``) with the sparse grid backend vs. the same flow
  with the dense backend forced (``DENSE_AREA_LIMIT`` lifted beyond any
  real bounding box).  The honest before/after comparison for the
  sweep itself; the oracle is byte-identical ``.fgl`` text.
* **occupied_walk** — ``sparse_tiles()`` vs. the ``dense_tiles()``
  grid-scan oracle; identical ``(tile, gate)`` sequences.
* **metrics / drc / extract** — ``compute_metrics``, ``check_layout``
  and ``extract_network`` under ``engine="sparse"`` vs.
  ``engine="reference"``; equal metrics, verdicts and networks.
* **serialize_qca** (small & mid circuits only — a c5315-scale
  ``.qca`` is >1 GiB) — the streaming ``.qca`` writer vs. its
  reference on the one QCA ONE compile; byte-identical files.

Every workload runs each engine exactly once: the single execution is
timed *and* its output feeds the identity oracle, so a reported speedup
is always a speedup on provably identical results.  The acceptance
floor — aggregate speedup over the >=2000-node circuits — is asserted
in full mode only; ``--quick`` (the CI smoke job) runs small circuits
and checks the oracles alone.  Results go to ``BENCH_scalability.json``
at the repository root.

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
from repro.gatelibs.qca_one import apply_qca_one
from repro.io import layout_to_fgl
from repro.io.qca import cell_layout_to_qca
from repro.layout import check_layout, compute_metrics
from repro.layout import gate_layout as _gate_layout
from repro.physical_design import OrthoParams, orthogonal_layout

RESULT_PATH = Path(__file__).parent.parent / "BENCH_scalability.json"

#: Acceptance floor: aggregate speedup across the large-circuit tier.
REQUIRED_SPEEDUP = 5.0

#: Nodes at or above this put a circuit in the large tier the floor is
#: asserted over.
LARGE_NODES = 2000

#: (suite, name, heavy) — ``heavy`` circuits skip cell compilation and
#: ``.qca`` serialisation (their cell maps run to millions of cells and
#: the serialised file past a gigabyte).
CIRCUITS = (
    ("iscas85", "c432", False),
    ("iscas85", "c1908", False),
    ("iscas85", "c5315", True),
    ("iscas85", "c6288", True),
)
CIRCUITS_QUICK = (
    ("iscas85", "c432", False),
    ("epfl", "ctrl", False),
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


def _networks_equal(a, b) -> bool:
    return (
        list(a._nodes) == list(b._nodes) and a._pis == b._pis and a._pos == b._pos
    )


def bench_circuit(suite: str, name: str, heavy: bool) -> dict:
    spec = get_benchmark(suite, name)
    network = spec.build(None)
    correctness: dict[str, bool] = {}
    workloads: dict[str, dict] = {}

    def record(workload, ref_seconds, fast_seconds, identical):
        correctness[workload] = bool(identical)
        workloads[workload] = {
            "reference_seconds": ref_seconds,
            "sparse_seconds": fast_seconds,
            "speedup": ref_seconds / fast_seconds if fast_seconds else None,
        }

    # The pipeline workload builds the layout both ways; the sparse
    # layout is reused by every later workload.
    (layout, fast_fgl), fast_s = _timed(lambda: _ortho_pipeline(network))
    with _DenseForced():
        (dense_layout, ref_fgl), ref_s = _timed(lambda: _ortho_pipeline(network))
    record("pipeline", ref_s, fast_s, fast_fgl == ref_fgl)

    fast_walk, fast_s = _timed(lambda: list(layout.sparse_tiles()))
    ref_walk, ref_s = _timed(lambda: list(layout.dense_tiles()))
    record("occupied_walk", ref_s, fast_s, fast_walk == ref_walk)

    fast_m, fast_s = _timed(lambda: compute_metrics(layout, engine="sparse"))
    ref_m, ref_s = _timed(lambda: compute_metrics(layout, engine="reference"))
    record("metrics", ref_s, fast_s, fast_m == ref_m)

    fast_d, fast_s = _timed(lambda: check_layout(layout, engine="sparse"))
    ref_d, ref_s = _timed(lambda: check_layout(layout, engine="reference"))
    record(
        "drc", ref_s, fast_s,
        fast_d.violations == ref_d.violations
        and fast_d.warnings == ref_d.warnings,
    )

    fast_n, fast_s = _timed(lambda: layout.extract_network(engine="sparse"))
    ref_n, ref_s = _timed(lambda: layout.extract_network(engine="reference"))
    record("extract", ref_s, fast_s, _networks_equal(fast_n, ref_n))

    if not heavy:
        cells = apply_qca_one(layout)
        fast_q, fast_s = _timed(lambda: cell_layout_to_qca(cells, engine="stream"))
        ref_q, ref_s = _timed(
            lambda: cell_layout_to_qca(cells, engine="reference")
        )
        record("serialize_qca", ref_s, fast_s, fast_q == ref_q)

    width, height = layout.bounding_box()
    return {
        "suite": suite,
        "name": name,
        "nodes": network.num_gates(),
        "tiles": sum(1 for _ in layout.sparse_tiles()),
        "bounding_box": [width, height],
        "sparse_grid_backend": layout.uses_sparse_grid(),
        "correctness": correctness,
        "workloads": workloads,
    }


def _aggregate(circuits: list[dict], large_only: bool) -> float | None:
    ref = fast = 0.0
    for circuit in circuits:
        if large_only and circuit["nodes"] < LARGE_NODES:
            continue
        for row in circuit["workloads"].values():
            ref += row["reference_seconds"]
            fast += row["sparse_seconds"]
    return ref / fast if fast else None


def bench_scalability(quick: bool) -> dict:
    circuits = [
        bench_circuit(suite, name, heavy)
        for suite, name, heavy in (CIRCUITS_QUICK if quick else CIRCUITS)
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
        for workload, identical in circuit["correctness"].items():
            assert identical, (
                f"{circuit['suite']}/{circuit['name']}: {workload} outputs "
                "differ between the sparse and reference engines"
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
        f"sparse fast paths only {aggregate:.1f}x faster on the "
        f">={LARGE_NODES}-node tier (required {REQUIRED_SPEEDUP}x)"
    )


def _print_results(scalability: dict) -> None:
    for circuit in scalability["circuits"]:
        box = circuit["bounding_box"]
        print(
            f"{circuit['suite']}/{circuit['name']}: {circuit['nodes']} nodes, "
            f"{circuit['tiles']} tiles, bbox {box[0]}x{box[1]}"
            + (" [sparse grid]" if circuit["sparse_grid_backend"] else "")
        )
        for workload, row in circuit["workloads"].items():
            print(
                f"  {workload:14s} reference {row['reference_seconds']:8.3f} s"
                f" | sparse {row['sparse_seconds']:8.3f} s"
                f" | {row['speedup']:5.1f}x"
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
