"""Golden bytes of post-layout optimization and wiring reduction.

Pins the SHA-256 of ``layout_to_fgl`` for ``post_layout_optimization``
(8 passes, no timeout) of the full ISCAS85 ``orthogonal_layout`` and for
``wiring_reduction`` of that result, together with the PLO move and
pass counts.  c432 has a dense occupancy grid; c1355's 1731×728 canvas
is above ``DENSE_AREA_LIMIT``, so it runs PLO on the sparse grid and
sparse router backing.  Any rewrite of PLO's dirty tracking, the router
arena or wiring reduction must keep these bytes.
"""

import hashlib

import pytest

from repro.benchsuite import get_benchmark
from repro.io.fgl import layout_to_fgl
from repro.networks import decompose_to_aoig, prepare_for_layout
from repro.optimization import (
    PostLayoutParams,
    post_layout_optimization,
    wiring_reduction,
)
from repro.physical_design import orthogonal_layout

#: network -> (PLO .fgl SHA-256, wiring-reduction .fgl SHA-256,
#: moves_applied, passes)
GOLDEN = {
    "c432": (
        "ae7f33737c2fa944365c25be416465605bd597798e4400b60ac222c19fd38def",
        "7dec5459caafd41a14c13292b194b9ac272eabca1f604d30c27e86fcf9c9623b",
        33,
        3,
    ),
    "c1355": (
        "b0f712285646a77fc6077e31901cfca9075f8d41900581f8b414b2d884754334",
        "a9777d553dc25813c753da20d53f0f55ba1d6ba8e40eb8b76f64e2dd3dd7fba4",
        163,
        8,
    ),
}


def _sha(layout) -> str:
    return hashlib.sha256(layout_to_fgl(layout).encode()).hexdigest()


@pytest.mark.parametrize(
    "network",
    ["c432", pytest.param("c1355", marks=pytest.mark.slow)],
)
def test_plo_and_wiring_reduction_golden(network):
    plo_sha, wr_sha, moves, passes = GOLDEN[network]
    spec = get_benchmark("iscas85", network)
    layout = orthogonal_layout(
        prepare_for_layout(decompose_to_aoig(spec.build(None)))
    ).layout
    result = post_layout_optimization(
        layout, PostLayoutParams(max_passes=8, timeout=None)
    )
    assert (result.moves_applied, result.passes) == (moves, passes)
    assert _sha(result.layout) == plo_sha
    assert _sha(wiring_reduction(result.layout).layout) == wr_sha
