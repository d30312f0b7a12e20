"""Golden bytes of post-layout optimization and wiring reduction.

Pins the SHA-256 of ``layout_to_fgl`` for ``post_layout_optimization``
(8 passes, no timeout) of the full ISCAS85 ``orthogonal_layout`` and for
``wiring_reduction`` of that result, together with the PLO move and
pass counts.  c432 has a dense occupancy grid; c1355's 1731×728 canvas
is above ``DENSE_AREA_LIMIT``, so it runs PLO on the sparse grid and
sparse router backing.  Any rewrite of PLO's dirty tracking, the router
arena or wiring reduction must keep these bytes.

``SMALL_GOLDEN`` pins the small networks on which PLO and wiring
reduction were once compared against their retired reference engines:
two library circuits, twelve seeded fuzz networks and two crossing-heavy
ones.  Each runs PLO (default parameters) and wiring reduction on the
same ``orthogonal_layout``; the hashes were taken when both engines
still agreed byte for byte, so they describe either one.
"""

import hashlib

import pytest

from repro.benchsuite import get_benchmark
from repro.networks.generators import GeneratorSpec, generate_network
from repro.networks.library import full_adder, parity_checker
from repro.io.fgl import layout_to_fgl
from repro.networks import decompose_to_aoig, prepare_for_layout
from repro.optimization import (
    PostLayoutParams,
    post_layout_optimization,
    wiring_reduction,
)
from repro.physical_design import OrthoParams, orthogonal_layout
from tests.conftest import assert_layout_good

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


#: network -> (PLO .fgl SHA-256, moves_applied, passes, wiring-reduction
#: .fgl SHA-256).  A network is a library name or a ``GeneratorSpec``
#: tuple ``(name, num_pis, num_pos, num_gates, seed, locality)``; the
#: ``xheavy`` specs use compact ortho (they were drawn for crossings),
#: the rest the sparse placement.
SMALL_GOLDEN = [
    ("full_adder",
     "88292ae98a50409e1d01a1fbec880d72b894d8a6b9fe8078e463994d886d6766", 6, 2,
     "49313ed642f6435676d4e78c6edaaa9af4461092653c2bf3efbf9a6f95bcd260"),
    ("parity_checker4",
     "ac07055a544989dd29edeac67c1580c282e010b5afd9b7fe6e67f09b3fd51fec", 1, 2,
     "977c19fe95fb44803857db007bcf7664da2420493d7fb55ff7a81698e2b3ccff"),
    (("plofuzz", 3, 1, 8, 1935557945, 0.75),
     "41e28d10f51b5a2171366bd978b10a4a65c7a8f2217e18b8e34a9f57bee499e5", 0, 1,
     "41e28d10f51b5a2171366bd978b10a4a65c7a8f2217e18b8e34a9f57bee499e5"),
    (("plofuzz", 2, 2, 10, 1719376449, 0.75),
     "f8454149111b862bab445d33ecf675f9080e7f35220162aab0f8cc32ad4e8e9d", 1, 2,
     "aceaeb83703a0ed3d297aef74f7a2df218449d2ed81157fd1f6d79b28df5ecbd"),
    (("plofuzz", 3, 3, 12, 1146093674, 0.75),
     "db4de12945810f3031ddbe58e802074e78cdff51ac09d8a8fd9ec492fa2941d6", 2, 2,
     "0af4e21b2b8cd7b4f881f3b5de9a22a8c8cf3964a328d23d6011e75f6cb63916"),
    (("plofuzz", 3, 3, 8, 1641802757, 0.75),
     "f729ae07122c4beec96448621d01645d01207623e5723940bd187e20cbc9005c", 1, 2,
     "ef5a36e1e2a8b431521fa7f20f637e7add9da4d4f3063e08e24e89e7bf9c0b30"),
    (("plofuzz", 2, 2, 12, 2057392063, 0.4),
     "49cda0ab93b62e142693f02cdfa5fd9ce173a7f4bdc37df8a88b63b1ac68d9d3", 1, 2,
     "96f9de07baddf53f03a432114a831357846cc47806d835bae3abe60fc5d143b2"),
    (("plofuzz", 4, 3, 7, 1289383355, 0.4),
     "e249defbf1e4139615f4704ab56112f1c33a9e5746e1dd035ca6f3e05bcfc1f4", 1, 2,
     "d6c746e864f8eda884cdeb7ffa66808c9dc7416753931137afa6230246767dcb"),
    (("wirefuzz", 3, 3, 10, 1791089862, 0.4),
     "6846ea078a1122241517e86edf49ded3e20a702429688e10d920718e98f58375", 1, 2,
     "d3b906fd8dec93d127b25f2da6c59dd1d4f55355364c2f1e031e4649f3fba757"),
    (("wirefuzz", 2, 2, 13, 486266379, 0.75),
     "c165ffb573d71bbcb16f94e9cd9b18b1f853e4acbb49a51907b7e9e1059f0334", 1, 2,
     "bd6998e652d4c9e4b938bc962c79d7a50abcd2c4e5a17c3ca66686c6e85df3d9"),
    (("wirefuzz", 4, 1, 5, 973783638, 0.4),
     "5a1a201a87dbd2aeb3b4e770bb8fbfac3e970c01db4a4058fdfd8bd83dfac3b7", 0, 1,
     "5a1a201a87dbd2aeb3b4e770bb8fbfac3e970c01db4a4058fdfd8bd83dfac3b7"),
    (("wirefuzz", 2, 3, 11, 1832708200, 0.4),
     "dff9f303215564a8f370d664c05016d2cd62416c02311d720e39d91ea8285582", 3, 2,
     "62408f20b218ddae14f9ef144eea448f87a03640744e74c1f4d0b4033aae0a2b"),
    (("wirefuzz", 3, 2, 3, 2123341477, 0.4),
     "c4bbf69d0a7c96488d79acfdccef9c020b45a2d04e3ede59acc57a4b03b7ce9f", 0, 1,
     "c4bbf69d0a7c96488d79acfdccef9c020b45a2d04e3ede59acc57a4b03b7ce9f"),
    (("wirefuzz", 2, 2, 7, 958992983, 0.4),
     "95caea2fc379fb85bd7ca2fb4a82c731afe1b9a2b024761b4d9cc0c075773dd2", 0, 1,
     "95caea2fc379fb85bd7ca2fb4a82c731afe1b9a2b024761b4d9cc0c075773dd2"),
    (("xheavy", 4, 3, 14, 857663042, 0.4),
     "16aee96c26cf1f57afe12e87e866254dda638f074861adb57c7a81c5a8e471b5", 0, 1,
     "16aee96c26cf1f57afe12e87e866254dda638f074861adb57c7a81c5a8e471b5"),
    (("xheavy", 4, 3, 14, 381894056, 0.4),
     "4c16b303d768813cd1c2498ea86ce5117011b2055ea369ecefa2b066516f6db7", 2, 3,
     "b652db9072dc31c305ebf7046d4ee70aeed7ea4c412e3adab4ca0da34000fc96"),
]

_LIBRARY = {"full_adder": full_adder, "parity_checker4": lambda: parity_checker(4)}


def _small_case(network):
    if isinstance(network, str):
        return _LIBRARY[network](), False
    name, pis, pos, gates, seed, locality = network
    spec = GeneratorSpec(name, pis, pos, gates, seed=seed, locality=locality)
    return generate_network(spec), name == "xheavy"


@pytest.mark.parametrize(
    "network,plo_sha,moves,passes,wr_sha",
    SMALL_GOLDEN,
    ids=[n if isinstance(n, str) else f"{n[0]}-{n[4]}" for n, *_ in SMALL_GOLDEN],
)
def test_small_networks_golden(network, plo_sha, moves, passes, wr_sha):
    net, compact = _small_case(network)
    layout = orthogonal_layout(net, OrthoParams(compact=compact)).layout
    result = post_layout_optimization(layout.clone())
    assert (result.moves_applied, result.passes) == (moves, passes)
    assert _sha(result.layout) == plo_sha
    assert_layout_good(result.layout, net)
    reduced = wiring_reduction(layout).layout
    assert _sha(reduced) == wr_sha
    assert_layout_good(reduced, net)
