"""Byte pins of the ortho family's outputs.

The plain ortho layout and the ortho + InOrd (SDN) + PLO layout of a
function are both placed from the identity PI order; these digests pin
every artifact a ``generate`` and a ``best`` run produce for them, so a
change to how (or how often) the placements are computed must leave
the bytes, and the record order, exactly as they are.

Exact search and NanoPlaceR end on wall-clock budgets, so their scale
gates switch them off here; InOrd and PLO get budgets they never reach,
which makes every remaining flow deterministic.
"""

import hashlib

import pytest

from repro.benchsuite import get_benchmark
from repro.core import (
    BESTAGON,
    QCA_ONE,
    BenchmarkDatabase,
    BestParams,
    GenerationParams,
    best_layout,
)
from repro.io import layout_to_fgl
from repro.optimization import to_hexagonal
from repro.physical_design import OrthoParams, orthogonal_layout

SPECS = [
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "full_adder"),
    ("iscas85", "c17"),
]

PARAMS = GenerationParams(
    exact_max_elements=0,
    nanoplacer_max_gates=0,
    inord_evaluations=3,
    inord_timeout=120.0,
    plo_timeout=120.0,
    node_cap=60,
    reproducible=True,
)

BEST_PARAMS = BestParams(
    exact_max_elements=0,
    nanoplacer_max_gates=0,
    inord_timeout=120.0,
    plo_timeout=120.0,
)

#: SHA-256 over ``(path, text)`` of every record a reproducible
#: generate of :data:`SPECS` creates, in record order.
GENERATE_DIGEST = "877873406b4d73ba62e5523f09571ec970efc58c1f58ae3b76abeafaa2babbb9"

#: SHA-256 over every candidate of ``best_layout`` for :data:`SPECS`
#: and both libraries: provenance label, scheme and ``.fgl`` text.
BEST_DIGEST = {
    QCA_ONE: "baa04be227bc261cce1a232a789917defd574a836eb8d6bba0ade7ab1696aeb5",
    BESTAGON: "1345e805c5a9df6cce4e297b306794e41d4a57a03ff8f84e7243aa89727d1446",
}


def test_generate_artifacts_are_pinned(tmp_path):
    db = BenchmarkDatabase(tmp_path)
    outcome = db.generate(
        [get_benchmark(suite, name) for suite, name in SPECS],
        libraries=(QCA_ONE, BESTAGON),
        params=PARAMS,
    )
    digest = hashlib.sha256()
    for record in outcome:
        digest.update(record.path.encode("utf-8") + b"\0")
        digest.update(db.artifact_text(record).encode("utf-8") + b"\0")
    assert digest.hexdigest() == GENERATE_DIGEST


@pytest.mark.parametrize("library", [QCA_ONE, BESTAGON])
def test_best_layouts_are_pinned(library):
    digest = hashlib.sha256()
    for suite, name in SPECS:
        network = get_benchmark(suite, name).build(PARAMS.node_cap)
        result = best_layout(network, library, BEST_PARAMS)
        for candidate in result.candidates:
            digest.update(candidate.algorithm_label.encode("utf-8") + b"\0")
            digest.update(candidate.scheme.encode("utf-8") + b"\0")
            digest.update(layout_to_fgl(candidate.layout).encode("utf-8") + b"\0")
    assert digest.hexdigest() == BEST_DIGEST[library]


@pytest.mark.parametrize("library", [QCA_ONE, BESTAGON])
def test_best_plain_candidate_is_not_rewritten_by_plo(library):
    # 2bitaddermaj's identity PI order wins InOrd in both libraries and
    # PLO then changes that layout: the plain candidate must still be
    # the untouched ortho placement.
    network = get_benchmark("fontes18", "2bitaddermaj").build(PARAMS.node_cap)
    keep_two_input = library == BESTAGON
    result = best_layout(network, library, BEST_PARAMS)
    suffix = ("45°",) if keep_two_input else ()
    (plain,) = [c for c in result.candidates if c.optimizations == suffix]
    expected = orthogonal_layout(network, OrthoParams(keep_two_input=keep_two_input)).layout
    if keep_two_input:
        expected = to_hexagonal(expected).layout
    assert layout_to_fgl(plain.layout) == layout_to_fgl(expected)
