"""Byte pins of the ortho family's outputs.

The plain ortho layout and the ortho + InOrd (SDN) + PLO layout of a
function are both placed from the identity PI order; these digests pin
every artifact a ``generate`` run produces for them, so a change to how
(or how often) the placements are computed must leave the bytes, and
the record order, exactly as they are.

Exact search and NanoPlaceR end on wall-clock budgets, so their scale
gates switch them off here; InOrd and PLO get budgets they never reach,
which makes every remaining flow deterministic.
"""

import hashlib

import pytest

from repro.benchsuite import get_benchmark
from repro.core import BESTAGON, QCA_ONE, BenchmarkDatabase, GenerationParams
from repro.io import layout_to_fgl
from repro.networks import parse_verilog
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

#: SHA-256 over ``(path, text)`` of every record a reproducible
#: generate of :data:`SPECS` creates, in record order.
GENERATE_DIGEST = "9b8a2a51307e91b01f788bc5d97ba1a456b41ef58cf8ccdc81d7edc2439a3ab7"

#: SHA-256 over the text of every Bestagon record of that generate (the
#: plain ortho + 45° and ortho + InOrd + PLO + 45° artifacts of each
#: function), in record order.  Bestagon's InOrd scores the area after
#: 45°; the digest equals the one over the retired best-layout
#: portfolio's two Bestagon ortho candidates at the same InOrd and PLO
#: budgets, on the same Verilog-parsed networks.  Parsed, these
#: networks are AND/OR/NOT only, so the two-input placement is covered
#: by ``tests/core/test_table.py`` (fontes18/t).
HEX_ORTHO_DIGEST = "fda0e86219188a87762bae58e435e22b2630a65739656748202feb9736e599f8"

#: SHA-256 over the area-best record of every function of that generate
#: (what ``report`` and ``best`` tabulate), per library: algorithm
#: label, clocking scheme and artifact text, in ``BenchmarkDatabase.best``
#: order.  Ties go to the earlier record, so this also pins the tie-break.
BEST_DIGEST = {
    QCA_ONE: "66270503a8249eca2d44d3be897a12492404150f089d02ba2a30f48e74871ce1",
    BESTAGON: "9a5f0fca187a4587a3642655b18d321c20c3b224fca4d0eb71a541e618b16cb5",
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    db = BenchmarkDatabase(tmp_path_factory.mktemp("pins"))
    outcome = db.generate(
        [get_benchmark(suite, name) for suite, name in SPECS],
        libraries=(QCA_ONE, BESTAGON),
        params=PARAMS,
    )
    return db, outcome


def test_generate_artifacts_are_pinned(generated):
    db, outcome = generated
    digest = hashlib.sha256()
    for record in outcome:
        digest.update(record.path.encode("utf-8") + b"\0")
        digest.update(db.artifact_text(record).encode("utf-8") + b"\0")
    assert digest.hexdigest() == GENERATE_DIGEST


def test_bestagon_ortho_artifacts_are_pinned(generated):
    db, outcome = generated
    digest = hashlib.sha256()
    bestagon = [record for record in outcome if record.gate_library == BESTAGON]
    assert len(bestagon) == 2 * len(SPECS)
    for record in bestagon:
        digest.update(db.artifact_text(record).encode("utf-8") + b"\0")
    assert digest.hexdigest() == HEX_ORTHO_DIGEST


@pytest.mark.parametrize("library", [QCA_ONE, BESTAGON])
def test_best_layouts_are_pinned(generated, library):
    db, _ = generated
    digest = hashlib.sha256()
    winners = [record for record, _ in db.best() if record.gate_library == library]
    assert len(winners) == len(SPECS)
    for record in winners:
        label = ", ".join((record.algorithm, *record.optimizations))
        digest.update(label.encode("utf-8") + b"\0")
        digest.update(record.clocking_scheme.encode("utf-8") + b"\0")
        digest.update(db.artifact_text(record).encode("utf-8") + b"\0")
    assert digest.hexdigest() == BEST_DIGEST[library]


@pytest.mark.parametrize("library", [QCA_ONE, BESTAGON])
def test_plain_ortho_artifact_is_not_rewritten_by_plo(tmp_path, library):
    # 2bitaddermaj's identity PI order wins InOrd in both libraries and
    # PLO then changes that layout: the plain artifact must still be
    # the untouched ortho placement.
    spec = get_benchmark("fontes18", "2bitaddermaj")
    db = BenchmarkDatabase(tmp_path)
    outcome = db.generate([spec], libraries=(library,), params=PARAMS)
    keep_two_input = library == BESTAGON
    suffix = ("45°",) if keep_two_input else ()
    (plain,) = [r for r in outcome if r.algorithm == "ortho" and r.optimizations == suffix]
    (optimized,) = [r for r in outcome if "PLO" in r.optimizations]
    network = parse_verilog(db.artifact_text(outcome[0]))
    network.name = spec.name
    expected = orthogonal_layout(network, OrthoParams(keep_two_input=keep_two_input)).layout
    if keep_two_input:
        expected = to_hexagonal(expected).layout
    assert db.artifact_text(plain) == layout_to_fgl(expected)
    assert db.artifact_text(optimized) != db.artifact_text(plain)
