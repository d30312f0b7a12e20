"""Golden bytes of the cell-level export.

Pins the SHA-256 of ``cell_layout_to_qca(apply_qca_one(layout))`` for
the Trindade16 mux21/xor2 exact layouts of ``test_exact_golden.py`` on
2DDWave and USE and for the full c432 ``orthogonal_layout`` (crossings,
fixed cells and pin labels), and of ``sidb_layout_to_sqd(
apply_bestagon(layout))`` for the mux21/xor2 hexagonal exact layouts.
Each case also checks the ``.fgl`` prefix of its gate-level input, so a
change in the search shows up as such and not as a cell-level change.
Every QCA ONE case also goes through the text path the server takes for
``format=qca`` (``layout_to_fgl`` → :func:`~repro.io.fgl.fgl_to_columns`
→ :func:`~repro.gatelibs.apply_gate_library`) to the same digest.
Any rewrite of the gate library compilers or the cell writers must keep
these bytes.
"""

import hashlib

import pytest

from repro.benchsuite import get_benchmark
from repro.gatelibs import apply_bestagon, apply_gate_library, apply_qca_one
from repro.io.fgl import fgl_to_columns, layout_to_fgl
from repro.io.qca import cell_layout_to_qca
from repro.io.sqd import sidb_layout_to_sqd
from repro.networks import decompose_to_aoig, prepare_for_layout
from repro.physical_design import exact_layout, orthogonal_layout

from ..physical_design.test_exact_golden import _NETWORKS, _params

#: case -> (SHA-256 prefix of the gate-level .fgl, SHA-256 of the cell file)
GOLDEN = {
    ("mux21", "2DDWave"): (
        "eb06404d6aa4",
        "e4bfd04209432baa88199a2562dfbddb709cb5a7c490439c410e9ffdd123bcf6",
    ),
    ("mux21", "USE"): (
        "035e61d08731",
        "4c22c9b8163de39e140806b0e5ee769da0534b035fa7819be22984e98f338d65",
    ),
    ("xor2", "2DDWave"): (
        "768d73aaedc2",
        "3684d1c4ff856bcf44ed7a41dbd7e6a143922a72e52acf77157c5000ee338589",
    ),
    ("xor2", "USE"): (
        "265a9b2cb319",
        "cb6b074a55546f403bb89c8596303be13b24dad30ba853fbcabf45f4e687125d",
    ),
    ("mux21", "hex"): (
        "830395e8b902",
        "903290f1fd2bd480fb47ce0f3fb6545bb1adfa9b28c7e79135c055eaf88e79bb",
    ),
    ("xor2", "hex"): (
        "4181fee87b71",
        "94d58e6d5526bc702d00712ff2ae97d97188214d57602cfcac5f19f5ad81c3ee",
    ),
    ("c432", "ortho"): (
        "7cd7e4ed6d34",
        "7784f6265ddf249d7e901d0e775082ddb47d69eab0cfaf811c97a5fd0bf29920",
    ),
}

#: The exact search alone takes about 4 s here.
_SLOW = {("xor2", "USE")}


def _gate_layout(network: str, flow: str):
    if flow == "ortho":
        spec = get_benchmark("iscas85", network)
        return orthogonal_layout(
            prepare_for_layout(decompose_to_aoig(spec.build(None)))
        ).layout
    result = exact_layout(_NETWORKS[network](), _params(flow))
    assert result.succeeded and not result.timed_out
    return result.layout


def _cell_text(layout, flow: str) -> str:
    if flow == "hex":
        return sidb_layout_to_sqd(apply_bestagon(layout))
    return cell_layout_to_qca(apply_qca_one(layout))


def _cases():
    for key in GOLDEN:
        marks = [pytest.mark.slow] if key in _SLOW else []
        yield pytest.param(*key, marks=marks, id="-".join(key))


@pytest.mark.parametrize("network, flow", _cases())
def test_cell_bytes_are_golden(network, flow):
    layout = _gate_layout(network, flow)
    fgl_prefix, cell_digest = GOLDEN[(network, flow)]
    assert hashlib.sha256(layout_to_fgl(layout).encode()).hexdigest().startswith(fgl_prefix)
    text = _cell_text(layout, flow)
    assert hashlib.sha256(text.encode()).hexdigest() == cell_digest
    if flow != "hex":
        columns = fgl_to_columns(layout_to_fgl(layout))
        served = cell_layout_to_qca(apply_gate_library(columns, "QCA ONE"))
        assert hashlib.sha256(served.encode()).hexdigest() == cell_digest
