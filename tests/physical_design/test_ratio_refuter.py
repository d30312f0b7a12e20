"""Soundness of the placement relaxation that refutes aspect ratios.

``exact_layout`` skips a ratio the relaxation (``_Relaxation``) refutes,
so a refutation of a ratio the search could solve would silently make
the returned layout larger.  For small Trindade16 functions on every
regular scheme the portfolio runs, walk the ratios in the search's
order up to the answer (the first ratio the search solves, pinned
below) and check that

* every refuted ratio is one the unchanged search (``_Searcher``, no
  ratio slices, a generous deadline) fails on;
* the answer ratio is not refuted, and the search does solve it;
* two relaxations of the same ratio give the same verdict: the node
  budget is a count, never a clock.

par_gen's answers on the feedback schemes lie beyond ratios the search
needs minutes for (4x6 does not finish in 120 s), so those walks stop
at area 20 and check only the refutations.
"""

from __future__ import annotations

import time

import pytest

from repro.benchsuite import get_benchmark
from repro.layout import ESR, RES, ROW, TWODDWAVE, USE, Topology
from repro.networks.transforms import decompose_to_aoig, prepare_for_layout
from repro.physical_design.exact import (
    ExactParams,
    _aspect_ratios,
    _network_profile,
    _ratio_feasible,
    _Relaxation,
    _search_order,
    _Searcher,
)

_SCHEMES = {"2DDWave": TWODDWAVE, "USE": USE, "RES": RES, "ESR": ESR}

#: (function, scheme) -> (last (width, height) walked, whether it is the
#: answer: the first ratio the search solves).
HORIZON = {
    ("mux21", "2DDWave"): ((3, 4), True),
    ("mux21", "USE"): ((3, 5), True),
    ("mux21", "RES"): ((3, 5), True),
    ("mux21", "ESR"): ((4, 3), True),
    ("mux21", "hex"): ((2, 7), True),
    ("xor2", "2DDWave"): ((3, 5), True),
    ("xor2", "USE"): ((4, 4), True),
    ("xor2", "RES"): ((4, 4), True),
    ("xor2", "ESR"): ((5, 3), True),
    ("xor2", "hex"): ((3, 6), True),
    ("xnor2", "2DDWave"): ((3, 5), True),
    ("xnor2", "USE"): ((4, 5), True),
    ("xnor2", "RES"): ((6, 3), True),
    ("xnor2", "ESR"): ((5, 3), True),
    ("half_adder", "2DDWave"): ((4, 5), True),
    ("half_adder", "USE"): ((4, 6), True),
    ("half_adder", "RES"): ((7, 3), True),
    ("half_adder", "ESR"): ((6, 4), True),
    ("par_gen", "2DDWave"): ((4, 8), True),
    ("par_gen", "USE"): ((5, 4), False),
    ("par_gen", "RES"): ((5, 4), False),
    ("par_gen", "ESR"): ((5, 4), False),
}

#: Cases whose refuted ratios take the search several seconds.
_SLOW = {
    ("xor2", "USE"),
    ("xnor2", "USE"),
    ("xnor2", "RES"),
    ("half_adder", "USE"),
    ("half_adder", "RES"),
    ("half_adder", "ESR"),
    ("par_gen", "2DDWave"),
    ("par_gen", "USE"),
    ("par_gen", "RES"),
    ("par_gen", "ESR"),
}


def _params(scheme: str) -> ExactParams:
    if scheme == "hex":
        return ExactParams(
            scheme=ROW, topology=Topology.HEXAGONAL_EVEN_ROW, keep_two_input=True
        )
    return ExactParams(scheme=_SCHEMES[scheme])


def _cases():
    for key in HORIZON:
        marks = [pytest.mark.slow] if key in _SLOW else []
        yield pytest.param(*key, marks=marks, id="-".join(key))


@pytest.mark.parametrize("name, scheme", _cases())
def test_refuted_ratios_are_ones_the_search_fails_on(name, scheme):
    params = _params(scheme)
    network = get_benchmark("trindade16", name).build(None)
    ntk = prepare_for_layout(decompose_to_aoig(network, params.keep_two_input))
    elements = _search_order(ntk)
    profile = _network_profile(ntk, elements)
    horizon, is_answer = HORIZON[(name, scheme)]
    refuted = []
    for width, height in _aspect_ratios(params, len(elements)):
        if not _ratio_feasible(
            params.scheme, params.topology, width, height, profile, params.border_io
        ):
            continue
        verdict = _Relaxation(ntk, elements, width, height, params).refutes()
        assert _Relaxation(ntk, elements, width, height, params).refutes() == verdict
        searcher = _Searcher(ntk, elements, width, height, params, time.monotonic() + 600)
        if (width, height) == horizon and is_answer:
            assert not verdict, f"answer {width}x{height} refuted"
            assert searcher.run() is not None
            break
        if verdict:
            refuted.append((width, height))
            assert searcher.run() is None, f"{width}x{height} refuted but solvable"
        if (width, height) == horizon:
            break
    else:
        pytest.fail(f"{horizon} is not among the enumerated ratios")
    assert refuted
