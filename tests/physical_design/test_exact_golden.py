"""Golden bytes of the optimized exact search on Trindade16.

Pins the SHA-256 of the serialized layout and the number of explored
aspect ratios for mux21 and xor2 on every regular Cartesian scheme the
portfolio runs (2DDWave, USE, RES, ESR) and on hexagonal ROW with native
two-input gates (the Bestagon flow).  Any change to the search, its
pruning or the way the returned layout is built must keep these bytes.
``ratio_timeout=None`` and a generous ``timeout`` keep every run
deterministic: no ratio ends on the clock.
"""

import hashlib

import pytest

from repro.io.fgl import layout_to_fgl
from repro.layout import ESR, RES, ROW, TWODDWAVE, USE, Topology
from repro.networks.library import mux21, xor2
from repro.physical_design import ExactParams, exact_layout

_NETWORKS = {"mux21": mux21, "xor2": xor2}
_SCHEMES = {"2DDWave": TWODDWAVE, "USE": USE, "RES": RES, "ESR": ESR}

#: (network, scheme) -> (SHA-256 prefix of the .fgl text, explored ratios)
GOLDEN = {
    ("mux21", "2DDWave"): ("eb06404d6aa4", 3),
    ("mux21", "USE"): ("035e61d08731", 10),
    ("mux21", "RES"): ("f4ef978b2543", 11),
    ("mux21", "ESR"): ("3a1814a22413", 5),
    ("mux21", "hex"): ("830395e8b902", 2),
    ("xor2", "2DDWave"): ("768d73aaedc2", 9),
    ("xor2", "USE"): ("265a9b2cb319", 11),
    ("xor2", "RES"): ("5e16e4a6023c", 11),
    ("xor2", "ESR"): ("dc9e3ce6a625", 11),
    ("xor2", "hex"): ("4181fee87b71", 4),
}

#: Runs that take several seconds each (many infeasible ratios refuted).
_SLOW = {("xor2", "USE"), ("xor2", "RES"), ("xor2", "ESR")}


def _params(scheme_name: str) -> ExactParams:
    if scheme_name == "hex":
        return ExactParams(
            scheme=ROW,
            topology=Topology.HEXAGONAL_EVEN_ROW,
            keep_two_input=True,
            timeout=120,
            ratio_timeout=None,
        )
    return ExactParams(scheme=_SCHEMES[scheme_name], timeout=120, ratio_timeout=None)


def _cases():
    for key in GOLDEN:
        marks = [pytest.mark.slow] if key in _SLOW else []
        yield pytest.param(*key, marks=marks, id="-".join(key))


@pytest.mark.parametrize("network, scheme", _cases())
def test_exact_bytes_are_golden(network, scheme):
    result = exact_layout(_NETWORKS[network](), _params(scheme))
    assert result.succeeded and not result.timed_out
    digest = hashlib.sha256(layout_to_fgl(result.layout).encode()).hexdigest()
    prefix, explored = GOLDEN[(network, scheme)]
    assert digest.startswith(prefix)
    assert result.explored_ratios == explored
