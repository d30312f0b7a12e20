"""Golden bytes of the optimized exact search on Trindade16.

Pins the SHA-256 of the serialized layout, the number of explored
aspect ratios and the number of ratios refuted without search for mux21
and xor2 on every regular Cartesian scheme the portfolio runs (2DDWave,
USE, RES, ESR) and on hexagonal ROW with native two-input gates (the
Bestagon flow).  Any change to the search, its pruning or the way the
returned layout is built must keep these bytes; a change to the ratio
refutation moves only the counts.  ``ratio_timeout=None`` and a
generous ``timeout`` keep every run deterministic: no ratio ends on the
clock.
"""

import hashlib

import pytest

from repro.io.fgl import layout_to_fgl
from repro.layout import ESR, RES, ROW, TWODDWAVE, USE, Topology
from repro.networks.library import mux21, xor2
from repro.physical_design import ExactParams, exact_layout

_NETWORKS = {"mux21": mux21, "xor2": xor2}
_SCHEMES = {"2DDWave": TWODDWAVE, "USE": USE, "RES": RES, "ESR": ESR}

#: (network, scheme) -> (SHA-256 prefix of the .fgl text, explored
#: ratios, filtered ratios)
GOLDEN = {
    ("mux21", "2DDWave"): ("eb06404d6aa4", 1, 11),
    ("mux21", "USE"): ("035e61d08731", 1, 17),
    ("mux21", "RES"): ("f4ef978b2543", 1, 17),
    ("mux21", "ESR"): ("3a1814a22413", 1, 11),
    ("mux21", "hex"): ("830395e8b902", 1, 48),
    ("xor2", "2DDWave"): ("768d73aaedc2", 1, 14),
    ("xor2", "USE"): ("265a9b2cb319", 1, 16),
    ("xor2", "RES"): ("5e16e4a6023c", 1, 16),
    ("xor2", "ESR"): ("dc9e3ce6a625", 1, 15),
    ("xor2", "hex"): ("4181fee87b71", 1, 47),
}


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


@pytest.mark.parametrize("network, scheme", list(GOLDEN))
def test_exact_bytes_are_golden(network, scheme):
    result = exact_layout(_NETWORKS[network](), _params(scheme))
    assert result.succeeded and not result.timed_out
    digest = hashlib.sha256(layout_to_fgl(result.layout).encode()).hexdigest()
    prefix, explored, filtered = GOLDEN[(network, scheme)]
    assert digest.startswith(prefix)
    assert result.explored_ratios == explored
    assert result.stats.dimensions_filtered == filtered
