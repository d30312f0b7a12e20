"""Network simulation and equivalence checking helpers.

Small networks are compared exhaustively through their truth tables;
larger networks (ISCAS85/EPFL scale) are compared on deterministic random
stimulus, which is how equivalence is sanity-checked for layouts that are
too large for exhaustive simulation.

Both paths run on the **bit-parallel (word-level) engine**: every
stimulus vector occupies one bit position of an arbitrary-precision
integer word per signal, so :meth:`LogicNetwork.simulate_words`
evaluates each gate once per word with bitwise operations instead of
once per vector.  The per-vector walk it replaced survives only as a
test-only oracle in ``tests/networks/test_simulation_words.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .logic_network import LogicNetwork
from .truth_table import TruthTable

#: Networks with at most this many PIs are checked exhaustively.
EXHAUSTIVE_LIMIT = 12


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check between two designs."""

    equivalent: bool
    counterexample: tuple[bool, ...] | None = None
    checked_exhaustively: bool = False
    #: Stimulus vectors charged against the caller's budget.  The two
    #: corner vectors (all-zeros/all-ones) the sampled path always adds
    #: are *not* counted here.
    num_vectors: int = 0
    #: Human-readable cause when ``equivalent`` is False and no single
    #: counterexample vector applies (e.g. an interface mismatch).
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def random_vectors(num_inputs: int, num_vectors: int, seed: int = 0):
    """Deterministic random input vectors (each a tuple of booleans)."""
    rng = random.Random(seed)
    for _ in range(num_vectors):
        yield tuple(bool(rng.getrandbits(1)) for _ in range(num_inputs))


def all_vectors(num_inputs: int):
    """All input vectors in row order (variable 0 is the LSB)."""
    for row in range(1 << num_inputs):
        yield tuple(bool(row >> i & 1) for i in range(num_inputs))


# -- word-level packing -------------------------------------------------------


def pack_vectors(vectors, num_inputs: int) -> tuple[list[int], int]:
    """Pack per-vector boolean tuples into one integer word per input.

    Bit ``j`` of word ``i`` is vector ``j``'s value for input ``i`` —
    the layout :meth:`LogicNetwork.simulate_words` consumes.  Returns
    ``(words, num_vectors)``.
    """
    words = [0] * num_inputs
    count = 0
    for j, vector in enumerate(vectors):
        if len(vector) != num_inputs:
            raise ValueError(
                f"vector {j} has {len(vector)} values, expected {num_inputs}"
            )
        bit = 1 << j
        for i, value in enumerate(vector):
            if value:
                words[i] |= bit
        count += 1
    return words, count


def unpack_vector(input_words, position: int) -> tuple[bool, ...]:
    """Recover stimulus vector ``position`` from packed input words."""
    return tuple(bool(word >> position & 1) for word in input_words)


def random_words(num_inputs: int, num_vectors: int, seed: int = 0) -> list[int]:
    """Packed-word form of :func:`random_vectors` (bit-identical stimulus)."""
    rng = random.Random(seed)
    words = [0] * num_inputs
    for j in range(num_vectors):
        bit = 1 << j
        for i in range(num_inputs):
            if rng.getrandbits(1):
                words[i] |= bit
    return words


def exhaustive_words(num_inputs: int) -> tuple[list[int], int]:
    """Packed words covering all ``2^n`` vectors (projection patterns)."""
    rows = 1 << num_inputs
    return [TruthTable.projection(v, num_inputs).bits for v in range(num_inputs)], rows


def _interface_compatible(a: LogicNetwork, b: LogicNetwork) -> str | None:
    if a.num_pis() != b.num_pis():
        return f"PI count mismatch: {a.num_pis()} vs {b.num_pis()}"
    if a.num_pos() != b.num_pos():
        return f"PO count mismatch: {a.num_pos()} vs {b.num_pos()}"
    return None


def _first_difference(words_a: list[int], words_b: list[int]) -> int | None:
    """Lowest bit position at which any PO word pair disagrees."""
    position: int | None = None
    for wa, wb in zip(words_a, words_b):
        diff = wa ^ wb
        if diff:
            low = (diff & -diff).bit_length() - 1
            if position is None or low < position:
                position = low
    return position


def check_equivalence(
    a: LogicNetwork,
    b: LogicNetwork,
    num_vectors: int = 256,
    seed: int = 0,
) -> EquivalenceResult:
    """Check whether two networks compute the same functions.

    PIs and POs are matched by position.  Up to :data:`EXHAUSTIVE_LIMIT`
    inputs the check is a proof; beyond that it samples ``num_vectors``
    deterministic random vectors plus the two corner vectors
    (all-zeros/all-ones), which ride along for free and are not charged
    against ``num_vectors``.  All stimulus is packed into integer words
    and each gate is evaluated once.
    """
    problem = _interface_compatible(a, b)
    if problem is not None:
        return EquivalenceResult(False, None, reason=problem)
    n = a.num_pis()
    if n <= EXHAUSTIVE_LIMIT:
        words, count = exhaustive_words(n)
        budgeted = count
        exhaustive = True
    else:
        corners = [tuple([False] * n), tuple([True] * n)]
        words, count = pack_vectors(corners + list(random_vectors(n, num_vectors, seed)), n)
        budgeted = count - len(corners)
        exhaustive = False
    out_a = a.simulate_words(words, count)
    out_b = b.simulate_words(words, count)
    position = _first_difference(out_a, out_b)
    if position is not None:
        return EquivalenceResult(
            False, unpack_vector(words, position), exhaustive, budgeted
        )
    return EquivalenceResult(True, None, exhaustive, budgeted)


def output_signature(network: LogicNetwork, num_vectors: int = 64, seed: int = 7) -> tuple:
    """A hashable functional signature over deterministic stimulus.

    Two networks with different signatures are definitely inequivalent;
    identical signatures indicate likely equivalence.  Used by the
    benchmark database to detect accidental corruption of generated
    files and as the network component of flow-cache keys.  Computed
    word-level: one packed integer per PO.
    """
    n = network.num_pis()
    if n <= EXHAUSTIVE_LIMIT:
        return tuple(t.bits for t in network.simulate())
    words = random_words(n, num_vectors, seed)
    return (num_vectors, *network.simulate_words(words, num_vectors))
