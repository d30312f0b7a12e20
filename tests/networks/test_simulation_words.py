"""Property tests for the bit-parallel (word-level) simulation engine.

The word-level path must agree bit-for-bit with the per-vector reference
``evaluate`` on every gate type, on random networks, and on networks
extracted from layouts of both topologies.
"""


import pytest

from repro.layout.coordinates import Topology
from repro.networks import (
    GateType,
    GeneratorSpec,
    LogicNetwork,
    check_equivalence,
    generate_network,
    output_signature,
    pack_vectors,
    random_vectors,
    random_words,
    unpack_vector,
)
from repro.networks.library import full_adder, full_adder_maj, mux21
from repro.networks.simulation import (
    EXHAUSTIVE_LIMIT,
    EquivalenceResult,
    all_vectors,
)
from repro.optimization.hexagonalization import to_hexagonal
from repro.physical_design import orthogonal_layout

#: Every gate mix entry, so random networks exercise all two-input types.
ALL_TWO_INPUT_MIX = (
    (GateType.AND, 0.2),
    (GateType.NAND, 0.15),
    (GateType.OR, 0.15),
    (GateType.NOR, 0.1),
    (GateType.XOR, 0.15),
    (GateType.XNOR, 0.1),
    (GateType.NOT, 0.15),
)


def words_equal_evaluate(network, num_vectors=64, seed=0):
    """Core property: simulate_words ≡ one evaluate call per vector."""
    vectors = list(random_vectors(network.num_pis(), num_vectors, seed))
    words, count = pack_vectors(vectors, network.num_pis())
    out_words = network.simulate_words(words, count)
    for j, vector in enumerate(vectors):
        expected = network.evaluate(vector)
        got = [bool(word >> j & 1) for word in out_words]
        if got != expected:
            return False
    return True


def all_gate_types_network() -> LogicNetwork:
    """One network containing every evaluable gate type."""
    ntk = LogicNetwork("zoo")
    a, b, c = ntk.create_pi("a"), ntk.create_pi("b"), ntk.create_pi("c")
    nodes = [
        ntk.create_buf(a),
        ntk.create_not(b),
        ntk.create_and(a, b),
        ntk.create_nand(b, c),
        ntk.create_or(a, c),
        ntk.create_nor(a, b),
        ntk.create_xor(b, c),
        ntk.create_xnor(a, c),
        ntk.create_maj(a, b, c),
        ntk.create_mux(a, b, c),
        ntk.create_fanout(c),
        ntk.get_constant(False),
        ntk.get_constant(True),
    ]
    for node in nodes:
        ntk.create_po(node)
    return ntk


class TestWordEvaluation:
    def test_all_gate_types_agree_with_evaluate(self):
        assert words_equal_evaluate(all_gate_types_network(), num_vectors=8)

    def test_all_gate_types_exhaustive_words_match_truth_tables(self):
        ntk = all_gate_types_network()
        tables = ntk.simulate()
        for row in range(8):
            vector = tuple(bool(row >> i & 1) for i in range(3))
            assert [t.get(row) for t in tables] == ntk.evaluate(vector)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_networks_agree_with_evaluate(self, seed):
        spec = GeneratorSpec(
            f"rnd{seed}", 8 + seed, 3, 40 + 10 * seed, seed=seed,
            gate_mix=ALL_TWO_INPUT_MIX,
        )
        assert words_equal_evaluate(generate_network(spec), num_vectors=64, seed=seed)

    def test_wide_word_many_vectors(self):
        spec = GeneratorSpec("wide", 16, 4, 120, seed=3)
        assert words_equal_evaluate(generate_network(spec), num_vectors=300)

    def test_library_functions(self):
        for ntk in (mux21(), full_adder(), full_adder_maj()):
            assert words_equal_evaluate(ntk, num_vectors=16)

    def test_input_word_count_checked(self):
        with pytest.raises(ValueError):
            mux21().simulate_words([0, 0], 4)

    def test_num_vectors_must_be_positive(self):
        with pytest.raises(ValueError):
            mux21().simulate_words([0, 0, 0], 0)

    def test_words_masked_to_vector_count(self):
        ntk = LogicNetwork()
        a = ntk.create_pi()
        ntk.create_po(ntk.create_not(a))
        # Input bits beyond num_vectors must not leak into outputs.
        (word,) = ntk.simulate_words([0b1111_0000], 4)
        assert word == 0b1111


class TestLayoutExtractionTopologies:
    def test_cartesian_extraction_agrees(self):
        net = full_adder()
        layout = orthogonal_layout(net).layout
        extracted = layout.extract_network()
        assert words_equal_evaluate(extracted, num_vectors=8)
        assert check_equivalence(net, extracted).equivalent

    def test_hexagonal_extraction_agrees(self):
        net = full_adder()
        hexed = to_hexagonal(orthogonal_layout(net).layout).layout
        assert hexed.topology is Topology.HEXAGONAL_EVEN_ROW
        extracted = hexed.extract_network()
        assert words_equal_evaluate(extracted, num_vectors=8)
        assert check_equivalence(net, extracted).equivalent

    def test_collapsed_extraction_drops_wires(self):
        layout = orthogonal_layout(full_adder()).layout
        collapsed = layout.extract_network()
        structural = layout.extract_network(collapse_wires=False)
        assert collapsed.num_gates() < structural.num_gates()
        assert check_equivalence(collapsed, structural).equivalent


def scalar_equivalence(a, b, num_vectors=256, seed=0):
    """Test-only oracle: the per-vector walk ``check_equivalence`` ran
    before the word-level engine, one ``evaluate`` call per vector over
    the same stimulus (all vectors up to EXHAUSTIVE_LIMIT inputs, else
    the two corner vectors then ``random_vectors``)."""
    n = a.num_pis()
    if n <= EXHAUSTIVE_LIMIT:
        vectors = list(all_vectors(n))
        budgeted, exhaustive = len(vectors), True
    else:
        vectors = [tuple([False] * n), tuple([True] * n)]
        vectors += list(random_vectors(n, num_vectors, seed))
        budgeted, exhaustive = len(vectors) - 2, False
    for vector in vectors:
        if a.evaluate(vector) != b.evaluate(vector):
            return EquivalenceResult(False, vector, exhaustive, budgeted)
    return EquivalenceResult(True, None, exhaustive, budgeted)


#: The oracle's verdict on each seed's pair of distinct networks, taken
#: from the retired ``engine="scalar"`` path: the corner vector that
#: first tells them apart.
SCALAR_COUNTEREXAMPLES = {0: False, 1: False, 2: True, 3: False}


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_oracle_verdicts_pinned(self, seed):
        spec_a = GeneratorSpec("eng", 16, 3, 80, seed=seed)
        spec_b = GeneratorSpec("eng", 16, 3, 80, seed=seed + 100)
        a, b = generate_network(spec_a), generate_network(spec_b)
        same = scalar_equivalence(a, a.clone(), num_vectors=48)
        assert same == EquivalenceResult(True, None, False, 48)
        differ = scalar_equivalence(a, b, num_vectors=48)
        corner = tuple([SCALAR_COUNTEREXAMPLES[seed]] * 16)
        assert differ == EquivalenceResult(False, corner, False, 48)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_and_word_engines_agree(self, seed):
        spec_a = GeneratorSpec("eng", 16, 3, 80, seed=seed)
        spec_b = GeneratorSpec("eng", 16, 3, 80, seed=seed + 100)
        a, b = generate_network(spec_a), generate_network(spec_b)
        for x, y in ((a, a.clone()), (a, b)):
            scalar = scalar_equivalence(x, y, num_vectors=48)
            words = check_equivalence(x, y, num_vectors=48)
            assert scalar.equivalent == words.equivalent
            assert scalar.counterexample == words.counterexample
            assert scalar.num_vectors == words.num_vectors

    def test_exhaustive_engines_agree(self):
        a, b = full_adder(), full_adder_maj()
        scalar = scalar_equivalence(a, b)
        words = check_equivalence(a, b)
        assert scalar == EquivalenceResult(True, None, True, 8)
        assert scalar.equivalent and words.equivalent
        assert scalar.checked_exhaustively and words.checked_exhaustively
        assert scalar.num_vectors == words.num_vectors == 8

    def test_corner_vectors_not_charged_to_budget(self):
        spec = GeneratorSpec("big", 20, 3, 60, seed=4)
        a, b = generate_network(spec), generate_network(spec)
        result = check_equivalence(a, b, num_vectors=32)
        assert result.num_vectors == 32

    def test_interface_mismatch_reports_reason(self):
        result = check_equivalence(mux21(), full_adder())
        assert not result.equivalent
        assert result.reason is not None
        assert "mismatch" in result.reason


class TestPackingHelpers:
    def test_pack_unpack_roundtrip(self, rng):
        vectors = [
            tuple(bool(rng.getrandbits(1)) for _ in range(5)) for _ in range(40)
        ]
        words, count = pack_vectors(vectors, 5)
        assert count == 40
        for j, vector in enumerate(vectors):
            assert unpack_vector(words, j) == vector

    def test_random_words_match_random_vectors(self):
        vectors = list(random_vectors(7, 50, seed=3))
        packed, _ = pack_vectors(vectors, 7)
        assert random_words(7, 50, seed=3) == packed

    def test_pack_rejects_ragged_vectors(self):
        with pytest.raises(ValueError):
            pack_vectors([(True, False), (True,)], 2)


def test_output_signature_word_path_distinguishes():
    spec_a = GeneratorSpec("sig", 20, 3, 60, seed=4)
    spec_b = GeneratorSpec("sig", 20, 3, 60, seed=5)
    a1 = output_signature(generate_network(spec_a))
    a2 = output_signature(generate_network(spec_a))
    b = output_signature(generate_network(spec_b))
    assert a1 == a2
    assert a1 != b
    hash(a1)  # must stay hashable for cache keys
