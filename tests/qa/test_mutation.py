"""Mutation tests: the harness must catch deliberately injected bugs.

Each test monkeypatches a defect into the physical-design stack, runs a
short fuzz campaign, and asserts the oracle stack catches it, the
shrinker reduces the witness, and the persisted corpus case replays
deterministically while the defect is active — the end-to-end contract
``mnt-bench fuzz`` relies on in CI.
"""

import pytest

from repro.layout.gate_layout import GateLayout
from repro.networks.logic_network import GateType
from repro.qa import CrashCorpus, FuzzParams, fuzz, replay_case


@pytest.fixture
def or_becomes_and(monkeypatch):
    """A silent logic bug: every placed OR gate computes AND instead."""
    original = GateLayout.create_gate

    def buggy(self, gate_type, tile, fanins, name=None):
        if gate_type is GateType.OR:
            gate_type = GateType.AND
        return original(self, gate_type, tile, fanins, name)

    monkeypatch.setattr(GateLayout, "create_gate", buggy)


@pytest.fixture
def router_drops_fanin(monkeypatch):
    """A routing bug: 3+-tile paths connect the consumer one tile short.

    ``ortho`` (the most-sampled algorithm) binds ``find_path`` directly,
    so the bug is injected at that binding.
    """
    from repro.physical_design import ortho, routing

    original = routing.find_path

    def buggy(layout, source, target, options=routing.RoutingOptions()):
        path = original(layout, source, target, options)
        if path is not None and len(path) >= 4:
            return path[:-2] + path[-1:]
        return path

    monkeypatch.setattr(ortho, "find_path", buggy)


def run_campaign(tmp_path, runs=12, seed=0):
    corpus_dir = tmp_path / "corpus"
    params = FuzzParams(runs=runs, seed=seed, corpus_dir=corpus_dir)
    return fuzz(params), CrashCorpus(corpus_dir)


class TestInjectedLogicBug:
    def test_caught_shrunk_and_replayed(self, or_becomes_and, tmp_path):
        report, corpus = run_campaign(tmp_path)
        assert report.cases, "injected OR→AND bug went unnoticed"
        # The wrong gate function must surface as an equivalence failure.
        oracles = {case.oracle for case in report.cases}
        assert "equivalence" in oracles, report.summary()
        case = next(c for c in report.cases if c.oracle == "equivalence")
        assert case.shrunk_gates <= 8, (
            f"shrinker left {case.shrunk_gates} gates"
        )
        assert case.shrunk_gates <= case.original_gates
        # Replay straight from the persisted JSON, twice: same verdict,
        # same message — the corpus entry is deterministic.
        stored = [c for _, c in corpus.cases() if c.case_id == case.case_id]
        assert stored, "failing case was not persisted"
        first = replay_case(stored[0])
        second = replay_case(stored[0])
        assert first is not None and first.oracle == "equivalence"
        assert str(first) == str(second)

    def test_fix_clears_replay(self, tmp_path):
        # Same campaign WITHOUT the mutation: every case stored by the
        # buggy run must replay clean once the bug is gone.
        corpus_dir = tmp_path / "corpus"
        with pytest.MonkeyPatch.context() as mp:
            original = GateLayout.create_gate

            def buggy(self, gate_type, tile, fanins, name=None):
                if gate_type is GateType.OR:
                    gate_type = GateType.AND
                return original(self, gate_type, tile, fanins, name)

            mp.setattr(GateLayout, "create_gate", buggy)
            report = fuzz(FuzzParams(runs=12, seed=0, corpus_dir=corpus_dir))
            assert report.cases
        corpus = CrashCorpus(corpus_dir)
        for _, stored in corpus.cases():
            assert replay_case(stored) is None, stored.case_id


class TestInjectedRoutingBug:
    def test_caught_and_shrunk(self, router_drops_fanin, tmp_path):
        report, corpus = run_campaign(tmp_path, runs=12)
        assert report.cases, "injected routing bug went unnoticed"
        # Short-circuited paths leave non-adjacent fanins or unread
        # wires: gate-level DRC (or an outright crash) must trip.
        oracles = {case.oracle for case in report.cases}
        assert oracles & {"drc", "crash", "equivalence"}, report.summary()
        case = report.cases[0]
        assert case.shrunk_gates <= 8
        stored = [c for _, c in corpus.cases() if c.case_id == case.case_id]
        assert stored
        failure = replay_case(stored[0])
        assert failure is not None and failure.oracle == case.oracle


class TestInjectedReaderDivergence:
    """``fgl_roundtrip`` reads each fuzzed layout through both tiers of
    the ``.fgl`` reader; a tier that drifts must be reported."""

    def test_clean_reader_passes(self):
        from repro.networks.library import mux21
        from repro.physical_design import orthogonal_layout
        from repro.qa.oracles import check_fgl_roundtrip

        network = mux21()
        assert check_fgl_roundtrip(network, orthogonal_layout(network).layout) is None

    def test_xml_tier_drift_is_caught(self, monkeypatch):
        from repro.networks.library import mux21
        from repro.physical_design import orthogonal_layout
        from repro.qa import oracles

        original = oracles.fgl_to_layout_xml

        def drifting(text):
            layout = original(text)
            layout.name += " (drifted)"
            return layout

        monkeypatch.setattr(oracles, "fgl_to_layout_xml", drifting)
        network = mux21()
        layout = orthogonal_layout(network).layout
        message = oracles.check_fgl_roundtrip(network, layout)
        assert message is not None and "canonical and XML tiers" in message
