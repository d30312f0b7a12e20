"""Unit tests for the repro.qa fuzzing harness itself."""

import json

import pytest

from repro.networks.generators import GeneratorSpec, generate_network
from repro.networks.logic_network import GateType, LogicNetwork
from repro.qa import (
    CrashCase,
    CrashCorpus,
    FlowConfig,
    FuzzParams,
    fuzz,
    fuzz_one,
    network_from_json,
    network_to_json,
    run_seed,
    sample_flow,
    sample_spec,
    shrink_network,
)
from repro.qa.triage import KnownIssue


def small_network() -> LogicNetwork:
    net = LogicNetwork("small")
    a = net.create_pi("a")
    b = net.create_pi("b")
    net.create_po(net.create_or(net.create_and(a, b), a), "f")
    return net


class TestRunSeed:
    def test_deterministic(self):
        assert run_seed(0, 5).random() == run_seed(0, 5).random()

    def test_runs_independent(self):
        draws = {run_seed(0, i).random() for i in range(50)}
        assert len(draws) == 50

    def test_master_seed_changes_everything(self):
        assert run_seed(0, 3).random() != run_seed(1, 3).random()


class TestSampling:
    def test_flow_sampling_deterministic(self):
        flows = [sample_flow(run_seed(7, i)) for i in range(20)]
        again = [sample_flow(run_seed(7, i)) for i in range(20)]
        assert flows == again

    def test_spec_matches_flow_budget(self):
        for i in range(30):
            rng = run_seed(3, i)
            flow = sample_flow(rng)
            spec = sample_spec(rng, flow, i)
            if flow.algorithm == "exact":
                assert spec.num_gates <= 4
            assert spec.num_pis >= 1 and spec.num_pos >= 1


class TestRetiredEngineRecords:
    """Records written while the fuzzer still compared routing, exact,
    PLO and sparse/dense engines (``engine``, ``plo_engine``,
    ``exact_optimized`` and the ``engines``/``exact-baseline``/
    ``optimization``/``sparse`` differentials)."""

    def _old_case(self) -> dict:
        net = generate_network(GeneratorSpec("plo", 3, 2, 10, seed=4))
        flow = {
            "algorithm": "ortho",
            "optimizations": ["PLO"],
            "engine": "reference",
            "plo_engine": "reference",
            "exact_optimized": False,
            "differential": "optimization",
        }
        return CrashCase(
            oracle="plo_agreement",
            message="incremental and reference PLO engines diverge",
            flow=FlowConfig.from_json(flow),
            network=net,
        ).to_json() | {"flow": flow}

    def _old_sparse_case(self, oracle: str) -> dict:
        net = generate_network(GeneratorSpec("sparse", 3, 2, 10, seed=5))
        flow = {"algorithm": "ortho", "compact": False, "differential": "sparse"}
        return CrashCase(
            oracle=oracle,
            message="sparse and reference network extraction diverge",
            flow=FlowConfig.from_json(flow),
            network=net,
        ).to_json()

    def test_sampling_draws_only_current_differentials(self):
        from repro.qa import DIFF_ANALYTICS, DIFF_SERVE, PLO

        flows = [sample_flow(run_seed(13, i)) for i in range(300)]
        assert {f.differential for f in flows} == {None, DIFF_ANALYTICS, DIFF_SERVE}
        assert any(PLO in f.optimizations for f in flows)

    def test_old_flow_keys_are_ignored(self):
        record = self._old_case()["flow"]
        flow = FlowConfig.from_json(record)
        assert flow.optimizations == ("PLO",)
        assert not {"engine", "plo_engine", "exact_optimized"} & set(flow.to_json())

    def test_old_case_replays_the_oracle_stack(self, tmp_path):
        from repro.qa import replay_case

        path = tmp_path / "s0_r0_plo_agreement.json"
        path.write_text(json.dumps(self._old_case()))
        case = CrashCorpus(tmp_path).load(path)
        assert case.oracle == "plo_agreement"
        assert replay_case(case) is None

    @pytest.mark.parametrize("oracle", ["sparse_agreement", "drc"])
    def test_old_sparse_case_replays_the_oracle_stack(self, tmp_path, oracle):
        from repro.qa import replay_case

        path = tmp_path / f"s0_r0_{oracle}.json"
        path.write_text(json.dumps(self._old_sparse_case(oracle)))
        case = CrashCorpus(tmp_path).load(path)
        assert (case.oracle, case.flow.differential) == (oracle, "sparse")
        assert replay_case(case) is None


class TestServeDifferential:
    def test_sampling_reaches_serve_mode(self):
        from repro.qa import DIFF_SERVE

        flows = [sample_flow(run_seed(29, i)) for i in range(600)]
        assert any(
            f.differential == DIFF_SERVE for f in flows
        ), "DIFF_SERVE never sampled in 600 draws"

    def test_agreement_on_clean_flow(self):
        from repro.qa import check_serve_agreement

        flow = FlowConfig(algorithm="ortho")
        net = generate_network(GeneratorSpec("serve", 3, 2, 8, seed=5))
        assert check_serve_agreement(net, flow) is None

    def test_serve_oracle_in_stack_order(self):
        from repro.qa import ORACLE_NAMES

        assert "serve_agreement" in ORACLE_NAMES


class TestNetJson:
    def test_roundtrip(self):
        net = small_network()
        restored = network_from_json(network_to_json(net))
        assert restored.num_pis() == net.num_pis()
        assert restored.num_pos() == net.num_pos()
        assert restored.num_gates() == net.num_gates()
        assert network_to_json(restored) == network_to_json(net)

    def test_roundtrip_generated(self):
        net = generate_network(GeneratorSpec("g", 4, 2, 12, seed=9))
        restored = network_from_json(network_to_json(net))
        assert network_to_json(restored) == network_to_json(net)

    def test_json_serialisable(self):
        json.dumps(network_to_json(small_network()))


class TestFlowConfig:
    def test_json_roundtrip(self):
        for i in range(25):
            flow = sample_flow(run_seed(11, i))
            assert FlowConfig.from_json(flow.to_json()) == flow

    def test_describe_mentions_algorithm(self):
        flow = FlowConfig(algorithm="ortho")
        assert "ortho" in flow.describe()


class TestShrinker:
    def test_shrinks_to_single_gate(self):
        net = generate_network(GeneratorSpec("s", 4, 2, 16, seed=1))
        result = shrink_network(net, lambda n: n.num_gates() >= 1)
        assert result.network.num_gates() == 1

    def test_keeps_failing_property(self):
        net = generate_network(GeneratorSpec("s", 4, 2, 16, seed=2))

        def has_and(n: LogicNetwork) -> bool:
            return any(g.gate_type is GateType.AND for g in n.gates())

        if not has_and(net):
            pytest.skip("generator produced no AND gate")
        result = shrink_network(net, has_and)
        assert has_and(result.network)
        assert result.network.num_gates() <= net.num_gates()

    def test_interface_stays_usable(self):
        net = generate_network(GeneratorSpec("s", 5, 3, 20, seed=3))
        result = shrink_network(net, lambda n: True)
        assert result.network.num_pis() >= 1
        assert result.network.num_pos() >= 1


class TestCorpus:
    def make_case(self) -> CrashCase:
        return CrashCase(
            oracle="equivalence",
            message="counterexample input (0, 1)",
            flow=FlowConfig(algorithm="ortho"),
            network=small_network(),
            seed=4,
            run_index=17,
            spec={"name": "x"},
            original_gates=9,
            shrunk_gates=2,
        )

    def test_save_load_roundtrip(self, tmp_path):
        corpus = CrashCorpus(tmp_path / "corpus")
        path = corpus.save(self.make_case())
        assert path.exists()
        loaded = corpus.load(path)
        assert loaded.oracle == "equivalence"
        assert loaded.flow == FlowConfig(algorithm="ortho")
        assert network_to_json(loaded.network) == network_to_json(small_network())

    def test_case_id_stable(self):
        assert self.make_case().case_id == "s4_r17_equivalence"

    def test_rejects_newer_schema(self, tmp_path):
        corpus = CrashCorpus(tmp_path)
        path = corpus.save(self.make_case())
        record = json.loads(path.read_text())
        record["schema_version"] = 99
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="newer"):
            corpus.load(path)

    def test_empty_corpus(self, tmp_path):
        assert CrashCorpus(tmp_path / "nothing").cases() == []


class TestTriage:
    def test_known_issue_matches(self):
        case = TestCorpus().make_case()
        issue = KnownIssue("equivalence", r"counterexample", "tracked: demo")
        assert issue.matches(case)
        assert not KnownIssue("drc", r"counterexample", "n").matches(case)
        assert KnownIssue("*", r"counterexample", "n").matches(case)


class TestFuzzSmoke:
    def test_short_campaign_is_clean(self, tmp_path):
        params = FuzzParams(runs=5, seed=1, corpus_dir=tmp_path / "corpus")
        report = fuzz(params)
        assert report.ok, report.summary()
        assert len(report.records) == 5

    def test_fuzz_one_reproducible(self):
        first = fuzz_one(2, 0)
        second = fuzz_one(2, 0)
        assert first[0] == second[0]  # flow
        assert network_to_json(first[2]) == network_to_json(second[2])
        assert (first[3] is None) == (second[3] is None)
