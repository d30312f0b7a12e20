"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from metrics import END_TO_END, PER_LAYER, phase_residuals  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import PINNED, build_specs, clock_bound_flows  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_benchmark_json():
    assert [tuple(m.values()) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == [tuple(m) for m in PER_LAYER]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ortho_iscas",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("phase", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a, e.g. another thread
        ("c", 2.0, 3.0, 1),
        ("a", 7.0, 8.0, 0),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    table = summarize(spans)
    assert table["a"] == {"self_s": 3.0, "total_s": 4.0, "calls": 2}
    assert table["phase"]["self_s"] == 4.0


def test_serving_phases_are_covered_by_server_spans_only():
    client = [
        ("phase.verify", 0.0, 4.0, -1),
        ("analytics.verify_database", 1.0, 3.0, 0),
        ("phase.browse", 10.0, 20.0, -1),
    ]
    server = [
        ("serve.respond", 11.0, 14.0, -1),
        ("serve.handle", 12.0, 13.0, 0),
        ("serve.respond", 15.0, 16.0, -1),
        ("serve.respond", 2.0, 3.0, -1),  # outside the serving phase
    ]
    assert phase_residuals(client, server) == {"verify": 2.0, "browse": 6.0}


def test_calibration_leaves_out_probes_and_scales_by_probe_speed():
    start = speed.Reading(cpu=10.0, probes=100, probe_cpu=0.5, timed_cpu=0.2)
    # 2 s of CPU, 0.1 s of it in 300 probes whose timed (warm) halves
    # took 0.05 s: 6000 probes per CPU second.
    end = speed.Reading(cpu=12.0, probes=400, probe_cpu=0.6, timed_cpu=0.25)
    assert speed.work(start, end) == pytest.approx(1.9)
    assert speed.speed(start, end) == pytest.approx(6000 / speed.REFERENCE_RATE)
    assert speed.calibrated(start, end) == pytest.approx(
        1.9 * 6000 / speed.REFERENCE_RATE)
    with pytest.raises(ValueError):
        speed.speed(start, start)


def test_wrapped_calls_nest_and_restore():
    import types

    module = types.ModuleType("repro_perfbench_probe")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        original = module.inner
        tracer.wrap_function(module.__name__, "inner", "inner")
        tracer.wrap_function(module.__name__, "outer", "outer")
        with tracer.span("phase"):
            assert module.outer(1) == 4
        tracer.restore()
        assert module.inner is original
    finally:
        del sys.modules[module.__name__]
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("phase", -1), ("outer", 0), ("inner", 1)
    ]


def test_budget_guard_flags_an_exact_flow_ending_on_its_clock(tmp_path):
    from repro.core import BenchmarkDatabase, GenerationParams

    params = GenerationParams(**{**PINNED, "exact_timeout": 1.0})
    db = BenchmarkDatabase(tmp_path)
    outcome = db.generate(build_specs(["trindade16/xor2"]), libraries=("QCA ONE",),
                          params=params)
    assert "trindade16/xor2:exact:USE" in clock_bound_flows(outcome.report, params)
    assert "trindade16/xor2:ortho" not in clock_bound_flows(outcome.report, params)
