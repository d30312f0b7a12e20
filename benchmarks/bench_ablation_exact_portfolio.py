"""Ablation: why the best-layout portfolio beats every single tool.

Table I's ΔA column measures the area reduction of the *optimal tool
combination* over the previous state of the art.  This ablation
recreates that comparison locally: the small functions go into one
scratch database (``generate`` + ``optimize``), and for each function the
area of every individual flow (plain ortho, ortho+InOrd+PLO, NanoPlaceR,
exact per scheme, each 2DDWave one also with PLO) is printed next to the
portfolio winner.

Expected shape: the portfolio column equals the minimum of its inputs
(it is a verified argmin); no single flow achieves that minimum across
all functions, reproducing the paper's core argument for shipping
per-function optimal combinations.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from conftest import write_result
from repro.analytics.report import algorithm_label
from repro.benchsuite import get_benchmark
from repro.core import QCA_ONE, BenchmarkDatabase, GenerationParams

FUNCTIONS = [
    ("trindade16", "mux21"),
    ("trindade16", "xor2"),
    ("trindade16", "xnor2"),
    ("trindade16", "par_gen"),
    ("fontes18", "1bitaddermaj"),
]

PARAMS = GenerationParams(
    exact_timeout=8.0,
    exact_ratio_timeout=1.0,
    inord_timeout=20.0,
    plo_timeout=15.0,
)


def run_ablation() -> str:
    lines = ["Portfolio vs. individual flows (areas in tiles)", "=" * 80]
    winners = {}
    with tempfile.TemporaryDirectory(prefix="ablation-") as root:
        db = BenchmarkDatabase(root)
        db.generate(
            [get_benchmark(suite, name) for suite, name in FUNCTIONS],
            libraries=(QCA_ONE,),
            params=PARAMS,
        )
        db.optimize(params=PARAMS)
        best = {record.name: record for record, _ in db.best()}
        for suite, name in FUNCTIONS:
            winner = best[name]
            lines.append(f"\n{suite}/{name}: winner = {algorithm_label(winner)} "
                         f"/ {winner.clocking_scheme} (A = {winner.area})")
            for record in db.files():
                if record.name != name or record.area is None:
                    continue
                marker = " <== winner" if record is winner else ""
                lines.append(
                    f"    {algorithm_label(record):32s} {record.clocking_scheme:8s} "
                    f"A={record.area:5d}{marker}"
                )
            winners[name] = algorithm_label(winner)
            print(lines[-1], flush=True)
    lines.append("\nwinning flows: " + ", ".join(f"{k}→{v}" for k, v in winners.items()))
    return "\n".join(lines)


@pytest.mark.benchmark(group="ablation")
def test_exact_portfolio_ablation(benchmark):
    text = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    path = write_result("ablation_exact_portfolio.txt", text)
    print(f"\n{text}\nwritten to {path}")
    assert "winner" in text


if __name__ == "__main__":
    output = run_ablation()
    print(output)
    print("written to", write_result("ablation_exact_portfolio.txt", output))
