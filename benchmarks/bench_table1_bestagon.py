"""Table I reproduction — Bestagon gate library side.

Same protocol as ``bench_table1.py`` but targeting the hexagonal
Bestagon library: exact runs directly on the ROW-clocked hexagonal grid
for small functions, and every Cartesian 2DDWave flow is pushed through
the 45° hexagonalization (the paper's ``ortho, InOrd (SDN), 45°, PLO``
combinations); ortho and InOrd place the native two-input gates.

Expected shape: every winner uses the ROW clocking scheme (there is no
alternative on the hexagonal grid); heuristic flows carry the ``45°``
suffix; areas stay within the same order of magnitude as the QCA ONE
side, with height ≈ Cartesian width + height − 1 for mapped layouts.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from bench_table1 import portfolio_params, run_table, selected_specs, table_rows
from conftest import write_result
from repro.core import BESTAGON


@pytest.mark.benchmark(group="table1")
def test_table1_bestagon(benchmark):
    """Regenerate Table I (Bestagon side) and record paper-vs-measured."""
    text = benchmark.pedantic(run_table, args=(BESTAGON,), rounds=1, iterations=1)
    path = write_result("table1_bestagon.txt", text)
    print(f"\n{text}\nwritten to {path}")
    assert "ROW" in text


@pytest.mark.benchmark(group="table1-rows")
def test_bestagon_winner_is_row_clocked(benchmark):
    spec = selected_specs()[0]

    def one_row():
        (row,) = table_rows([spec], BESTAGON, portfolio_params())
        return row

    row = benchmark.pedantic(one_row, rounds=1, iterations=1)
    assert row.scheme == "ROW"


if __name__ == "__main__":
    text = run_table(BESTAGON)
    print(text)
    print("written to", write_result("table1_bestagon.txt", text))
