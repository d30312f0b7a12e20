"""Design flow for a custom circuit: Verilog in, QCADesigner file out.

Run with ``python examples/custom_circuit_flow.py``.

The scenario the paper's introduction motivates: a designer has a small
combinational block (here a 2-bit comparator written in structural
Verilog), wants the area-best QCA ONE layout the current tool landscape
can produce, and needs a cell-level export for physical simulation.
The circuit goes into a scratch benchmark database: ``generate`` tries
exact physical design on every Cartesian clocking scheme, NanoPlaceR
and the ortho + InOrd + PLO stack, ``optimize`` post-layout-optimizes
the rest, every candidate is verified, and the smallest one wins.
"""

import tempfile

from repro import BenchmarkDatabase, GenerationParams, apply_gate_library, parse_verilog
from repro.benchsuite.registry import BenchmarkSpec
from repro.core import QCA_ONE, database_table_rows, format_table
from repro.io import write_qca

COMPARATOR = """
// 2-bit equality comparator: eq = (a1 == b1) & (a0 == b0)
module comparator2(a0, a1, b0, b1, eq);
  input a0, a1, b0, b1;
  output eq;
  wire x0, x1;
  assign x0 = ~(a0 ^ b0);
  assign x1 = ~(a1 ^ b1);
  assign eq = x0 & x1;
endmodule
"""


def main() -> None:
    network = parse_verilog(COMPARATOR)
    print(f"parsed: {network}")
    tables = network.simulate()
    print(f"truth table: 0x{tables[0].to_hex()}")

    spec = BenchmarkSpec(
        "custom", "comparator2", network.num_pis(), network.num_pos(),
        network.num_gates(), lambda node_cap: network,
    )
    params = GenerationParams(exact_timeout=8.0, exact_ratio_timeout=1.0)
    with tempfile.TemporaryDirectory() as root:
        db = BenchmarkDatabase(root)
        generated = db.generate([spec], libraries=(QCA_ONE,), params=params)
        db.optimize(params=params)
        candidates = [record for record in db.files() if record.area is not None]
        if not candidates:
            raise SystemExit("no verified layout found")
        ((winner, _),) = db.best()
        layout = db.load_layout(winner)
        table = format_table(database_table_rows(db, QCA_ONE), QCA_ONE)

    print(f"\ngenerate: {generated.report.summary()}")
    print(f"{len(candidates)} verified candidate(s):")
    for record in candidates:
        marker = "  <== winner" if record is winner else ""
        label = ", ".join((record.algorithm, *record.optimizations))
        print(
            f"  {label:32s} {record.clocking_scheme:8s} "
            f"{record.width}x{record.height}={record.area}{marker}"
        )

    print(f"\n{table}")
    print(f"\nwinning layout ({winner.path}):")
    print(layout.render())

    cells = apply_gate_library(layout, QCA_ONE)
    print(f"\nQCA ONE cells: {cells.num_cells()} "
          f"({cells.num_crossing_cells()} on crossing layers)")
    write_qca(cells, "comparator2.qca")
    print("cell layout written to comparator2.qca (QCADesigner format)")


if __name__ == "__main__":
    main()
