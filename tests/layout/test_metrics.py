"""Tests for layout metrics (area, wires, critical path, throughput)."""

from repro.layout import GateLayout, TWODDWAVE, Tile, compute_metrics
from repro.networks import GateType
from repro.networks.library import full_adder, mux21
from repro.physical_design import orthogonal_layout


def test_metrics_of_hand_layout(and_layout):
    layout, _ = and_layout
    metrics = compute_metrics(layout)
    assert (metrics.width, metrics.height, metrics.area) == (3, 2, 6)
    assert metrics.num_gates == 1
    assert metrics.num_wires == 0
    assert metrics.critical_path == 3  # PI -> AND -> PO
    assert metrics.throughput == 1


def test_critical_path_counts_tiles():
    lay = GateLayout(6, 2, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    w1 = lay.create_wire(Tile(1, 0), a)
    w2 = lay.create_wire(Tile(2, 0), w1)
    lay.create_po(Tile(3, 0), w2)
    assert compute_metrics(lay).critical_path == 4


def test_throughput_balanced_paths():
    layout = orthogonal_layout(mux21()).layout
    assert compute_metrics(layout).throughput >= 1


def test_throughput_imbalance():
    # Reconvergent fanins whose tile depths differ by more than a full
    # clock cycle (4 phases) force a throughput penalty: a shallow PI
    # meets a 7-tile-deep wire chain at the same AND gate.
    lay = GateLayout(8, 8, TWODDWAVE)
    shallow = lay.create_pi(Tile(3, 4), "shallow")
    deep = lay.create_pi(Tile(0, 0), "deep")
    w = deep
    for x in range(1, 5):
        w = lay.create_wire(Tile(x, 0), w)
    for y in range(1, 4):
        w = lay.create_wire(Tile(4, y), w)
    gate = lay.create_gate(GateType.AND, Tile(4, 4), [shallow, w])
    lay.create_po(Tile(5, 4), gate)
    assert compute_metrics(lay).throughput == 2


def test_metrics_str():
    layout = orthogonal_layout(full_adder()).layout
    text = str(compute_metrics(layout))
    assert "tiles" in text and "wires" in text


def test_area_uses_bounding_box():
    lay = GateLayout(50, 50, TWODDWAVE)
    a = lay.create_pi(Tile(0, 0))
    lay.create_po(Tile(1, 0), a)
    metrics = compute_metrics(lay)
    assert metrics.area == 2
