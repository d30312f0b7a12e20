"""Property tests: sparse occupied-tile fast paths equal dense references.

Every engine pair introduced by the large-circuit fast path — the
sparse walk vs. the dense grid scan, wire-segment decomposition,
metrics, DRC, layout→network extraction and the streaming serialisers
— is exercised on random ortho layouts
(including crossing-heavy ones) plus the degenerate shapes the raster
order must still agree on: empty layouts, a single tile, and layouts
large enough to switch to the sparse grid backend.
"""

from __future__ import annotations

import pytest

from repro.gatelibs.qca_one import apply_qca_one
from repro.io.fgl import fgl_to_columns, layout_to_fgl
from repro.io.qca import cell_layout_to_qca
from repro.layout import TWODDWAVE, GateLayout, Tile, check_layout
from repro.layout.gate_layout import DENSE_AREA_LIMIT
from repro.layout.metrics import compute_metrics
from repro.networks import GateType
from repro.networks.generators import GeneratorSpec, generate_network
from repro.physical_design import OrthoParams, orthogonal_layout


def _random_layout(rng, index: int, compact: bool) -> GateLayout:
    spec = GeneratorSpec(
        name=f"sparse{index}",
        num_pis=rng.randint(2, 4),
        num_pos=rng.randint(1, 3),
        num_gates=rng.randint(4, 24),
        seed=rng.randrange(1 << 31),
        locality=rng.choice((0.4, 0.6, 0.9)),
    )
    network = generate_network(spec)
    return orthogonal_layout(network, OrthoParams(compact=compact)).layout


def _networks_equal(a, b) -> bool:
    return (
        list(a._nodes) == list(b._nodes) and a._pis == b._pis and a._pos == b._pos
    )


def assert_sparse_agrees(layout: GateLayout) -> None:
    """All sparse engines must equal their dense references on ``layout``."""
    assert list(layout.sparse_tiles()) == list(layout.dense_tiles())
    segment_tiles = [t for seg in layout.wire_segments() for t in seg.tiles]
    wire_tiles = {
        tile for tile, gate in layout.tiles() if gate.gate_type is GateType.BUF
    }
    assert len(segment_tiles) == len(set(segment_tiles))
    assert set(segment_tiles) == wire_tiles
    assert compute_metrics(layout, engine="sparse") == compute_metrics(
        layout, engine="reference"
    )
    sparse_drc = check_layout(layout, engine="sparse")
    reference_drc = check_layout(layout, engine="reference")
    assert sparse_drc.violations == reference_drc.violations
    assert sparse_drc.warnings == reference_drc.warnings
    assert _networks_equal(
        layout.extract_network(engine="sparse"),
        layout.extract_network(engine="reference"),
    )


def test_sparse_agreement_on_random_layouts(rng):
    for index in range(8):
        layout = _random_layout(rng, index, compact=bool(index % 2))
        assert_sparse_agrees(layout)


def test_sparse_agreement_on_crossing_heavy_layouts(rng):
    seen_crossings = 0
    for index in range(12):
        layout = _random_layout(rng, 100 + index, compact=False)
        crossings = compute_metrics(layout).num_crossings
        if crossings == 0:
            continue
        seen_crossings += crossings
        assert_sparse_agrees(layout)
        if seen_crossings >= 20:
            break
    assert seen_crossings > 0, "no crossing-heavy layout sampled"


def test_sparse_agreement_on_empty_layout():
    layout = GateLayout(4, 3, TWODDWAVE)
    assert list(layout.sparse_tiles()) == []
    assert list(layout.dense_tiles()) == []
    assert list(layout.wire_segments()) == []
    assert_sparse_agrees(layout)


def test_sparse_agreement_on_single_tile():
    layout = GateLayout(2, 2, TWODDWAVE)
    layout.create_pi(Tile(0, 0), "a")
    assert [tile for tile, _ in layout.sparse_tiles()] == [Tile(0, 0)]
    assert list(layout.sparse_tiles()) == list(layout.dense_tiles())
    assert_sparse_agrees(layout)


def test_sparse_backend_layout_agrees(rng):
    """A layout big enough for the sparse grid backend walks identically."""
    width, height = 2048, 1024
    assert width * height > DENSE_AREA_LIMIT
    layout = GateLayout(width, height, TWODDWAVE)
    assert layout.uses_sparse_grid()
    a = layout.create_pi(Tile(0, 0), "a")
    run = layout.create_wire_run([(x, 0) for x in range(1, 40)], a)
    layout.create_po(Tile(40, 0), run, "f")
    assert_sparse_agrees(layout)
    assert check_layout(layout).ok


def test_cell_compile_and_writers_agree(rng):
    """The compile of a layout equals the compile of its ``.fgl`` text's
    columns (the cell goldens pin both against the retired per-tile
    reference), and the streaming writer its reference writer."""
    for index in range(4):
        layout = _random_layout(rng, 200 + index, compact=bool(index % 2))
        cells = apply_qca_one(layout)
        from_text = apply_qca_one(fgl_to_columns(layout_to_fgl(layout)))
        assert cells.cells == from_text.cells
        assert cells.zones == from_text.zones
        assert cell_layout_to_qca(cells, engine="stream") == cell_layout_to_qca(
            cells, engine="reference"
        )


def test_unknown_engines_rejected(and_layout):
    layout, _ = and_layout
    with pytest.raises(ValueError):
        compute_metrics(layout, engine="nope")
    with pytest.raises(ValueError):
        check_layout(layout, engine="nope")
    with pytest.raises(ValueError):
        layout.extract_network(engine="nope")
