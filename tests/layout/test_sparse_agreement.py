"""Property tests: the sparse occupied-tile paths agree with dense scans.

The raster walk of the occupied set (:meth:`GateLayout.sparse_tiles`)
must visit exactly the tiles a scan of the full grid finds, in the same
order, and a layout on the sparse grid backend must measure, check and
extract exactly like the same layout on a dense grid.  Metrics, DRC
counts and the extracted function of every random layout are also
checked against the independent columnar kernels of
:mod:`repro.analytics`.  Cases: random ortho layouts (including
crossing-heavy ones) plus the degenerate shapes the raster order must
still agree on — empty layouts, a single tile, and layouts large enough
to switch to the sparse grid backend.
"""

from __future__ import annotations

from repro.gatelibs.qca_one import apply_qca_one
from repro.io.fgl import fgl_to_columns, layout_to_fgl
from repro.layout import TWODDWAVE, GateLayout, Tile, check_layout
from repro.layout.gate_layout import DENSE_AREA_LIMIT
from repro.layout.metrics import compute_metrics
from repro.networks.generators import GeneratorSpec, generate_network
from repro.physical_design import OrthoParams, orthogonal_layout

from ..analytics.test_kernels import assert_parity


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


def _grid_scan(layout: GateLayout) -> list:
    """Every position of both layers in (y, x, z) order, occupied only."""
    found = []
    for y in range(layout.height):
        for x in range(layout.width):
            for z in (0, 1):
                gate = layout.get(Tile(x, y, z))
                if gate is not None:
                    found.append((Tile(x, y, z), gate))
    return found


def _networks_equal(a, b) -> bool:
    return (
        list(a._nodes) == list(b._nodes) and a._pis == b._pis and a._pos == b._pos
    )


def assert_sparse_agrees(layout: GateLayout) -> None:
    """The raster walk equals the grid scan, and the object model agrees
    with the columnar kernels on ``layout``."""
    assert list(layout.sparse_tiles()) == _grid_scan(layout)
    assert_parity(layout)


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
    assert _grid_scan(layout) == []
    assert_sparse_agrees(layout)


def test_sparse_agreement_on_single_tile():
    layout = GateLayout(2, 2, TWODDWAVE)
    layout.create_pi(Tile(0, 0), "a")
    assert [tile for tile, _ in layout.sparse_tiles()] == [Tile(0, 0)]
    assert_sparse_agrees(layout)


def test_sparse_backend_layout_agrees():
    """A layout big enough for the sparse grid backend walks, measures,
    checks and extracts exactly like the same layout on a dense grid."""

    def build(width: int, height: int) -> GateLayout:
        layout = GateLayout(width, height, TWODDWAVE)
        a = layout.create_pi(Tile(0, 0), "a")
        run = layout.create_wire_run([(x, 0) for x in range(1, 40)], a)
        layout.create_po(Tile(40, 0), run, "f")
        return layout

    width, height = 2048, 1024
    assert width * height > DENSE_AREA_LIMIT
    layout = build(width, height)
    dense = build(64, 8)
    assert layout.uses_sparse_grid() and not dense.uses_sparse_grid()
    assert list(layout.sparse_tiles()) == list(dense.sparse_tiles())
    assert compute_metrics(layout) == compute_metrics(dense)
    report, dense_report = check_layout(layout), check_layout(dense)
    assert report.ok
    assert (report.violations, report.warnings) == (
        dense_report.violations, dense_report.warnings
    )
    assert _networks_equal(layout.extract_network(), dense.extract_network())


def test_cell_compile_from_text_agrees(rng):
    """The compile of a layout equals the compile of its ``.fgl`` text's
    columns (the cell goldens pin the bytes of both)."""
    for index in range(4):
        layout = _random_layout(rng, 200 + index, compact=bool(index % 2))
        cells = apply_qca_one(layout)
        from_text = apply_qca_one(fgl_to_columns(layout_to_fgl(layout)))
        assert cells.cells == from_text.cells
        assert cells.zones == from_text.zones
