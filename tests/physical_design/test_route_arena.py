"""The router's search arena: successor tables, backings and pool.

Every successor entry, dense or lazily filled, must equal the per-tile
construction (kept below as the oracle), for every regular clocking
scheme on both topologies and at grid sizes that cut the clock period
anywhere.  Dense and sparse backings must return identical paths, PLO
on a sparse canvas must allocate far less than the canvas, and the
arena pool must stay within its area budget.
"""

import tracemalloc

import pytest

from repro.layout import GateLayout, Tile, Topology
from repro.layout import gate_layout
from repro.layout.clocking import SCHEMES, TWODDWAVE, USE, neighbor_tables
from repro.networks.library import parity_checker
from repro.optimization import PostLayoutParams, post_layout_optimization
from repro.physical_design import OrthoParams, RoutingOptions, find_path, orthogonal_layout
from repro.physical_design import routing
from repro.physical_design.routing import _ArenaPool, _RouteArena

REGULAR = [scheme for scheme in SCHEMES.values() if scheme.regular]
SCHEME_TOPOLOGY = [
    pytest.param(scheme, topology, id=f"{scheme.name}-{topology.short_name}")
    for scheme in REGULAR
    for topology in Topology
]


def _per_tile_entry(x, y, width, height, tables):
    """One tile's successor entry, built the way the arena used to."""
    cell = []
    for dx, dy in tables.outgoing[y % tables.period_y][x % tables.period_x]:
        nx, ny = x + dx, y + dy
        if 0 <= nx < width and 0 <= ny < height:
            cell.append(ny * width + nx)
    return tuple(cell)


@pytest.mark.parametrize("scheme,topology", SCHEME_TOPOLOGY)
@pytest.mark.parametrize(
    "width,height",
    [(1, 1), (1, 9), (9, 1), (2, 2), (3, 5), (5, 3), (7, 13), (13, 7), (9, 11), (61, 37)],
)
def test_dense_table_equals_per_tile_construction(scheme, topology, width, height):
    arena = _RouteArena(width, height, scheme, topology)
    assert arena.visit is not None  # dense backing
    tables = neighbor_tables(scheme, topology)
    assert arena.succ == [
        _per_tile_entry(x, y, width, height, tables)
        for y in range(height)
        for x in range(width)
    ]
    n = width * height
    assert arena.xs == [i % width for i in range(n)]
    assert arena.ys == [i // width for i in range(n)]
    assert len(arena.visit) == len(arena.cost) == len(arena.parent) == 2 * n


@pytest.mark.parametrize("scheme,topology", SCHEME_TOPOLOGY)
def test_lazy_entries_above_dense_limit_equal_per_tile_construction(
    scheme, topology, rng
):
    width, height = 1031, 1019  # odd in both axes, above DENSE_AREA_LIMIT
    assert gate_layout.is_sparse_area(width, height)
    arena = _RouteArena(width, height, scheme, topology)
    assert arena.visit is None and len(arena.succ) == 0  # nothing eager
    # The border rows and columns plus a random interior sample.
    positions = [(x, y) for x in (0, 1, width - 2, width - 1) for y in range(0, height, 97)]
    positions += [(x, y) for y in (0, 1, height - 2, height - 1) for x in range(0, width, 89)]
    positions += [(rng.randrange(width), rng.randrange(height)) for _ in range(300)]
    tables = neighbor_tables(scheme, topology)
    for x, y in positions:
        g = y * width + x
        assert arena.succ[g] == _per_tile_entry(x, y, width, height, tables), (x, y)
        assert (arena.xs[g], arena.ys[g]) == (x, y)
    assert len(arena.succ) <= len(positions)


def _obstacle_layout(scheme, width, height, rng):
    """Random PIs, some with a wire beside them (crossable obstacles)."""
    layout = GateLayout(width, height, scheme)
    layout.create_pi(Tile(0, 0), "a")
    for _ in range(width * height // 8):
        x, y = rng.randrange(width - 1), rng.randrange(height)
        if (x, y) in ((0, 0), (1, 0)) or layout.is_occupied(Tile(x, y)):
            continue
        pi = layout.create_pi(Tile(x, y))
        if rng.random() < 0.5 and not layout.is_occupied(Tile(x + 1, y)):
            layout.create_wire(Tile(x + 1, y), pi)
    return layout


@pytest.mark.parametrize("scheme", [TWODDWAVE, USE], ids=lambda s: s.name)
def test_sparse_backing_returns_the_dense_paths(scheme, rng, monkeypatch):
    width, height = 24, 18
    layouts = [_obstacle_layout(scheme, width, height, rng) for _ in range(4)]
    targets = [
        Tile(rng.randrange(width), rng.randrange(height)) for _ in range(12)
    ]
    options = [RoutingOptions(), RoutingOptions(allow_crossings=False, max_length=30)]
    dense = [
        [find_path(layout, Tile(0, 0), t, o) for t in targets for o in options]
        for layout in layouts
    ]
    monkeypatch.setattr(gate_layout, "DENSE_AREA_LIMIT", 100)
    routing._ARENA_POOL.clear()  # drop the dense arenas pooled above
    for layout, expected in zip(layouts, dense):
        sparse = layout.clone()
        sparse.resize(width, height)  # rebuilds the grid: now sparse
        assert sparse.uses_sparse_grid()
        got = [find_path(sparse, Tile(0, 0), t, o) for t in targets for o in options]
        assert sparse._route_arena.visit is None
        assert got == expected


def test_crossing_paths_agree_across_backings(monkeypatch):
    def layout():
        lay = GateLayout(8, 8, TWODDWAVE)
        src = lay.create_pi(Tile(0, 3), "a")
        other = lay.create_pi(Tile(3, 0), "b")
        previous = other
        for y in range(1, 7):
            previous = lay.create_wire(Tile(3, y), previous)
        lay.create_po(Tile(3, 7), previous, "f")
        return lay, src

    dense, src = layout()
    expected = find_path(dense, src, Tile(6, 3))
    assert any(t.z == 1 for t in expected)  # hops the b -> f wire
    monkeypatch.setattr(gate_layout, "DENSE_AREA_LIMIT", 10)
    routing._ARENA_POOL.clear()
    sparse, src = layout()
    assert sparse.uses_sparse_grid()
    assert find_path(sparse, src, Tile(6, 3)) == expected
    assert sparse._route_arena.visit is None


def test_plo_on_sparse_layout_allocates_far_less_than_the_grid():
    # A few gates on a 1100x1000 canvas: the grid is above
    # DENSE_AREA_LIMIT, so the router's arena is filled lazily and the
    # peak allocation stays far below one entry per tile.
    layout = orthogonal_layout(parity_checker(4), OrthoParams(compact=False)).layout
    layout.resize(1100, 1000)
    assert layout.uses_sparse_grid()
    tracemalloc.start()
    try:
        result = post_layout_optimization(
            layout, PostLayoutParams(max_passes=8, timeout=None)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.moves_applied > 0
    assert peak < 1100 * 1000  # bytes: well under one pointer per tile


class TestArenaPool:
    def test_evicts_least_recently_used_beyond_the_area_budget(self):
        pool = _ArenaPool(max_area=200)
        first = pool.get(10, 10, TWODDWAVE, Topology.CARTESIAN)
        pool.get(5, 5, TWODDWAVE, Topology.CARTESIAN)
        assert pool.get(10, 10, TWODDWAVE, Topology.CARTESIAN) is first  # hit
        pool.get(8, 8, TWODDWAVE, Topology.CARTESIAN)
        assert pool.area == 189 and len(pool._arenas) == 3
        pool.get(6, 6, TWODDWAVE, Topology.CARTESIAN)
        # 5x5 was used least recently: it goes, the rest fit in 200.
        assert (5, 5, TWODDWAVE, Topology.CARTESIAN) not in pool._arenas
        assert (10, 10, TWODDWAVE, Topology.CARTESIAN) in pool._arenas
        assert pool.area == 200 and len(pool._arenas) == 3

    def test_oversized_arena_is_kept_alone(self):
        pool = _ArenaPool(max_area=200)
        pool.get(5, 5, TWODDWAVE, Topology.CARTESIAN)
        big = pool.get(20, 20, TWODDWAVE, Topology.CARTESIAN)
        assert len(pool._arenas) == 1 and pool.area == 400
        assert pool.get(20, 20, TWODDWAVE, Topology.CARTESIAN) is big
        pool.get(4, 4, USE, Topology.CARTESIAN)
        assert len(pool._arenas) == 1 and pool.area == 16

    def test_sparse_arenas_are_not_pooled(self, monkeypatch):
        monkeypatch.setattr(gate_layout, "DENSE_AREA_LIMIT", 50)
        pool = _ArenaPool(max_area=1000)
        arena = pool.get(10, 10, TWODDWAVE, Topology.CARTESIAN)
        assert arena.visit is None
        assert len(pool._arenas) == 0 and pool.area == 0

    def test_process_pool_keeps_many_small_grids(self):
        pool = routing._ARENA_POOL
        assert pool.max_area == gate_layout.DENSE_AREA_LIMIT
        pool.clear()
        sizes = [(w, h) for w in range(2, 12) for h in range(2, 12)]
        for w, h in sizes:
            lay = GateLayout(w, h, TWODDWAVE)
            lay.create_pi(Tile(0, 0), "a")
            assert find_path(lay, Tile(0, 0), Tile(w - 1, h - 1)) is not None
        assert len(pool._arenas) == len(sizes)
        assert pool.area == sum(w * h for w, h in sizes)
