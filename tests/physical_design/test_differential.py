"""Differential tests: the physical-design core against independent oracles.

``find_path`` must return bit-identical paths to :func:`_oracle_path`, a
test-only tile-dict A* (the router's original implementation): a
``dict``-keyed search over ``Tile`` objects that asks the layout for
clock zones and neighbours, sharing none of the index kernel's tables.
The heuristic flows must keep their golden bytes, and every layout they
produce must pass DRC and functional equivalence against its
specification network.  The exact search's bytes are pinned in
``test_exact_golden.py``.
"""

import hashlib
import heapq
import itertools

import pytest

from repro.layout import (
    GateLayout,
    RES,
    ROW,
    TWODDWAVE,
    USE,
    Tile,
    Topology,
    verify_layout,
)
from repro.io.fgl import layout_to_fgl
from repro.layout.coordinates import grid_distance, neighbors
from repro.networks import GateType
from repro.networks.library import mux21, xor2
from repro.physical_design import (
    NanoPlaceRParams,
    OrthoParams,
    RoutingOptions,
    find_path,
    nanoplacer_layout,
    orthogonal_layout,
)

def _oracle_path(layout, source, target, options):
    """Tile-dict A* with ``find_path``'s contract (regular schemes).

    Expands in f-score order and breaks ties by insertion order, as the
    router does, so equal inputs must give equal paths.
    """
    if source.ground == target.ground:
        return None
    counter = itertools.count()
    open_heap = [(_oracle_h(layout, source, target), next(counter), 0, source)]
    best_cost = {source: 0}
    parents = {}
    expansions = 0
    while open_heap:
        _, _, cost, current = heapq.heappop(open_heap)
        if cost > best_cost.get(current, cost):
            continue
        if current.ground == target.ground and current != source:
            path = [target]
            node = current
            while node != source:
                node = parents[node]
                path.append(node)
            path.reverse()
            return path
        expansions += 1
        if expansions > options.max_expansions:
            return None
        for step in _oracle_steps(layout, current, target, options):
            step_cost = cost + 1 + (options.crossing_penalty if step.z == 1 else 0)
            if options.max_length is not None and step_cost > options.max_length + 1:
                continue
            if step_cost < best_cost.get(step, 1 << 60):
                best_cost[step] = step_cost
                parents[step] = current
                f = step_cost + _oracle_h(layout, step, target)
                heapq.heappush(open_heap, (f, next(counter), step_cost, step))
    return None


def _oracle_h(layout, a, b):
    return grid_distance(layout.topology, a.ground, b.ground)


def _oracle_steps(layout, current, target, options):
    """Positions a wire may extend to from ``current``."""
    steps = []
    prune = (
        options.prune_dominated
        and layout.topology is Topology.CARTESIAN
        and layout.scheme.diagonal
    )
    for n in neighbors(layout.topology, current.ground, layout.width, layout.height):
        if not layout.is_incoming_clocked(n, current):
            continue
        if n == target.ground:
            steps.append(n)
            continue
        if prune and (n.x > target.x or n.y > target.y):
            continue
        ground_gate = layout.get(n)
        if ground_gate is None:
            # Stepping under an existing crossing-layer wire is itself a
            # crossing; honour allow_crossings.
            if not options.allow_crossings and layout.is_occupied(n.above):
                continue
            if n not in options.avoid:
                steps.append(n)
        elif (
            options.allow_crossings
            and ground_gate.gate_type is GateType.BUF
            and not layout.is_occupied(n.above)
            and n.above not in options.avoid
        ):
            steps.append(n.above)
    return steps


SCHEMES = [
    (TWODDWAVE, Topology.CARTESIAN),
    (USE, Topology.CARTESIAN),
    (RES, Topology.CARTESIAN),
    (ROW, Topology.HEXAGONAL_EVEN_ROW),
]


class TestRouterEquivalence:
    @pytest.mark.parametrize("scheme,topology", SCHEMES)
    def test_find_path_matches_oracle_on_random_grids(self, scheme, topology, rng):
        for trial in range(40):
            w, h = rng.randint(3, 8), rng.randint(3, 8)
            layout = GateLayout(w, h, scheme, topology)
            tiles = [Tile(x, y) for y in range(h) for x in range(w)]
            rng.shuffle(tiles)
            source = layout.create_pi(tiles[0], "src")
            for t in tiles[1 : 1 + rng.randint(0, w * h // 3)]:
                layout.create_pi(t, f"obs{t.x}_{t.y}")
            target = tiles[-1]
            avoid = frozenset(
                t for t in tiles[1:-1] if rng.random() < 0.1
            )
            options = RoutingOptions(
                allow_crossings=rng.random() < 0.7,
                max_length=rng.choice([None, rng.randint(3, w + h)]),
                avoid=avoid,
                prune_dominated=rng.random() < 0.5,
            )
            path = find_path(layout, source, target, options)
            expected = _oracle_path(layout, source, target, options)
            assert path == expected, (
                f"{scheme.name} trial {trial}: find_path={path} oracle={expected}"
            )


    @pytest.mark.parametrize("scheme,topology", SCHEMES)
    def test_find_path_matches_oracle_through_crossings(self, scheme, topology, rng):
        """Wire chains as obstacles, so paths step under BUFs onto z = 1,
        and avoid sets with crossing-layer and off-grid positions."""
        crossing_paths = 0
        for trial in range(60):
            w, h = rng.randint(4, 8), rng.randint(4, 8)
            layout = GateLayout(w, h, scheme, topology)
            # Source in the upper half, target in the lower one: on the
            # monotone schemes most pairs are then connected at all.
            source = Tile(rng.randrange(w), rng.randrange(h // 2))
            target = Tile(rng.randrange(w), rng.randrange(h // 2, h))
            layout.create_pi(source, "src")
            free = {Tile(x, y) for y in range(h) for x in range(w)} - {source, target}
            for chain in range(rng.randint(1, 4)):
                if not free:
                    break
                start = rng.choice(sorted(free))
                free.discard(start)
                previous = layout.create_pi(start, f"drv{chain}")
                for _step in range(rng.randint(2, w + h)):
                    steps = [
                        Tile(previous.x + dx, previous.y + dy)
                        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1))
                    ]
                    steps = [t for t in steps if t in free]
                    if not steps:
                        break
                    tile = rng.choice(steps)
                    free.discard(tile)
                    previous = layout.create_wire(tile, previous)
                    if rng.random() < 0.15:
                        # Occupy the crossing layer too: no hop over here.
                        previous = layout.create_wire(tile.above, previous)
            inside = [
                Tile(x, y, z) for x in range(w) for y in range(h) for z in (0, 1)
            ]
            avoid = frozenset(
                [t for t in inside if t.ground != target and rng.random() < 0.05]
                + [Tile(-1, 0), Tile(w, 0), Tile(0, -1), Tile(0, h), Tile(0, 0, 2)]
            )
            options = RoutingOptions(
                allow_crossings=rng.random() < 0.85,
                crossing_penalty=rng.choice([0, 1, 2]),
                max_length=rng.choice([None, rng.randint(3, w + h)]),
                avoid=avoid,
                prune_dominated=rng.random() < 0.5,
            )
            path = find_path(layout, source, target, options)
            expected = _oracle_path(layout, source, target, options)
            assert path == expected, (
                f"{scheme.name} trial {trial}: find_path={path} oracle={expected}"
            )
            if path is not None and any(t.z == 1 for t in path):
                crossing_paths += 1
        assert crossing_paths > 0, "no compared path used the crossing layer"


def _sha(layout) -> str:
    return hashlib.sha256(layout_to_fgl(layout).encode()).hexdigest()


#: network -> .fgl SHA-256 of ``orthogonal_layout`` (default parameters)
#: and of ``nanoplacer_layout`` (seed 0, 20 rollouts), taken when the
#: retired reference router still built the same bytes.
HEURISTIC_GOLDEN = {
    "mux21": (
        "0b42eede6106e83d76193c26f3e7d22cb11feae341198b7d0e5f6ce4a4fcff35",
        "0b42eede6106e83d76193c26f3e7d22cb11feae341198b7d0e5f6ce4a4fcff35",
    ),
    "xor2": (
        "3f616c1fcffac1d866721d0b5a8bc814336f89748d3087b40089108a69adec5b",
        "3f616c1fcffac1d866721d0b5a8bc814336f89748d3087b40089108a69adec5b",
    ),
}


class TestHeuristicFlowGolden:
    @pytest.mark.parametrize("name,build", [("mux21", mux21), ("xor2", xor2)])
    def test_ortho_and_nanoplacer_bytes(self, name, build):
        ortho_sha, nanoplacer_sha = HEURISTIC_GOLDEN[name]
        ntk = build()
        ortho = orthogonal_layout(ntk, OrthoParams()).layout
        assert _sha(ortho) == ortho_sha
        placed = nanoplacer_layout(ntk, NanoPlaceRParams(timeout=20.0))
        assert placed.succeeded and placed.rollouts == 20
        assert _sha(placed.layout) == nanoplacer_sha
        for layout in (ortho, placed.layout):
            drc, equiv = verify_layout(layout, ntk)
            assert drc.ok, drc.summary()
            assert equiv.equivalent, equiv.reason
