"""Differential tests: fast physical-design core vs. reference baseline.

The fast A* engine must return bit-identical paths to the reference
implementation, and the optimized exact search must reach the same
areas as the original remove-and-unroute search — with every produced
layout passing DRC and functional equivalence against its
specification network.
"""

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
from repro.networks.library import mux21, xor2
from repro.physical_design import (
    ExactParams,
    NanoPlaceRParams,
    OrthoParams,
    RoutingOptions,
    exact_layout,
    find_path,
    nanoplacer_layout,
    orthogonal_layout,
)

SCHEMES = [
    (TWODDWAVE, Topology.CARTESIAN),
    (USE, Topology.CARTESIAN),
    (RES, Topology.CARTESIAN),
    (ROW, Topology.HEXAGONAL_EVEN_ROW),
]


class TestRouterEquivalence:
    @pytest.mark.parametrize("scheme,topology", SCHEMES)
    def test_fast_matches_reference_on_random_grids(self, scheme, topology, rng):
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
            options = dict(
                allow_crossings=rng.random() < 0.7,
                max_length=rng.choice([None, rng.randint(3, w + h)]),
                avoid=avoid,
            )
            fast = find_path(
                layout, source, target, RoutingOptions(engine="fast", **options)
            )
            ref = find_path(
                layout, source, target, RoutingOptions(engine="reference", **options)
            )
            assert fast == ref, (
                f"{scheme.name} trial {trial}: fast={fast} reference={ref}"
            )


    @pytest.mark.parametrize("scheme,topology", SCHEMES)
    def test_fast_matches_reference_through_crossings(self, scheme, topology, rng):
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
            options = dict(
                allow_crossings=rng.random() < 0.85,
                crossing_penalty=rng.choice([0, 1, 2]),
                max_length=rng.choice([None, rng.randint(3, w + h)]),
                avoid=avoid,
            )
            fast = find_path(
                layout, source, target, RoutingOptions(engine="fast", **options)
            )
            ref = find_path(
                layout, source, target, RoutingOptions(engine="reference", **options)
            )
            assert fast == ref, (
                f"{scheme.name} trial {trial}: fast={fast} reference={ref}"
            )
            if fast is not None and any(t.z == 1 for t in fast):
                crossing_paths += 1
        assert crossing_paths > 0, "no compared path used the crossing layer"


class TestExactDifferential:
    def _compare(self, ntk, scheme, timeout=20.0):
        opt = exact_layout(
            ntk, ExactParams(scheme=scheme, timeout=timeout, ratio_timeout=4.0)
        )
        base = exact_layout(
            ntk,
            ExactParams(
                scheme=scheme, timeout=timeout, ratio_timeout=4.0, optimized=False
            ),
        )
        assert opt.succeeded and base.succeeded
        assert opt.layout.area() == base.layout.area()
        for result in (opt, base):
            drc, equiv = verify_layout(result.layout, ntk)
            assert drc.ok, drc.summary()
            assert equiv.equivalent, equiv.reason
        return opt, base

    def test_mux21_2ddwave(self):
        opt, base = self._compare(mux21(), TWODDWAVE)
        assert opt.layout.area() == 12  # Table I reference area

    def test_xor2_2ddwave(self):
        self._compare(xor2(), TWODDWAVE)

    @pytest.mark.slow
    def test_mux21_use(self):
        self._compare(mux21(), USE, timeout=60.0)


class TestHeuristicFlowDifferential:
    @pytest.mark.parametrize("name,build", [("mux21", mux21), ("xor2", xor2)])
    def test_ortho_engines_agree(self, name, build):
        ntk = build()
        fast = orthogonal_layout(ntk, OrthoParams())
        ref = orthogonal_layout(
            ntk, OrthoParams(routing=RoutingOptions(engine="reference"))
        )
        assert fast.layout.area() == ref.layout.area()
        for result in (fast, ref):
            drc, equiv = verify_layout(result.layout, ntk)
            assert drc.ok, drc.summary()
            assert equiv.equivalent, equiv.reason

    def test_nanoplacer_engines_agree(self):
        ntk = mux21()
        fast = nanoplacer_layout(ntk, NanoPlaceRParams(timeout=20.0))
        ref = nanoplacer_layout(
            ntk,
            NanoPlaceRParams(timeout=20.0, routing=RoutingOptions(engine="reference")),
        )
        assert fast.succeeded and ref.succeeded
        # Same seed, same deterministic router ⇒ identical rollouts.
        assert fast.layout.area() == ref.layout.area()
        drc, equiv = verify_layout(fast.layout, ntk)
        assert drc.ok and equiv.equivalent
