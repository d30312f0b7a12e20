"""PLO's dirty tracking agrees with a brute-force scan of the change log.

``_ConnectionIndex.dirty_since`` decides which cached traces PLO reuses
and which failed attempts it skips, so its answer must be exact: here it
is checked against a scan of every change ever committed, over random
commit sequences and rectangles (off-grid margins, whole-layout
rectangles, empty-history and current-generation ``seq`` values).
"""

import pytest

from repro.layout import GateLayout, TWODDWAVE, Tile
from repro.optimization.post_layout import _ConnectionIndex


def _brute_force_dirty(log, seq, rect):
    """Any change committed after ``seq`` inside ``rect`` (the full log)."""
    x0, y0, x1, y1 = rect
    return any(
        s > seq and x0 <= x <= x1 and y0 <= y <= y1 for s, x, y in log
    )


def _random_rect(rng, width, height):
    kind = rng.randrange(4)
    if kind == 0:
        return (-1, -1, width, height)  # the whole layout plus margin
    if kind == 1:  # a small read neighbourhood, margin may leave the grid
        x0, y0 = rng.randrange(-1, width), rng.randrange(-1, height)
        return (x0, y0, x0 + rng.randrange(4), y0 + rng.randrange(4))
    if kind == 2:  # a tall or wide strip
        x0 = rng.randrange(-1, width)
        return (x0, -1, x0 + rng.randrange(3), height)
    x0, x1 = sorted(rng.randrange(-1, width + 1) for _ in range(2))
    y0, y1 = sorted(rng.randrange(-1, height + 1) for _ in range(2))
    return (x0, y0, x1, y1)


@pytest.mark.parametrize(
    "width,height", [(1, 1), (1, 9), (9, 1), (12, 7), (40, 30), (300, 200)]
)
def test_dirty_since_equals_brute_force(rng, width, height):
    index = _ConnectionIndex(GateLayout(width, height, TWODDWAVE))
    log: list[tuple[int, int, int]] = []
    answers = set()
    for _ in range(120):
        # Commits repeat positions within and across generations, and
        # some are empty.
        tiles = [
            Tile(rng.randrange(width), rng.randrange(height), rng.randrange(2))
            for _ in range(rng.choice((0, 1, 2, 5, 12)))
        ]
        index.commit(tiles)
        log.extend((index.seq, t.x, t.y) for t in tiles)
        for _ in range(10):
            seq = rng.choice((0, index.seq, rng.randrange(index.seq + 1)))
            rect = _random_rect(rng, width, height)
            if log and rng.random() < 0.5:
                # Just after the generation that touched a logged
                # position, around that position: clean unless touched
                # again since.
                s, x, y = rng.choice(log)
                seq, rect = s, (x - 1, y - 1, x + rng.randrange(3), y + 1)
            expected = _brute_force_dirty(log, seq, rect)
            assert index.dirty_since(seq, rect) == expected, (seq, rect)
            answers.add(expected)
    assert answers == {True, False}


def test_current_generation_is_clean():
    index = _ConnectionIndex(GateLayout(4, 4, TWODDWAVE))
    index.commit([Tile(1, 1)])
    assert index.dirty_since(0, (0, 0, 3, 3))
    assert not index.dirty_since(index.seq, (-1, -1, 4, 4))
    assert not index.dirty_since(0, (2, 2, 3, 3))

