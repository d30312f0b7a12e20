"""``format=qca`` downloads agree with the in-process layout path.

The server compiles QCA ONE from the gate columns of the stored text
(text → columns → compile → writer).  For every stored text — canonical
or not, valid or not — the response must be what loading the text into
a layout and compiling that gives: the same ``.qca`` bytes, or the same
HTTP 400 body carrying the same :class:`~repro.io.fgl.FglError` or
:class:`~repro.gatelibs.qca_one.QCAOneError` message.
"""

from __future__ import annotations

import re

import pytest

import repro.io.fgl as fgl_module
from repro.core import BenchmarkDatabase, SnapshotManager
from repro.core.bench import BenchmarkFile
from repro.core.selection import AbstractionLevel
from repro.core.store import ArtifactStore
from repro.gatelibs import apply_gate_library
from repro.io.fgl import fgl_to_layout, layout_to_fgl
from repro.io.qca import cell_layout_to_qca
from repro.layout import OPEN, TWODDWAVE, GateLayout, Tile
from repro.networks import GateType
from repro.networks.library import full_adder, mux21
from repro.optimization import to_hexagonal
from repro.physical_design import orthogonal_layout
from repro.serve.handlers import BenchService, Request, _error
from repro.serve.http_utils import LruCache

_GATE = re.compile(r"        <gate>\n.*?        </gate>\n", re.DOTALL)
_SIGNAL_XY = re.compile(r"(<signal>\n\s*<x>)\d+(</x>\n\s*<y>)\d+(</y>)")


def _gates(text: str) -> tuple[str, list[str], str]:
    blocks = _GATE.findall(text)
    start = text.index(blocks[0])
    end = text.rindex(blocks[-1]) + len(blocks[-1])
    return text[:start], blocks, text[end:]


def _loc(block: str) -> tuple[int, int, int]:
    loc = re.search(r"<loc>\s*<x>(\d+)</x>\s*<y>(\d+)</y>\s*<z>(\d+)</z>", block)
    return tuple(int(v) for v in loc.groups())


def _fanins_first(text: str, renumber: bool) -> str:
    """The gates in reverse order, so each is listed before its fanins;
    with ``renumber`` the ids follow the new order, keeping the text in
    the canonical shape."""
    head, blocks, tail = _gates(text)
    blocks = blocks[::-1]
    if renumber:
        blocks = [
            re.sub(r"<id>\d+</id>", f"<id>{i}</id>", block, count=1)
            for i, block in enumerate(blocks)
        ]
    return head + "".join(blocks) + tail


def _rewired(text: str, gate_index: int, x: int, y: int) -> str:
    """``text`` with the first fanin of gate ``gate_index`` moved to (x, y)."""
    head, blocks, tail = _gates(text)
    blocks[gate_index] = _SIGNAL_XY.sub(
        rf"\g<1>{x}\g<2>{y}\g<3>", blocks[gate_index], count=1
    )
    return head + "".join(blocks) + tail


def _dangling(text: str) -> str:
    head, blocks, _ = _gates(text)
    occupied = {_loc(block)[:2] for block in blocks}
    width = int(re.search(r"<size>\s*<x>(\d+)</x>", head).group(1))
    empty = next((x, 0) for x in range(width) if (x, 0) not in occupied)
    reader = next(i for i, block in enumerate(blocks) if "<incoming>" in block)
    return _rewired(text, reader, *empty)


def _cycle(text: str) -> str:
    """A gate rewired to read its own reader: neither can be placed."""
    _, blocks, _ = _gates(text)
    for index, block in enumerate(blocks):
        x, y, z = _loc(block)
        pattern = f"<signal>\n\\s*<x>{x}</x>\n\\s*<y>{y}</y>\n\\s*<z>{z}</z>"
        for later in blocks[index + 1 :]:
            if "<incoming>" in block and re.search(pattern, later):
                return _rewired(text, index, *_loc(later)[:2])
    raise AssertionError("no gate with a later reader")


def _skipping(crossing: bool) -> str:
    lay = GateLayout(4, 3, TWODDWAVE)
    a = lay.create_pi(Tile(1, 0), "a")
    wire = lay.create_wire(Tile(1, 1), a)
    lay.create_po(Tile(1, 2), wire, "f")
    b = lay.create_pi(Tile(3, 1), "b")
    if crossing:
        lay.create_po(Tile(0, 1), lay.create_wire(Tile(1, 1, 1), b), "g")
    else:
        lay.create_po(Tile(0, 2), b, "g")
    return layout_to_fgl(lay)


def _xor() -> str:
    lay = GateLayout(3, 2, TWODDWAVE)
    a = lay.create_pi(Tile(1, 0), "a")
    b = lay.create_pi(Tile(0, 1), "b")
    lay.create_po(Tile(2, 1), lay.create_gate(GateType.XOR, Tile(1, 1), [a, b]), "f")
    return layout_to_fgl(lay)


def _open_clocked() -> str:
    """mux21's ortho layout on OPEN clocking with a zone on every tile."""
    base = orthogonal_layout(mux21()).layout
    lay = GateLayout(base.width, base.height, OPEN, base.topology, "open")
    for y in range(base.height):
        for x in range(base.width):
            lay.assign_zone(Tile(x, y), (x + 3 * y) % 4)
    for tile, gate in base.tiles():
        if gate.gate_type is GateType.PI:
            lay.create_pi(tile, gate.name)
        elif gate.gate_type is GateType.PO:
            lay.create_po(tile, gate.fanins[0], gate.name)
        elif gate.gate_type is GateType.BUF and not gate.name:
            lay.create_wire(tile, gate.fanins[0])
        else:
            lay.create_gate(gate.gate_type, tile, gate.fanins, gate.name)
    return layout_to_fgl(lay)


CANONICAL = layout_to_fgl(orthogonal_layout(full_adder()).layout)

TEXTS = {
    "canonical": CANONICAL,
    "reindented": CANONICAL.replace("\n    ", "\n  "),
    "fanins_after": _fanins_first(CANONICAL, renumber=False),
    "fanins_after_canonical": _fanins_first(CANONICAL, renumber=True),
    "dangling_fanin": _dangling(CANONICAL),
    "cycle": _cycle(CANONICAL),
    "not_adjacent": _skipping(crossing=False),
    "not_adjacent_crossing": _skipping(crossing=True),
    "constant_row": CANONICAL.replace("<type>PI</type>", "<type>CONST0</type>", 1),
    "xor": _xor(),
    "open_zones": _open_clocked(),
    "hexagonal": layout_to_fgl(to_hexagonal(orthogonal_layout(mux21()).layout).layout),
    "not_xml": "<fgl><layout>",
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("parity_db")
    (root / "parity").mkdir()
    db = BenchmarkDatabase(root)
    for name, text in TEXTS.items():
        relpath = f"parity/{name}.fgl"
        (root / relpath).write_text(text, encoding="utf-8")
        db._records.append(
            BenchmarkFile(
                suite="parity",
                name=name,
                abstraction_level=AbstractionLevel.GATE_LEVEL,
                path=relpath,
                gate_library="QCA ONE",
                clocking_scheme="2DDWave",
                algorithm="ortho",
            )
        )
    db._save_index()
    db.pack()
    db.store.close()
    manager = SnapshotManager(root, check_interval=0.0)
    yield BenchService(manager)
    manager.close()


def _download(service: BenchService, name: str):
    request = Request("GET", f"/v1/artifact/parity/{name}.fgl", {"format": ["qca"]}, {})
    return service.handle(request)


def _expected(text: str) -> tuple[int, bytes]:
    """What the layout path gives: the body, or the handler's 400 body."""
    try:
        cells = apply_gate_library(fgl_to_layout(text), "QCA ONE")
        return 200, cell_layout_to_qca(cells).encode("utf-8")
    except ValueError as exc:
        return 400, _error(400, str(exc)).body


def test_inputs_cover_both_outcomes():
    statuses = {name: _expected(text)[0] for name, text in TEXTS.items()}
    assert statuses == {
        "canonical": 200,
        "reindented": 200,
        "fanins_after": 200,
        "fanins_after_canonical": 200,
        "dangling_fanin": 400,
        "cycle": 400,
        "not_adjacent": 400,
        "not_adjacent_crossing": 400,
        "constant_row": 400,
        "xor": 400,
        "open_zones": 200,
        "hexagonal": 400,
        "not_xml": 400,
    }
    assert fgl_module.scan_canonical(TEXTS["fanins_after_canonical"]) is not None
    assert fgl_module.scan_canonical(TEXTS["cycle"]) is not None


@pytest.mark.parametrize("name", list(TEXTS))
def test_download_matches_the_layout_path(service, name):
    response = _download(service, name)
    assert (response.status, response.body) == _expected(TEXTS[name])


def test_repeated_request_is_a_render_cache_hit(service):
    first = _download(service, "open_zones")
    hits = service.render_cache.hits
    second = _download(service, "open_zones")
    assert service.render_cache.hits == hits + 1
    assert (second.status, second.body) == (first.status, first.body) == _expected(
        TEXTS["open_zones"]
    )


def test_canonical_text_builds_no_layout(service, monkeypatch):
    """The scanned columns go straight to the compile: no layout is
    built, cached or cloned."""
    expected = _expected(CANONICAL)
    monkeypatch.setattr(service, "render_cache", LruCache(1))  # a cold cache

    def boom(*args, **kwargs):
        raise AssertionError("a GateLayout was built for canonical text")

    monkeypatch.setattr(fgl_module, "_new_layout", boom)
    monkeypatch.setattr(ArtifactStore, "load_layout", boom)
    response = _download(service, "canonical")
    assert (response.status, response.body) == expected
