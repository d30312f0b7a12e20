"""The fixed oracle stack every fuzzed flow run is checked against.

Each oracle inspects one invariant the benchmark database relies on:

* ``drc`` — the layout passes gate-level design-rule checking
  (:func:`repro.layout.verification.check_layout`);
* ``equivalence`` — the layout implements its specification network
  (word-level simulation via :func:`repro.layout.equivalence`);
* ``fgl_roundtrip`` — ``.fgl`` serialisation is lossless *and* stable
  (write → read reproduces the layout structurally, write → read →
  write reproduces the byte stream, and the canonical scanner and the
  XML tier of the reader read the same layout, down to the indices it
  derives: tile and reader order, grid occupancy and counters);
* ``cell_level`` — the gate library applies cleanly, the resulting cell
  layout passes cell-level DRC, and its ``.qca``/``.sqd`` serialisation
  round-trips;
* ``analytics_agreement`` — the columnar batch-analytics kernels
  (:mod:`repro.analytics`) report the same metrics, DRC verdict and
  output signature as the per-artifact object path
  (:func:`per_artifact_analysis`) for the layout the flow produced
  (differential runs only);
* ``serve_agreement`` — after the fuzzed layout is admitted into a
  database, the HTTP ``/v1/query``/``/v1/best``/artifact endpoints of
  :mod:`repro.serve` return byte-identical payloads to the in-process
  serving API (differential runs only).

Oracles return ``None`` on success or a human-readable message on
failure; the driver wraps messages into :class:`OracleFailure` records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..celllayout.verification import check_qca_cells, check_sidb_dots
from ..gatelibs.apply import apply_gate_library
from ..io.fgl import FglError, fgl_to_layout, fgl_to_layout_xml, layout_to_fgl
from ..io.qca import cell_layout_to_qca, qca_to_cell_layout
from ..io.sqd import sidb_layout_to_sqd, sqd_to_sidb_layout
from ..layout.coordinates import Topology
from ..layout.equivalence import layout_equivalent
from ..layout.gate_layout import GateLayout
from ..layout.verification import check_layout
from ..networks.logic_network import LogicNetwork

#: Oracle names, in the order the stack runs them.  ``crash`` is the
#: implicit zeroth oracle: an unexpected exception anywhere inside a
#: flow is itself a reportable (and shrinkable) failure.
ORACLE_NAMES = (
    "crash",
    "drc",
    "equivalence",
    "fgl_roundtrip",
    "cell_level",
    "analytics_agreement",
    "serve_agreement",
)


@dataclass(frozen=True)
class OracleFailure:
    """One violated invariant: which oracle tripped and why."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


def check_drc(network: LogicNetwork, layout: GateLayout) -> str | None:
    report = check_layout(layout)
    if not report.ok:
        return report.summary()
    return None


def check_equivalence_oracle(
    network: LogicNetwork, layout: GateLayout, num_vectors: int = 64
) -> str | None:
    result = layout_equivalent(layout, network, num_vectors=num_vectors)
    if not result.equivalent:
        if result.counterexample is not None:
            return f"counterexample input {result.counterexample}"
        return result.reason or "layouts differ on sampled stimulus"
    return None


def check_fgl_roundtrip(network: LogicNetwork, layout: GateLayout) -> str | None:
    try:
        text = layout_to_fgl(layout)
        restored = fgl_to_layout(text)
    except (FglError, ValueError) as exc:
        return f"serialisation raised {exc!r}"
    diff = layout.structural_diff(restored)
    if diff is not None:
        return f"write→read lost information: {diff}"
    second = layout_to_fgl(restored)
    if second != text:
        return "write→read→write is not byte-stable"
    try:
        through_xml = fgl_to_layout_xml(text)
    except FglError as exc:
        return f"the XML tier rejects what the canonical tier read: {exc!r}"
    diff = restored.structural_diff(through_xml)
    if diff is not None or layout_to_fgl(through_xml) != text:
        return (
            "canonical and XML tiers read different layouts: "
            f"{diff or 'bytes differ'}"
        )
    diff = derived_index_diff(restored, through_xml)
    if diff is not None:
        return f"canonical and XML tiers derive different indices: {diff}"
    return None


def derived_index_diff(a: GateLayout, b: GateLayout) -> str | None:
    """First difference in what two layouts derive from their tiles, or
    ``None``: the tile insertion order, the reader lists (keys and list
    order), the occupancy grid and the two occupancy counters.

    :meth:`GateLayout.structural_diff` compares content only; the
    canonical reader adopts rows in bulk and the XML tier places them
    one by one, and both must leave the same indices behind.
    """
    if list(a._tiles) != list(b._tiles):
        return "tile insertion order differs"
    if list(a._readers.items()) != list(b._readers.items()):
        return "reader lists differ"
    if a._grid != b._grid:
        return "occupancy grid differs"
    counters = (a._ground_occupied, a._border_occupied)
    theirs = (b._ground_occupied, b._border_occupied)
    if counters != theirs:
        return f"occupancy counters differ: {counters} vs {theirs}"
    return None


def check_cell_level(
    network: LogicNetwork, layout: GateLayout, library: str
) -> str | None:
    expected_topology = (
        Topology.HEXAGONAL_EVEN_ROW if library == "Bestagon" else Topology.CARTESIAN
    )
    if layout.topology is not expected_topology:
        return None  # library/topology pairing not applicable
    try:
        cells = apply_gate_library(layout, library)
    except (ValueError, KeyError) as exc:
        return f"gate library application raised {exc!r}"
    if library == "Bestagon":
        report = check_sidb_dots(cells)
        if not report.ok:
            return f"SiDB DRC: {report.summary()}"
        restored = sqd_to_sidb_layout(sidb_layout_to_sqd(cells))
        if set(restored.dots) != set(cells.dots):
            return ".sqd round-trip changed the dot set"
        if (
            restored.input_labels != cells.input_labels
            or restored.output_labels != cells.output_labels
        ):
            return ".sqd round-trip changed pin labels"
        return None
    report = check_qca_cells(cells)
    if not report.ok:
        return f"cell DRC: {report.summary()}"
    restored = qca_to_cell_layout(cell_layout_to_qca(cells))
    if _qca_cells_table(restored) != _qca_cells_table(cells):
        return ".qca round-trip changed the cell map"
    return None


def _qca_cells_table(layout) -> dict:
    return {
        position: (cell.cell_type, cell.label or None)
        for position, cell in layout.cells.items()
    }


def run_oracle_stack(
    network: LogicNetwork,
    layout: GateLayout,
    library: str = "QCA ONE",
    num_vectors: int = 64,
) -> OracleFailure | None:
    """Run the per-layout oracles; first failure wins (stack order)."""
    message = check_drc(network, layout)
    if message is not None:
        return OracleFailure("drc", message)
    message = check_equivalence_oracle(network, layout, num_vectors)
    if message is not None:
        return OracleFailure("equivalence", message)
    message = check_fgl_roundtrip(network, layout)
    if message is not None:
        return OracleFailure("fgl_roundtrip", message)
    message = check_cell_level(network, layout, library)
    if message is not None:
        return OracleFailure("cell_level", message)
    return None


# ---------------------------------------------------------------------------
# Differential oracles (need to re-run the flow, so they live above the
# single-layout stack and are invoked by the driver / corpus replay)
# ---------------------------------------------------------------------------


def per_artifact_analysis(text: str, with_signature: bool = True):
    """Analyse one ``.fgl`` payload through the object model.

    ``fgl_to_layout`` → ``compute_metrics`` / ``check_layout`` /
    ``output_signature``: the per-artifact path the columnar kernels of
    :mod:`repro.analytics` must reproduce (``metrics`` is ``None`` where
    the connectivity is cyclic or dangling; DRC-failed layouts get no
    signature, mirroring ``verify_layout``).
    """
    from ..analytics.kernels import DrcCounts, LayoutAnalysis
    from ..layout.metrics import compute_metrics
    from ..networks.simulation import output_signature

    layout = fgl_to_layout(text)
    try:
        metrics = compute_metrics(layout)
    except ValueError:
        metrics = None
    report = check_layout(layout)
    drc = DrcCounts(len(report.violations), len(report.warnings))
    signature = None
    if with_signature and drc.ok:
        signature = output_signature(layout.extract_network())
    return LayoutAnalysis(
        metrics=metrics,
        drc=drc,
        signature=signature,
        num_pis=len(layout.pis()),
        num_pos=len(layout.pos()),
    )


def check_analytics_agreement(network: LogicNetwork, flow) -> OracleFailure | None:
    """Columnar kernels must agree exactly with the per-artifact path.

    Runs the flow once, serialises the layout to ``.fgl``, and compares
    the columnar metrics, DRC counts and output signature of
    :func:`repro.analytics.analyze_texts` with
    :func:`per_artifact_analysis` of the same text.
    """
    from ..analytics import analyze_texts
    from .config import FlowSkipped

    try:
        layout = replace(flow, differential=None).run(network)
    except FlowSkipped:
        return None
    text = layout_to_fgl(layout)
    reference = per_artifact_analysis(text)
    columnar = analyze_texts([text], with_signatures=True)[0]
    if columnar != reference:
        return OracleFailure(
            "analytics_agreement",
            f"columnar {columnar} != per-artifact {reference} ({flow.describe()})",
        )
    return None


def check_serve_agreement(network: LogicNetwork, flow) -> OracleFailure | None:
    """The HTTP endpoints must agree with the in-process serving API.

    Runs the flow, admits the layout into a throwaway database (loose
    file → index → facets → pack, the writer sequence), starts a real
    :class:`~repro.serve.app.BenchServer` on an ephemeral port, and
    compares ``/v1/query``, ``/v1/best`` and the artifact download
    against ``query_payload``/``best_payload``/``artifact_text`` on the
    same database — the payloads must be byte-identical, so the HTTP
    layer provably adds nothing but transport even for fuzzed layouts.
    """
    import http.client
    import json
    import threading
    from tempfile import TemporaryDirectory
    from pathlib import Path
    from urllib.parse import quote, urlencode

    from ..core import BenchmarkDatabase, Selection
    from ..core.bench import BenchmarkFile
    from ..core.selection import AbstractionLevel
    from ..serve import ServeConfig, make_server
    from ..serve.handlers import best_payload, query_payload
    from .config import FlowSkipped

    try:
        layout = replace(flow, differential=None).run(network)
    except FlowSkipped:
        return None
    algorithm = {"nanoplacer": "NPR"}.get(flow.algorithm, flow.algorithm)
    scheme = "ROW" if layout.topology is not Topology.CARTESIAN else flow.scheme
    with TemporaryDirectory(prefix="qa_serve_") as tmp:
        root = Path(tmp)
        db = BenchmarkDatabase(root)
        (root / "fuzz").mkdir()
        relpath = f"fuzz/{network.name}.fgl"
        (root / relpath).write_text(layout_to_fgl(layout), encoding="utf-8")
        width, height = layout.bounding_box()
        db._records.append(
            BenchmarkFile(
                suite="fuzz",
                name=network.name,
                abstraction_level=AbstractionLevel.GATE_LEVEL,
                path=relpath,
                gate_library=flow.library,
                clocking_scheme=scheme,
                algorithm=algorithm,
                width=width,
                height=height,
                area=width * height,
            )
        )
        db._save_index()
        db.pack()
        selections = (
            Selection.make(),
            Selection.make(gate_libraries=[flow.library], best_only=True),
            Selection.make(names=[network.name]),
        )
        server = make_server(ServeConfig(database=root, port=0, check_interval=0.0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)

        def fetch(path: str) -> bytes:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise AssertionError(f"GET {path} -> {response.status}")
            return body

        try:
            for i, selection in enumerate(selections):
                params = [("library", lib) for lib in selection.gate_libraries]
                params += [("name", n) for n in selection.names]
                if selection.best_only:
                    params.append(("best", "1"))
                served = json.loads(
                    fetch("/v1/query?" + urlencode(params) if params else "/v1/query")
                )
                expected = query_payload(db, selection)
                if served != expected:
                    return OracleFailure(
                        "serve_agreement",
                        f"/v1/query selection #{i} served {served} "
                        f"!= in-process {expected} ({flow.describe()})",
                    )
            served_bytes = fetch("/v1/artifact/" + quote(relpath))
            expected_bytes = db.artifact_text(db.files()[0]).encode("utf-8")
            if served_bytes != expected_bytes:
                return OracleFailure(
                    "serve_agreement",
                    f"artifact download differs from artifact_text "
                    f"({len(served_bytes)} vs {len(expected_bytes)} bytes, "
                    f"{flow.describe()})",
                )
            served_best = json.loads(fetch("/v1/best"))
            expected_best = best_payload(db)
            if served_best != expected_best:
                return OracleFailure(
                    "serve_agreement",
                    f"/v1/best served {served_best} != in-process "
                    f"{expected_best} ({flow.describe()})",
                )
        except AssertionError as exc:
            return OracleFailure("serve_agreement", str(exc))
        finally:
            conn.close()
            server.close()
            thread.join(timeout=10)
            db.store.close()
    return None
