"""The MNT Bench benchmark database (contributions #1 and #2).

The hosted website is, at its core, a store of benchmark artifacts —
network descriptions in Verilog and gate-level layouts in ``.fgl`` — for
every combination of benchmark function, gate library, clocking scheme,
physical design algorithm and optimisation, fronted by the Figure 1
filter form.  :class:`BenchmarkDatabase` reproduces that store on the
local filesystem:

* :meth:`BenchmarkDatabase.generate` runs the requested flows and writes
  the artifacts with the MNT Bench file-naming convention
  (``<name>_<lib>_<scheme>_<algorithm>[_<opts>].fgl``),
* a JSON index mirrors the website's metadata (areas, runtimes,
  provenance) and survives across sessions,
* :meth:`BenchmarkDatabase.query` applies a :class:`Selection` exactly
  like the web form does, and
* every generated layout is design-rule-checked and functionally
  verified against its specification network before it enters the index.

Generation is organised as independent **flow tasks** — picklable
descriptions of one (benchmark × flow) unit of work, each carrying the
specification as Verilog text.  Both generation and the optimize stage
execute their tasks on the work-queue scheduler
(:func:`repro.scheduler.run_generation`): with
``GenerationParams.jobs > 1`` (or a per-task budget) they fan out across
its kill-safe worker pool; ``jobs=1`` runs the identical task function
in-process for debuggability.  A **flow-result cache** keyed by (network
signature, flow, params hash) lives inside the JSON index, so
re-generating a database skips already-verified layouts entirely.
"""

from __future__ import annotations

import hashlib
import json
import time
import os

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from ..benchsuite.registry import BenchmarkSpec
from ..layout.clocking import CARTESIAN_SCHEMES, ROW
from ..layout.coordinates import Topology
from ..layout.equivalence import verify_layout
from ..layout.gate_layout import GateLayout
from ..networks.logic_network import LogicNetwork
from ..networks.simulation import output_signature
from ..networks.verilog import network_to_verilog, parse_verilog, write_verilog
from ..io.fgl import fgl_to_layout, layout_to_fgl
from ..optimization.hexagonalization import to_hexagonal
from ..optimization.input_ordering import InputOrderingParams, input_ordering
from ..optimization.post_layout import PostLayoutParams, post_layout_optimization
from ..optimization.wiring_reduction import wiring_reduction
from ..physical_design.exact import ExactParams, ExactSearchStats, exact_layout
from ..physical_design.nanoplacer import (
    NanoPlaceRParams,
    NanoPlaceRScaleError,
    nanoplacer_layout,
)
from ..physical_design.ortho import OrthoError, OrthoParams
from .facet_index import FacetIndex
from .selection import AbstractionLevel, Selection
from .store import ArtifactNotFoundError, ArtifactStore

#: Short library tags used in file names, like the upstream site.
_LIBRARY_TAGS = {"QCA ONE": "ONE", "Bestagon": "Bestagon"}


@dataclass(frozen=True)
class BenchmarkFile:
    """One artifact in the database (a row of the website's result list)."""

    suite: str
    name: str
    abstraction_level: AbstractionLevel
    path: str
    gate_library: str | None = None
    clocking_scheme: str | None = None
    algorithm: str | None = None
    optimizations: tuple[str, ...] = ()
    width: int | None = None
    height: int | None = None
    area: int | None = None
    num_gates: int | None = None
    num_wires: int | None = None
    num_crossings: int | None = None
    runtime_seconds: float | None = None

    def to_json(self) -> dict:
        record = {
            "suite": self.suite,
            "name": self.name,
            "abstraction_level": self.abstraction_level.value,
            "path": self.path,
            "gate_library": self.gate_library,
            "clocking_scheme": self.clocking_scheme,
            "algorithm": self.algorithm,
            "optimizations": list(self.optimizations),
            "width": self.width,
            "height": self.height,
            "area": self.area,
            "num_gates": self.num_gates,
            "num_wires": self.num_wires,
            "num_crossings": self.num_crossings,
            "runtime_seconds": self.runtime_seconds,
        }
        return record

    @staticmethod
    def from_json(record: dict) -> "BenchmarkFile":
        return BenchmarkFile(
            suite=record["suite"],
            name=record["name"],
            abstraction_level=AbstractionLevel(record["abstraction_level"]),
            path=record["path"],
            gate_library=record.get("gate_library"),
            clocking_scheme=record.get("clocking_scheme"),
            algorithm=record.get("algorithm"),
            optimizations=tuple(record.get("optimizations", ())),
            width=record.get("width"),
            height=record.get("height"),
            area=record.get("area"),
            num_gates=record.get("num_gates"),
            num_wires=record.get("num_wires"),
            num_crossings=record.get("num_crossings"),
            runtime_seconds=record.get("runtime_seconds"),
        )


@dataclass
class GenerationParams:
    """Effort knobs for database generation."""

    exact_timeout: float = 6.0
    exact_ratio_timeout: float | None = 0.8
    exact_max_elements: int = 28
    nanoplacer_timeout: float = 4.0
    nanoplacer_max_gates: int = 160
    inord_evaluations: int = 6
    inord_timeout: float = 20.0
    plo_timeout: float = 20.0
    plo_passes: int = 8
    #: Node cap for synthetic circuits (None: full published size).
    node_cap: int | None = 300
    verify_vectors: int = 64
    #: Worker processes for flow execution; 1 runs everything in-process.
    jobs: int = 1
    #: Compatibility field: accepts only 1 (the exact search is
    #: sequential; flows run in parallel through ``jobs``).  It stays in
    #: the cache key so that existing flow caches keep hitting.
    exact_jobs: int = 1
    #: Reuse flow results recorded in the index's flow cache.
    use_cache: bool = True
    #: Profile every executed task under :mod:`cProfile` (inside the
    #: worker that runs it, so it composes with ``jobs``) and report the
    #: hottest functions per flow.  Disables the cache so every flow
    #: actually runs.
    profile: bool = False
    #: Number of rows in each per-flow profile table.
    profile_top: int = 12
    #: Wall-clock budget per flow task; the scheduler SIGKILLs the
    #: worker past it and records a ``timeout`` rejection.  Part of the
    #: cache key: changing the budget invalidates budget-rejected
    #: entries.
    task_wall_budget: float | None = None
    #: Address-space budget per flow task in MiB (``RLIMIT_AS`` inside
    #: the worker); overruns become recorded ``memory`` rejections.
    task_memory_budget_mb: float | None = None
    #: Zero all recorded runtimes so identical inputs produce
    #: byte-identical databases (crash/resume identity tests).
    reproducible: bool = False

    def __post_init__(self) -> None:
        if self.exact_jobs != 1:
            raise ValueError(
                f"exact_jobs must be 1, got {self.exact_jobs!r}: the exact "
                "search is sequential; use jobs for parallel flows"
            )

    def cache_fields(self) -> dict:
        """The parameter subset that affects flow *results* (not how or
        whether they are executed), i.e. the cache-key contribution."""
        data = asdict(self)
        data.pop("jobs")
        data.pop("use_cache")
        data.pop("profile")
        data.pop("profile_top")
        return data


@dataclass
class GenerationReport:
    """Per-``generate`` observability: what happened to every flow.

    ``flow_seconds`` maps ``"<suite>/<name>:<flow>"`` to the wall time
    the flow task took (cache hits are not re-timed and keep their
    original record runtimes instead).
    """

    admitted: int = 0
    drc_failed: int = 0
    inequivalent: int = 0
    #: Flows that produced no candidate layout (scale refusals, timeouts).
    no_layout: int = 0
    skipped_cached: int = 0
    #: Tasks killed at their wall budget (recorded, not dropped).
    timeouts: int = 0
    #: Tasks whose worker hit the address-space budget.
    memory_exceeded: int = 0
    #: Exact tasks early-cancelled as dominated.
    cancelled: int = 0
    #: Tasks that errored or whose worker died past all retries.
    worker_errors: int = 0
    #: Tasks replayed from the generation journal (``--resume``).
    resumed: int = 0
    flow_seconds: dict[str, float] = field(default_factory=dict)
    #: Per-flow cProfile top-N tables (populated with ``profile=True``).
    flow_profiles: dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Scheduler accounting for this sweep (``SchedulerStats.to_json``).
    scheduler: dict | None = None
    #: Aggregate exact-search accounting across every executed exact
    #: flow (``ExactSearchStats.to_json`` of the merged counters).
    exact_search: dict | None = None

    @property
    def executed_flows(self) -> int:
        return len(self.flow_seconds)

    def summary(self) -> str:
        text = (
            f"{self.admitted} admitted, {self.drc_failed} DRC-failed, "
            f"{self.inequivalent} inequivalent, {self.no_layout} without layout, "
            f"{self.skipped_cached} cache hits "
            f"({self.executed_flows} flows executed in {self.wall_seconds:.1f}s)"
        )
        extras = []
        if self.resumed:
            extras.append(f"{self.resumed} resumed from journal")
        if self.timeouts:
            extras.append(f"{self.timeouts} timed out")
        if self.memory_exceeded:
            extras.append(f"{self.memory_exceeded} over memory budget")
        if self.cancelled:
            extras.append(f"{self.cancelled} cancelled as dominated")
        if self.worker_errors:
            extras.append(f"{self.worker_errors} worker errors")
        if extras:
            text += "; " + ", ".join(extras)
        return text


class GenerationOutcome(list):
    """The records created by one ``generate`` call plus its report.

    Behaves exactly like the plain ``list[BenchmarkFile]`` older callers
    expect while carrying the :class:`GenerationReport` alongside.
    """

    def __init__(self, records, report: GenerationReport) -> None:
        super().__init__(records)
        self.report = report


# -- flow tasks ----------------------------------------------------------------
#
# A flow task is self-contained and picklable: the specification network
# travels as Verilog text (the very artifact the database distributes),
# so worker processes need no registry state.  Each task runs one flow,
# verifies every candidate it produces (DRC + word-level equivalence)
# and returns serialised layouts; only the parent touches the filesystem.


@dataclass(frozen=True)
class FlowTask:
    """One picklable (benchmark × flow) unit of generation work."""

    suite: str
    name: str
    flow: str
    verilog: str
    params: GenerationParams


@dataclass(frozen=True)
class FlowArtifact:
    """One verified candidate layout produced by a flow task."""

    status: str  # "admitted" | "drc_failed" | "inequivalent"
    library: str
    algorithm: str
    scheme: str
    optimizations: tuple[str, ...]
    runtime_seconds: float
    fgl_text: str | None = None
    width: int | None = None
    height: int | None = None
    num_gates: int | None = None
    num_wires: int | None = None
    num_crossings: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class FlowTaskResult:
    """Everything a flow task hands back to the parent process."""

    flow: str
    candidates: tuple[FlowArtifact, ...]
    wall_seconds: float
    #: Formatted cProfile top-N table when profiling was requested.
    profile_stats: str | None = None
    #: Scheduler-recorded failure instead of a computed result:
    #: ``{"status": "timeout"|"memory"|"cancelled"|"error", "reason": str}``.
    failure: dict | None = None
    #: Merged :class:`ExactSearchStats` (``to_json``) when the flow ran
    #: at least one exact search; ``None`` otherwise.
    exact_stats: dict | None = None


def _failure_counter(status: str) -> str:
    """The :class:`GenerationReport` (and scheduler stats) counter a
    recorded task failure status increments."""
    return {
        "timeout": "timeouts",
        "memory": "memory_exceeded",
        "cancelled": "cancelled",
    }.get(status, "worker_errors")


def _run_flow(network: LogicNetwork, flow: str, params: GenerationParams,
              stats_sink: list | None = None):
    """Produce the raw (layout, algorithm, scheme, opts, runtime) tuples
    of one named flow; an empty list when the flow yields no layout.

    ``stats_sink`` collects the :class:`ExactSearchStats` of every exact
    search the flow performs (exact flows append exactly one entry)."""
    if flow in ("ortho_opt", "hex:ortho_opt"):
        # The plain ortho layout is InOrd's identity evaluation, so one
        # search yields both of the function's ortho artifacts.  Bestagon
        # places its native two-input gates instead of their AOIG
        # decomposition and scores InOrd by the area after 45°.
        hexagonal = flow == "hex:ortho_opt"
        try:
            inord = input_ordering(
                network,
                InputOrderingParams(
                    max_evaluations=params.inord_evaluations,
                    timeout=params.inord_timeout,
                    ortho=OrthoParams(keep_two_input=hexagonal),
                    objective="hex_area" if hexagonal else "area",
                ),
            )
        except OrthoError:
            return []
        plo = post_layout_optimization(
            inord.layout.clone(),
            PostLayoutParams(max_passes=params.plo_passes, timeout=params.plo_timeout),
        )
        produced = [
            (inord.identity.layout, "ortho", "2DDWave", (), inord.identity.runtime_seconds),
            (
                plo.layout,
                "ortho",
                "2DDWave",
                ("InOrd (SDN)", "PLO"),
                inord.runtime_seconds + plo.runtime_seconds,
            ),
        ]
        return _hexagonalize(produced) if hexagonal else produced
    if flow == "npr":
        try:
            result = nanoplacer_layout(
                network,
                NanoPlaceRParams(
                    timeout=params.nanoplacer_timeout,
                    max_gates=params.nanoplacer_max_gates,
                ),
            )
        except NanoPlaceRScaleError:
            return []
        if result.layout is None:
            return []
        return [(result.layout, "NPR", "2DDWave", (), result.runtime_seconds)]
    if flow.startswith("exact:"):
        scheme_name = flow.split(":", 1)[1]
        scheme = next(s for s in CARTESIAN_SCHEMES if s.name == scheme_name)
        result = exact_layout(
            network,
            ExactParams(
                scheme=scheme,
                timeout=params.exact_timeout,
                ratio_timeout=params.exact_ratio_timeout,
            ),
        )
        if stats_sink is not None and result.stats is not None:
            stats_sink.append(result.stats)
        if result.layout is None:
            return []
        return [(result.layout, "exact", scheme.name, (), result.runtime_seconds)]
    if flow == "exact_hex":
        result = exact_layout(
            network,
            ExactParams(
                scheme=ROW,
                topology=Topology.HEXAGONAL_EVEN_ROW,
                timeout=params.exact_timeout,
                ratio_timeout=params.exact_ratio_timeout,
                keep_two_input=True,
            ),
        )
        if stats_sink is not None and result.stats is not None:
            stats_sink.append(result.stats)
        if result.layout is None:
            return []
        return [(result.layout, "exact", "ROW", (), result.runtime_seconds)]
    if flow in ("hex:npr", "hex:exact"):
        base = "exact:2DDWave" if flow == "hex:exact" else "npr"
        return _hexagonalize(_run_flow(network, base, params, stats_sink))
    raise ValueError(f"unknown flow {flow!r}")


def _hexagonalize(produced: list) -> list:
    """The 45° images of the 2DDWave layouts among a flow's outputs."""
    hexed = []
    for layout, algorithm, scheme, opts, runtime in produced:
        if scheme != "2DDWave" or layout.topology is not Topology.CARTESIAN:
            continue
        result = to_hexagonal(layout)
        hexed.append(
            (result.layout, algorithm, "ROW", opts + ("45°",), runtime + result.runtime_seconds)
        )
    return hexed


def _execute_flow_task(task: FlowTask) -> FlowTaskResult:
    """Run one flow task: build, place, verify, serialise.

    The single code path of every execution mode (worker pool or
    in-process), guaranteeing all modes make identical decisions.
    """
    started = time.monotonic()
    network = parse_verilog(task.verilog)
    network.name = task.name
    candidates: list[FlowArtifact] = []
    exact_stats: list[ExactSearchStats] = []
    for layout, algorithm, scheme, opts, runtime in _run_flow(
        network, task.flow, task.params, exact_stats
    ):
        drc, equivalence = verify_layout(
            layout, network, num_vectors=task.params.verify_vectors
        )
        library = (
            "Bestagon" if layout.topology is Topology.HEXAGONAL_EVEN_ROW else "QCA ONE"
        )
        if not drc.ok:
            candidates.append(
                FlowArtifact(
                    "drc_failed", library, algorithm, scheme, opts, runtime,
                    reason=drc.violations[0] if drc.violations else "DRC failed",
                )
            )
            continue
        if not equivalence.equivalent:
            reason = equivalence.reason or f"counterexample {equivalence.counterexample}"
            candidates.append(
                FlowArtifact(
                    "inequivalent", library, algorithm, scheme, opts, runtime,
                    reason=reason,
                )
            )
            continue
        width, height = layout.bounding_box()
        candidates.append(
            FlowArtifact(
                "admitted",
                library,
                algorithm,
                scheme,
                opts,
                runtime,
                fgl_text=layout_to_fgl(layout),
                width=width,
                height=height,
                num_gates=layout.num_gates(),
                num_wires=layout.num_wires(),
                num_crossings=layout.num_crossings(),
            )
        )
    merged_stats = None
    if exact_stats:
        merged_stats = exact_stats[0]
        for extra in exact_stats[1:]:
            merged_stats.merge(extra)
    result = FlowTaskResult(
        task.flow,
        tuple(candidates),
        time.monotonic() - started,
        exact_stats=merged_stats.to_json() if merged_stats is not None else None,
    )
    if task.params.reproducible:
        result = _strip_result_runtimes(result)
    return result


def _strip_result_runtimes(result: FlowTaskResult) -> FlowTaskResult:
    """Zero every wall-clock measurement in a task result.

    Runtimes are the only nondeterministic field a flow result carries;
    with ``GenerationParams.reproducible`` identical inputs therefore
    produce byte-identical databases — the property the crash/resume
    identity tests assert.
    """
    candidates = tuple(
        replace(candidate, runtime_seconds=0.0) for candidate in result.candidates
    )
    return replace(result, candidates=candidates, wall_seconds=0.0)


@dataclass(frozen=True)
class OptimizeTask:
    """One picklable unit of the database-wide optimize stage.

    Carries everything a worker needs — the serialised layout, the
    specification as Verilog, the metadata of the source record — so
    optimization of independent artifacts runs on the same scheduler
    (worker pool, budgets, flow cache) as flow generation.
    """

    suite: str
    name: str
    #: Cache/report label, unique per source artifact.
    flow: str
    fgl_text: str
    verilog: str
    library: str
    algorithm: str
    scheme: str
    optimizations: tuple[str, ...]
    params: GenerationParams


def _execute_optimize_task(task: OptimizeTask) -> FlowTaskResult:
    """Post-layout-optimize one stored artifact: PLO, wiring reduction,
    re-verification — the worker half of :meth:`BenchmarkDatabase.optimize`."""
    started = time.monotonic()
    network = parse_verilog(task.verilog)
    network.name = task.name
    layout = fgl_to_layout(task.fgl_text)
    plo = post_layout_optimization(
        layout,
        PostLayoutParams(
            max_passes=task.params.plo_passes, timeout=task.params.plo_timeout
        ),
    )
    reduced = wiring_reduction(plo.layout)
    final = reduced.layout
    runtime = plo.runtime_seconds + reduced.runtime_seconds
    opts = task.optimizations + ("PLO",)
    drc, equivalence = verify_layout(
        final, network, num_vectors=task.params.verify_vectors
    )
    if not drc.ok:
        artifact = FlowArtifact(
            "drc_failed", task.library, task.algorithm, task.scheme, opts, runtime,
            reason=drc.violations[0] if drc.violations else "DRC failed",
        )
    elif not equivalence.equivalent:
        artifact = FlowArtifact(
            "inequivalent", task.library, task.algorithm, task.scheme, opts, runtime,
            reason=equivalence.reason
            or f"counterexample {equivalence.counterexample}",
        )
    else:
        width, height = final.bounding_box()
        artifact = FlowArtifact(
            "admitted",
            task.library,
            task.algorithm,
            task.scheme,
            opts,
            runtime,
            fgl_text=layout_to_fgl(final),
            width=width,
            height=height,
            num_gates=final.num_gates(),
            num_wires=final.num_wires(),
            num_crossings=final.num_crossings(),
        )
    result = FlowTaskResult(task.flow, (artifact,), time.monotonic() - started)
    if task.params.reproducible:
        result = _strip_result_runtimes(result)
    return result


def _execute_task(task) -> FlowTaskResult:
    """Run one scheduler task — an :class:`OptimizeTask` or a
    :class:`FlowTask` — in a worker process or in-process.

    Both task functions are looked up through this module at call time
    so tests (and the crash-injection driver) can wrap them.  With
    ``params.profile`` the task runs under :mod:`cProfile` and the
    table of its hottest functions travels back in the result.
    """
    run = (
        _execute_optimize_task if isinstance(task, OptimizeTask)
        else _execute_flow_task
    )
    if not task.params.profile:
        return run(task)
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(run, task)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(task.params.profile_top)
    # Drop the preamble; keep only the table rows and header.
    lines = buffer.getvalue().splitlines()
    table_start = next(
        (i for i, line in enumerate(lines) if line.lstrip().startswith("ncalls")), 0
    )
    table = "\n".join(line for line in lines[table_start:] if line.strip())
    return replace(result, profile_stats=table)


class BenchmarkDatabase:
    """A local MNT Bench artifact store.

    Serving is index- and pack-accelerated: :meth:`query` runs over
    bitmap posting sets (:class:`~repro.core.facet_index.FacetIndex`),
    and gate-level payloads are read from a compressed pack file behind
    a parsed-layout LRU (:class:`~repro.core.store.ArtifactStore`).
    Both layers are transparent — loose ``.fgl`` files stay the
    canonical artifacts, legacy databases without a pack work
    unchanged, the facet index is built in memory from the records, and
    ``_query_linear`` retains the original scan as the differential
    oracle.
    """

    INDEX_NAME = "index.json"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: list[BenchmarkFile] = []
        self._flow_cache: dict[str, dict] = {}
        self._facets: FacetIndex | None = None
        self.store = ArtifactStore(self.root)
        self._load_index()

    # -- persistence ----------------------------------------------------------

    def _index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _load_index(self) -> None:
        path = self._index_path()
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
            self._records = [BenchmarkFile.from_json(r) for r in data.get("files", [])]
            self._flow_cache = data.get("flow_cache", {})

    def _save_index(self) -> None:
        data = {"files": [r.to_json() for r in self._records]}
        if self._flow_cache:
            data["flow_cache"] = self._flow_cache
        path = self._index_path()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(data, indent=2), encoding="utf-8")
        os.replace(tmp, path)
        self.store.save()

    # -- queries -----------------------------------------------------------------

    def files(self) -> list[BenchmarkFile]:
        return list(self._records)

    @staticmethod
    def _area_rank(record: BenchmarkFile) -> tuple[bool, int]:
        """Sort key treating only ``None`` as missing — a legitimate
        ``area == 0`` must rank best, not as absent."""
        return (record.area is None, record.area if record.area is not None else 0)

    def _facet_index(self) -> FacetIndex:
        """The current facet index, rebuilt whenever the record list
        changed behind its back (count mismatch)."""
        if self._facets is None or self._facets.num_records != len(self._records):
            self._facets = FacetIndex.build(self._records)
        return self._facets

    def query(self, selection: Selection) -> list[BenchmarkFile]:
        """All records passing the filter, area-best first per function.

        Facet-indexed: the filter collapses to a few bitmap AND/ORs and
        ``best_only`` reads precomputed per-group area rankings; results
        are identical (objects and order) to :meth:`_query_linear`.
        """
        return self._facet_index().query(selection, self._records)

    def _query_linear(self, selection: Selection) -> list[BenchmarkFile]:
        """The original per-record scan, retained as the differential
        oracle for :meth:`query` (property tests and the serving
        benchmark's baseline path)."""
        hits = [r for r in self._records if selection.matches(r)]
        if selection.best_only:
            best: dict[tuple, BenchmarkFile] = {}
            for record in hits:
                if record.abstraction_level is AbstractionLevel.NETWORK:
                    continue
                key = (record.suite, record.name, record.gate_library)
                current = best.get(key)
                if current is None or self._area_rank(record) < self._area_rank(current):
                    best[key] = record
            hits = list(best.values())
        return sorted(
            hits,
            key=lambda r: (r.suite, r.name, r.abstraction_level.value, self._area_rank(r)),
        )

    def load_layout(self, record: BenchmarkFile) -> GateLayout:
        """The parsed gate-level artifact — LRU-cached by content digest,
        so repeated loads of an unchanged artifact skip the XML parser."""
        if record.abstraction_level is not AbstractionLevel.GATE_LEVEL:
            raise ValueError("only gate-level records reference .fgl files")
        return self.store.load_layout(record.path)

    def artifact_text(self, record: BenchmarkFile) -> str:
        """The canonical artifact payload (the download the website
        serves): pack-backed for gate-level records, loose file
        otherwise.  Raises
        :class:`~repro.core.store.ArtifactNotFoundError` (naming the
        artifact) when the payload exists nowhere — the serving layer
        maps it to HTTP 404."""
        if record.abstraction_level is AbstractionLevel.GATE_LEVEL:
            return self.store.read_text(record.path)
        loose = self.root / record.path
        if not loose.exists():
            raise ArtifactNotFoundError(record.path)
        return loose.read_text(encoding="utf-8")

    def pack(self) -> dict:
        """Migrate loose gate-level artifacts into the pack file.

        Idempotent; newly generated artifacts are packed automatically,
        so this is only needed once for databases predating the pack
        store.  Returns a stats dict (packed/already/missing counts plus
        :meth:`~repro.core.store.ArtifactStore.stats`).
        """
        packed = already = missing = 0
        for record in self._records:
            if record.abstraction_level is not AbstractionLevel.GATE_LEVEL:
                continue
            if self.store.is_packed(record.path):
                already += 1
                continue
            loose = self.root / record.path
            if not loose.exists():
                missing += 1
                continue
            self.store.add_text(record.path, loose.read_text(encoding="utf-8"))
            packed += 1
        self.store.save()
        return {
            "packed": packed,
            "already_packed": already,
            "missing": missing,
            **self.store.stats(),
        }

    # -- batch analytics -------------------------------------------------------

    def best(self, selection: Selection | None = None):
        """Best (record, analysis) per (suite, function, gate library),
        ranked on metrics *computed from the artifacts* by the analytics
        engine — unlike ``query(best_only=True)``, which trusts the
        recorded metadata."""
        from ..analytics.engine import best_database

        return best_database(self, selection)

    def verify_all(self, selection: Selection | None = None):
        """Re-verify every gate-level artifact (DRC + output signature
        against its Verilog specification) in one batch sweep."""
        from ..analytics.engine import verify_database

        return verify_database(self, selection)

    def report(self, selection: Selection | None = None):
        """The ``mnt-bench report`` payload: best layouts, Figure-1
        aggregates and Table I renderings from one sweep."""
        from ..analytics.report import build_report

        return build_report(self, selection)

    def info(self) -> dict:
        """Database statistics for ``mnt-bench info``."""
        from ..analytics.engine import database_info

        return database_info(self)

    # -- generation ----------------------------------------------------------------

    def generate(
        self,
        specs: list[BenchmarkSpec],
        libraries: tuple[str, ...] = ("QCA ONE", "Bestagon"),
        params: GenerationParams | None = None,
        scheduler=None,
    ) -> GenerationOutcome:
        """Generate artifacts for ``specs`` and add them to the index.

        Returns a :class:`GenerationOutcome` — a list of the records
        created (or served from the flow cache) by this call, carrying a
        :class:`GenerationReport` with per-flow admission/rejection
        counts and wall times.  Layouts that fail verification are *not*
        admitted (matching the upstream quality gate); their rejection
        reasons are recorded in the report and flow cache rather than
        silently dropped.

        Execution is handled by the work-queue scheduler
        (:mod:`repro.scheduler`): pass a
        :class:`~repro.scheduler.SchedulerParams` as ``scheduler`` for
        checkpoint/resume (``resume=True`` replays the generation
        journal) and early-cancel of dominated exact tasks.
        ``GenerationParams.jobs`` spreads the tasks over worker
        processes of this one host; per-task wall/memory budgets live
        on :class:`GenerationParams` because they affect flow results.
        ``profile=True`` profiles every task inside the
        worker that runs it and bypasses the flow cache.
        """
        from ..scheduler.engine import SchedulerParams, run_generation
        from ..scheduler.journal import JOURNAL_NAME, GenerationJournal

        params = params or GenerationParams()
        sched = scheduler or SchedulerParams()
        report = GenerationReport()
        started = time.monotonic()
        journal_path = self.root / JOURNAL_NAME
        if sched.resume:
            journal = GenerationJournal.load(journal_path)
            # A crash between a pack append and its index flush leaves
            # an orphan tail; drop it so re-appends land byte-identically.
            self.store.repair_truncate()
        else:
            journal = GenerationJournal.fresh(journal_path)
        # Slots keep the created-record order identical whether a flow
        # executes, resumes from the journal or is served from the
        # cache: one slot per network artifact plus one per flow,
        # filled in definition order.
        slots: list[list[BenchmarkFile]] = []
        # (spec, key, task, slot, journaled-entry); journaled tasks are
        # merged at their definition-order position without executing.
        pending: list[tuple] = []
        bounds: dict | None = {} if sched.early_cancel else None
        for spec in specs:
            network = spec.build(params.node_cap)
            slots.append([self._remember(self._write_network(spec, network))])
            verilog = network_to_verilog(network)
            signature = output_signature(network)
            flows = self._flow_names(network, libraries, params)
            if bounds is not None and any(
                flow.startswith("exact:") or flow == "exact_hex" for flow in flows
            ):
                # Module attribute access (not a top-level import) so the
                # early-cancel tests can monkeypatch the bound function.
                from ..physical_design import exact as _exact_module

                lower_bound = _exact_module.area_lower_bound
                # Group-level bounds ("cart"/"hex") are scheme-agnostic;
                # per-flow entries add the clocking-period-aware bound so
                # the scheduler cancels dominated exact tasks earlier.
                entry = {
                    "cart": lower_bound(network),
                    "hex": lower_bound(network, keep_two_input=True),
                }
                for flow in flows:
                    if flow.startswith("exact:"):
                        scheme = next(
                            s for s in CARTESIAN_SCHEMES
                            if s.name == flow.split(":", 1)[1]
                        )
                        entry[flow] = lower_bound(network, scheme=scheme)
                    elif flow == "exact_hex":
                        entry[flow] = lower_bound(
                            network,
                            keep_two_input=True,
                            scheme=ROW,
                            topology=Topology.HEXAGONAL_EVEN_ROW,
                        )
                bounds[(spec.suite, spec.name)] = entry
            for flow in flows:
                key = self._cache_key(signature, flow, params)
                slot: list[BenchmarkFile] = []
                slots.append(slot)
                entry = (
                    self._flow_cache.get(key)
                    if params.use_cache and not params.profile
                    else None
                )
                if entry is not None and self._cache_entry_usable(entry):
                    report.skipped_cached += 1
                    for record_json in entry["records"]:
                        slot.append(self._remember(BenchmarkFile.from_json(record_json)))
                    continue
                if journal is not None and sched.resume and key in journal:
                    journaled = journal.cache_entry(key)
                    if journaled is not None and self._cache_entry_usable(journaled):
                        pending.append((spec, key, None, slot, journaled))
                        continue
                pending.append(
                    (
                        spec,
                        key,
                        FlowTask(spec.suite, spec.name, flow, verilog, params),
                        slot,
                        None,
                    )
                )
        run_generation(self, pending, params, sched, report, journal,
                       bounds=bounds)
        report.wall_seconds = time.monotonic() - started
        self._save_index()
        created = [record for slot in slots for record in slot]
        return GenerationOutcome(created, report)

    def optimize(
        self,
        selection: Selection | None = None,
        params: GenerationParams | None = None,
    ) -> GenerationOutcome:
        """Post-layout-optimize stored artifacts database-wide.

        Every eligible gate-level record — 2DDWave, not already carrying
        a ``PLO`` tag, optionally narrowed by ``selection`` — is loaded,
        run through incremental post-layout optimization plus wiring
        reduction, re-verified (DRC + equivalence against the stored
        specification network) and written back as a new ``…_plo``
        artifact.  The tasks run on the same scheduler as
        :meth:`generate` (``params.jobs``, per-task wall/memory budgets,
        recorded task errors, ``generation_stats.json``) but without a
        journal, so the last generation journal is left alone.
        Per-artifact results are merged into the flow cache so a re-run
        skips already-optimized entries.
        """
        from ..scheduler.engine import SchedulerParams, run_generation

        params = params or GenerationParams()
        report = GenerationReport()
        started = time.monotonic()
        networks: dict[tuple[str, str], tuple[str, tuple] | None] = {}
        slots: list[list[BenchmarkFile]] = []
        # (spec, key, task, slot, journaled-entry) as in generate().
        pending: list[tuple] = []
        for record in list(self._records):
            if not self._optimizable(record):
                continue
            if selection is not None and not selection.matches(record):
                continue
            spec_key = (record.suite, record.name)
            if spec_key not in networks:
                verilog_path = self.root / record.suite / f"{record.name}.v"
                if verilog_path.exists():
                    verilog = verilog_path.read_text(encoding="utf-8")
                    network = parse_verilog(verilog)
                    networks[spec_key] = (verilog, output_signature(network))
                else:
                    networks[spec_key] = None
            source = networks[spec_key]
            artifact_path = self.root / record.path
            if source is None or not artifact_path.exists():
                report.no_layout += 1
                continue
            verilog, signature = source
            flow = f"optimize:{Path(record.path).name}"
            key = self._cache_key(signature, flow, params)
            slot: list[BenchmarkFile] = []
            slots.append(slot)
            entry = self._flow_cache.get(key) if params.use_cache else None
            if entry is not None and self._cache_entry_usable(entry):
                report.skipped_cached += 1
                for record_json in entry["records"]:
                    slot.append(self._remember(BenchmarkFile.from_json(record_json)))
                continue
            task = OptimizeTask(
                suite=record.suite,
                name=record.name,
                flow=flow,
                fgl_text=artifact_path.read_text(encoding="utf-8"),
                verilog=verilog,
                library=record.gate_library,
                algorithm=record.algorithm,
                scheme=record.clocking_scheme,
                optimizations=record.optimizations,
                params=params,
            )
            pending.append((None, key, task, slot, None))
        run_generation(self, pending, params, SchedulerParams(), report, None)
        report.wall_seconds = time.monotonic() - started
        self._save_index()
        created = [record for slot in slots for record in slot]
        return GenerationOutcome(created, report)

    @staticmethod
    def _optimizable(record: BenchmarkFile) -> bool:
        """Gate-level 2DDWave artifacts not already post-layout-optimized."""
        return (
            record.abstraction_level is AbstractionLevel.GATE_LEVEL
            and record.clocking_scheme == "2DDWave"
            and "PLO" not in record.optimizations
        )

    def _merge_result(self, key: str, task, slot: list, result: FlowTaskResult,
                      report: GenerationReport) -> str:
        """Fold one task's result into records, report and flow cache.

        Called by the scheduler for :meth:`generate` and :meth:`optimize`
        alike, so both stages make identical admission, caching and
        bookkeeping decisions.  Returns the task's status: ``"done"``
        or the recorded failure status (``timeout``, ``memory``,
        ``cancelled``, ``error``).
        """
        suite, name = task.suite, task.name
        cached_records: list[dict] = []
        rejections: list[dict] = []
        for candidate in result.candidates:
            if candidate.status == "admitted":
                record = self._write_layout(suite, name, candidate)
                cached_records.append(record.to_json())
                slot.append(self._remember(record))
                report.admitted += 1
            else:
                if candidate.status == "drc_failed":
                    report.drc_failed += 1
                else:
                    report.inequivalent += 1
                rejections.append(
                    {"status": candidate.status, "reason": candidate.reason}
                )
        status = "done"
        if result.failure is not None:
            # Budget kills, early-cancels and worker deaths are
            # recorded rejections — never silently dropped.
            status = result.failure.get("status", "error")
            counter = _failure_counter(status)
            setattr(report, counter, getattr(report, counter) + 1)
            rejections.append(
                {"status": status, "reason": result.failure.get("reason")}
            )
        elif not result.candidates:
            report.no_layout += 1
        label = f"{suite}/{name}:{task.flow}"
        report.flow_seconds[label] = result.wall_seconds
        if result.profile_stats is not None:
            report.flow_profiles[label] = result.profile_stats
        if result.exact_stats is not None:
            if report.exact_search is None:
                report.exact_search = dict(result.exact_stats)
            else:
                aggregate = ExactSearchStats.from_json(report.exact_search)
                aggregate.merge(result.exact_stats)
                report.exact_search = aggregate.to_json()
        self._flow_cache[key] = {
            "suite": suite,
            "name": name,
            "flow": task.flow,
            "records": cached_records,
            "rejections": rejections,
        }
        return status

    def _remember(self, record: BenchmarkFile) -> BenchmarkFile:
        """Add ``record`` to the index unless an identical-path record
        already exists; returns the canonical instance either way."""
        for existing in self._records:
            if existing.path == record.path:
                return existing
        self._records.append(record)
        if self._facets is not None:
            if self._facets.num_records == len(self._records) - 1:
                self._facets.add(record)  # incremental: stay in lockstep
            else:
                self._facets = None  # records were mutated externally
        return record

    def _cache_key(self, signature: tuple, flow: str, params: GenerationParams) -> str:
        """Digest of (network function, flow, result-affecting params)."""
        payload = json.dumps(
            {
                "signature": list(signature),
                "flow": flow,
                "params": params.cache_fields(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _cache_entry_usable(self, entry: dict) -> bool:
        """A hit only counts when every referenced artifact still exists."""
        return all(
            (self.root / record["path"]).exists() for record in entry.get("records", ())
        )

    def _flow_names(
        self, network: LogicNetwork, libraries, params: GenerationParams
    ) -> list[str]:
        """The flow portfolio for one benchmark, as flow-task names."""
        want_qca = any(
            lib.lower().startswith("qca") or lib.upper() == "ONE" for lib in libraries
        )
        want_bestagon = any(lib.lower().startswith("bestagon") for lib in libraries)

        # Preparation keeps every PI and PO and the topological order
        # lists every PI, so a large interface alone rules exact out —
        # without preparing the network.
        small = network.num_pis() + network.num_pos() <= params.exact_max_elements
        if small:
            from ..networks.transforms import decompose_to_aoig, prepare_for_layout

            prepared = prepare_for_layout(decompose_to_aoig(network))
            small = (
                len(prepared.topological_order()) + prepared.num_pos()
                <= params.exact_max_elements
            )

        flows: list[str] = []
        if want_qca:
            # ``ortho_opt`` emits the plain ortho layout too.
            flows += ["ortho_opt", "npr"]
            if small:
                flows += [f"exact:{scheme.name}" for scheme in CARTESIAN_SCHEMES]
        if want_bestagon:
            if small:
                flows.append("exact_hex")
            flows += ["hex:ortho_opt", "hex:npr"]
            if small:
                flows.append("hex:exact")
        return flows

    def _write_network(self, spec: BenchmarkSpec, network: LogicNetwork) -> BenchmarkFile:
        directory = self.root / spec.suite
        directory.mkdir(parents=True, exist_ok=True)
        filename = f"{spec.name}.v"
        write_verilog(network, directory / filename)
        return BenchmarkFile(
            suite=spec.suite,
            name=spec.name,
            abstraction_level=AbstractionLevel.NETWORK,
            path=f"{spec.suite}/{filename}",
        )

    def _write_layout(self, suite: str, name: str, candidate: FlowArtifact) -> BenchmarkFile:
        """Materialise an admitted flow candidate as an ``.fgl`` record."""
        directory = self.root / suite
        directory.mkdir(parents=True, exist_ok=True)
        filename = self.file_name(
            name,
            candidate.library,
            candidate.scheme,
            candidate.algorithm,
            candidate.optimizations,
        )
        # Atomic write: a crash mid-write must never leave a torn loose
        # artifact that a later resume would mistake for a usable one.
        tmp = directory / f".{filename}.tmp"
        tmp.write_text(candidate.fgl_text, encoding="utf-8")
        os.replace(tmp, directory / filename)
        # Auto-pack: the loose file stays the canonical artifact, the
        # pack copy is what serving reads.
        self.store.add_text(f"{suite}/{filename}", candidate.fgl_text)
        return BenchmarkFile(
            suite=suite,
            name=name,
            abstraction_level=AbstractionLevel.GATE_LEVEL,
            path=f"{suite}/{filename}",
            gate_library=candidate.library,
            clocking_scheme=candidate.scheme,
            algorithm=candidate.algorithm,
            optimizations=candidate.optimizations,
            width=candidate.width,
            height=candidate.height,
            area=candidate.width * candidate.height,
            num_gates=candidate.num_gates,
            num_wires=candidate.num_wires,
            num_crossings=candidate.num_crossings,
            runtime_seconds=candidate.runtime_seconds,
        )

    @staticmethod
    def file_name(name: str, library: str, scheme: str, algorithm: str, opts) -> str:
        """The MNT Bench artifact naming convention."""
        tag = _LIBRARY_TAGS.get(library, library.replace(" ", ""))
        suffix = ""
        if opts:
            cleaned = [
                o.lower()
                .replace(" (sdn)", "")
                .replace("°", "deg")
                .replace(" ", "")
                for o in opts
            ]
            suffix = "_" + "_".join(cleaned)
        return f"{name}_{tag}_{scheme}_{algorithm}{suffix}.fgl"
