"""Span recording for the traced benchmark run.

The benchmark never edits the package: it wraps the public functions of
each layer from the outside (module attributes and class methods), so
each call into a layer becomes one span with a name, start, end and the
span that was open when it began (its parent).  Spans stay in memory and
are written out when the run ends.

A layer's *self time* is its span duration minus the part of that
interval that child spans cover; the self time of a phase span (one
timed pipeline step of the benchmark) is the residual that no layer
span explains.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

#: Names of the top-level placement calls whose repeats
#: ``physical_design.repeat_call_ratio`` counts.
PLACEMENT_SPANS = (
    "physical_design.exact_layout",
    "physical_design.orthogonal_layout",
    "physical_design.nanoplacer_layout",
    "optimization.input_ordering",
)


class Tracer:
    """In-memory span recorder plus named counters.

    Span ``i`` is ``(names[i], starts[i], ends[i], parents[i])`` where the
    parent is the index of the enclosing span (``-1`` for a root).
    Parents are tracked per thread, so the server's handler threads each
    get their own nesting.  Spans live in flat arrays rather than one
    object each: the router alone opens hundreds of thousands, and as
    objects they would make every garbage collection slower.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = enabled
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._placements_seen: set = set()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span; close it with :meth:`end`."""
        stack = self._stack()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, name)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (checks outside the timing)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counters[name] += amount

    def ancestors(self, index: int):
        """Names of the spans enclosing span ``index``, innermost first."""
        parent = self.parents[index]
        while parent >= 0:
            yield self.names[parent]
            parent = self.parents[parent]

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, index, args, result)
            return result

        return traced

    def wrap_function(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and every alias of it that a loaded
        ``repro`` module imported under its own name."""
        original = getattr(importlib.import_module(module), attr)
        traced = self._wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def wrap_method(self, module: str, qualname: str, name: str, on_result=None) -> None:
        """Wrap ``Class.method`` (plain, static or class method)."""
        cls_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, name, on_result))
        else:
            replacement = self._wrap(raw, name, on_result)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        """Undo every wrap, newest first, and stop recording (a module
        imported while wrapped keeps its wrapped alias)."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = None

    def __enter__(self):
        if self.tracer.enabled:
            self.index = self.tracer.begin(self.name)
        return self.index

    def __exit__(self, *exc) -> None:
        if self.index is not None:
            self.tracer.end(self.index)


# -- self time -------------------------------------------------------------------


def covered_length(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(start, end, children.get(index, ()))
        for index, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(spans) -> dict[str, dict]:
    """``{name: {"self_s", "total_s", "calls"}}`` over a span list."""
    table: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["total_s"] += end - start
        row["calls"] += 1
    return table


# -- what the benchmark wraps ------------------------------------------------------


def _placement_call(tracer: Tracer, index, args, result) -> None:
    """Count top-level placement calls and those that recompute a
    result this run already computed (same network, same parameters)."""
    if any(name in PLACEMENT_SPANS for name in tracer.ancestors(index)):
        return  # e.g. the ortho evaluations inside input ordering
    network = args[0]
    key = (tracer.names[index], network.name, network.num_pis(), network.num_gates(),
           repr(args[1:]))
    tracer.count("physical_design.placement_calls")
    if key in tracer._placements_seen:
        tracer.count("physical_design.placement_repeats")
    tracer._placements_seen.add(key)


def _nanoplacer(tracer, index, args, result) -> None:
    _placement_call(tracer, index, args, result)
    tracer.count("physical_design.nanoplacer.rollouts", result.rollouts)


def _post_layout(tracer, index, args, result) -> None:
    tracer.count("optimization.post_layout.moves_applied", result.moves_applied)
    tracer.count("optimization.post_layout.passes", result.passes)


def _input_ordering(tracer, index, args, result) -> None:
    _placement_call(tracer, index, args, result)
    tracer.count("optimization.input_ordering.evaluations", result.evaluations)


def _fgl_written(tracer, index, args, result) -> None:
    tracer.count("io.fgl_bytes", len(result))


def _batch_decoded(tracer, index, args, result) -> None:
    tracer.count("analytics.fallback_decodes", result.fallback_decodes)


#: (kind, module, attribute, span name, result hook) for every layer
#: boundary the benchmark records.
BOUNDARIES = (
    ("function", "repro.physical_design.exact", "exact_layout",
     "physical_design.exact_layout", _placement_call),
    ("function", "repro.physical_design.routing", "find_path",
     "physical_design.find_path", None),
    ("function", "repro.physical_design.ortho", "orthogonal_layout",
     "physical_design.orthogonal_layout", _placement_call),
    ("function", "repro.physical_design.nanoplacer", "nanoplacer_layout",
     "physical_design.nanoplacer_layout", _nanoplacer),
    ("function", "repro.optimization.post_layout", "post_layout_optimization",
     "optimization.post_layout_optimization", _post_layout),
    ("function", "repro.optimization.input_ordering", "input_ordering",
     "optimization.input_ordering", _input_ordering),
    ("function", "repro.optimization.wiring_reduction", "wiring_reduction",
     "optimization.wiring_reduction", None),
    ("function", "repro.optimization.hexagonalization", "to_hexagonal",
     "optimization.to_hexagonal", None),
    ("function", "repro.layout.verification", "check_layout",
     "layout.check_layout", None),
    ("function", "repro.layout.equivalence", "layout_equivalent",
     "layout.layout_equivalent", None),
    ("method", "repro.benchsuite.registry", "BenchmarkSpec.build",
     "benchsuite.build", None),
    ("function", "repro.networks.verilog", "parse_verilog",
     "networks.parse_verilog", None),
    ("function", "repro.networks.verilog", "network_to_verilog",
     "networks.network_to_verilog", None),
    ("function", "repro.networks.simulation", "output_signature",
     "networks.output_signature", None),
    ("function", "repro.networks.transforms", "decompose_to_aoig",
     "networks.decompose_to_aoig", None),
    ("function", "repro.networks.transforms", "prepare_for_layout",
     "networks.prepare_for_layout", None),
    ("function", "repro.io.fgl", "layout_to_fgl", "io.layout_to_fgl", _fgl_written),
    ("function", "repro.io.fgl", "fgl_to_layout", "io.fgl_to_layout", None),
    ("function", "repro.io.qca", "cell_layout_to_qca", "io.cell_layout_to_qca", None),
    ("function", "repro.io.sqd", "sidb_layout_to_sqd", "io.sidb_layout_to_sqd", None),
    ("function", "repro.gatelibs.apply", "apply_gate_library",
     "gatelibs.apply_gate_library", None),
    ("method", "repro.core.store", "ArtifactStore.add_text", "core.store.add_text", None),
    ("method", "repro.core.store", "ArtifactStore.read_text", "core.store.read_text", None),
    ("method", "repro.core.store", "ArtifactStore.read_texts", "core.store.read_texts", None),
    ("method", "repro.core.store", "ArtifactStore.load_layout",
     "core.store.load_layout", None),
    ("method", "repro.core.store", "ArtifactStore.save", "core.store.save", None),
    ("method", "repro.core.facet_index", "FacetIndex.query_bitmap",
     "core.facet_index.query", None),
    ("method", "repro.scheduler.journal", "GenerationJournal.append",
     "scheduler.journal.append", None),
    ("function", "repro.analytics.engine", "verify_database",
     "analytics.verify_database", None),
    ("function", "repro.analytics.report", "build_report",
     "analytics.build_report", None),
    ("method", "repro.analytics.tables", "LayoutBatch.from_texts",
     "analytics.decode_batch", _batch_decoded),
    ("method", "repro.serve.handlers", "BenchService.handle", "serve.handle", None),
    # The HTTP adapter around it: the request line and headers parsed by
    # the standard library's handler the server is built on, then the
    # request object in and the response bytes out.
    ("method", "http.server", "BaseHTTPRequestHandler.parse_request",
     "serve.parse_request", None),
    ("method", "repro.serve.app", "_Handler._respond", "serve.respond", None),
)


def instrument(tracer: Tracer) -> Tracer:
    """Install every boundary in :data:`BOUNDARIES` on ``tracer``."""
    for module in {boundary[1] for boundary in BOUNDARIES}:
        importlib.import_module(module)
    importlib.import_module("repro.cli")  # bind every alias before wrapping
    for kind, module, attr, name, hook in BOUNDARIES:
        if kind == "function":
            tracer.wrap_function(module, attr, name, hook)
        else:
            tracer.wrap_method(module, attr, name, hook)
    return tracer
