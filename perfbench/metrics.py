"""Metric declarations and how each is derived from one run.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test keeps
them equal).  End-to-end metrics come from untraced passes; per-layer
metrics from the traced pass, where ``<span>_s`` is the summed self time
of one layer boundary and ``_calls`` its call count.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from serving import percentile
from tracing import BOUNDARIES, covered_length, summarize

#: (name, unit, better, bound).  Timings are CPU seconds of the
#: processes doing the work (the benchmark process, its cold-start
#: child, the server child), calibrated to a reference CPU speed
#: (:mod:`speed`).  The calibration follows the shared host's speed
#: only as closely as the probe's code resembles the program's, so
#: timings get the widest bound allowed; memory and area do not drift.
#: The browse median is printed but not declared: the mix has a cheap
#: class (304 revalidations) and dearer ones, the median falls near the
#: gap between them, and in the host's slow spells its quartile spread
#: over ten runs reached 0.4, against 0.10-0.15 for the 99th percentile
#: and the throughput.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("generate_s", "s", "lower", 0.25),
    ("optimize_s", "s", "lower", 0.25),
    ("verify_s", "s", "lower", 0.25),
    ("report_s", "s", "lower", 0.25),
    ("export_s", "s", "lower", 0.25),
    ("browse_p99_ms", "ms", "lower", 0.25),
    ("browse_rps", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("best_area_sum", "tiles", "lower", 0.05),
)

#: Span names that also report a call count.
COUNTED_SPANS = ("physical_design.exact_layout", "physical_design.find_path")

#: (name, unit, better)
PER_LAYER = tuple(
    [(f"{name}_s", "s", "lower") for _, _, _, name, _ in BOUNDARIES]
    + [(f"{name}_calls", "count", "lower") for name in COUNTED_SPANS]
    + [
        ("physical_design.exact.dimensions_explored", "count", "lower"),
        ("physical_design.exact.useful_ratio", "ratio", "higher"),
        ("physical_design.nanoplacer.rollouts", "count", "lower"),
        ("physical_design.repeat_call_ratio", "ratio", "lower"),
        ("optimization.post_layout.moves_applied", "count", "higher"),
        ("optimization.post_layout.passes", "count", "lower"),
        ("optimization.input_ordering.evaluations", "count", "lower"),
        ("io.fgl_bytes", "bytes", "lower"),
        ("core.store.layout_cache_hit_ratio", "ratio", "higher"),
        ("scheduler.journal.appends", "count", "lower"),
        ("scheduler.residual_s", "s", "lower"),
        ("analytics.fallback_decodes", "count", "lower"),
        ("serve.busy_s", "s", "lower"),
        ("serve.render_cache_hit_ratio", "ratio", "higher"),
        ("serve.not_modified", "count", "higher"),
        ("serve.transport_ms", "ms", "lower"),
        ("serve.generator_lag_ms", "ms", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.residual_s", "s", "lower"),
        ("trace.serve_residual_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

#: Pipeline steps whose wall time the traced spans must explain.  The
#: open-loop browse is paced by its send schedule, so it is left out.
TIMED_PHASES = ("generate", "optimize", "verify", "report", "export", "browse")
#: Phases whose layer work runs in the server child.
SERVING_PHASES = ("export", "browse")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _serves(passes) -> list:
    return [r.serve for p in passes for r in p.rounds]


def pass_seconds(run_pass) -> float:
    """Calibrated CPU time of a pass's timed phases (repeated ones as
    medians)."""
    serves = _serves([run_pass])
    return (sum(run_pass.pipeline.median(phase) for phase in run_pass.pipeline.seconds)
            + statistics.median(t for s in serves for t in s.export_times)
            + sum(s.closed_s for s in serves))


def end_to_end(passes, setup_samples, peak_rss_mb: float, area: int) -> dict:
    """Medians over every sample of the run's untraced passes and
    rounds; browse latencies and throughput pool every round's
    requests."""

    def med(phase: str) -> float:
        return statistics.median(t for p in passes for t in p.pipeline.seconds[phase])

    serves = _serves(passes)
    latencies = [ms for s in serves for ms in s.latencies_ms]
    return {
        "setup_s": statistics.median(setup_samples),
        "generate_s": med("generate"),
        "optimize_s": med("optimize"),
        "verify_s": med("verify"),
        "report_s": med("report"),
        "export_s": statistics.median(t for s in serves for t in s.export_times),
        "browse_p99_ms": percentile(latencies, 99),
        "browse_rps": sum(s.closed_requests for s in serves)
        / sum(s.closed_s for s in serves),
        "peak_rss_mb": peak_rss_mb,
        "best_area_sum": float(area),
    }


def phase_residuals(client_spans, server_spans) -> dict[str, float]:
    """Per timed phase, the part of its wall time that no layer span
    covers.  The serving phases' layer work runs in the server child:
    its root spans (each request inside the server) count for them, on
    the same clock, since ``perf_counter`` is the system-wide
    ``CLOCK_MONOTONIC``.  What is left there is the client and the
    socket transport."""
    server_roots = [(start, end) for _, start, end, parent in server_spans
                    if parent < 0]
    children: dict[int, list] = defaultdict(list)
    for _, start, end, parent in client_spans:
        if parent >= 0:
            children[parent].append((start, end))
    residual: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(client_spans):
        phase = name.removeprefix("phase.")
        if name.startswith("phase.") and phase in TIMED_PHASES:
            covering = children[index] + (server_roots if phase in SERVING_PHASES
                                          else [])
            residual[phase] += (end - start) - covered_length(start, end, covering)
    return residual


def per_layer(traced, untraced) -> dict:
    """Per-layer metrics of the traced pass; overhead against the
    untraced pass of the same run."""
    client = traced.trace or {"spans": [], "counters": {}}
    server = traced.server_trace or {"spans": [], "counters": {}}
    table = summarize(client["spans"])
    for name, row in summarize(server["spans"]).items():
        mine = table.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for key in mine:
            mine[key] += row[key]
    counters: dict[str, float] = {}
    for source in (client["counters"], server["counters"]):
        for name, value in source.items():
            counters[name] = counters.get(name, 0.0) + value

    def row(name: str) -> dict:
        return table.get(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})

    metrics = {}
    for _, _, _, name, _ in BOUNDARIES:
        metrics[f"{name}_s"] = row(name)["self_s"]
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = float(row(name)["calls"])

    exact = traced.pipeline.exact_search
    serve = traced.rounds[0].serve
    stats = serve.stats
    store = stats.get("store", {})
    render = stats.get("render_cache", {})
    server_counters = stats.get("counters", {})
    phase_total = sum(row(f"phase.{p}")["total_s"] for p in TIMED_PHASES)
    residuals = phase_residuals(client["spans"], server["spans"])
    residual = sum(residuals.values())
    handles_ms = [(end - start) * 1e3 for name, start, end, _ in server["spans"]
                  if name == "serve.handle"]
    overhead = pass_seconds(traced) - pass_seconds(untraced)
    metrics.update({
        "physical_design.exact.dimensions_explored":
            float(exact.get("dimensions_explored", 0)),
        "physical_design.exact.useful_ratio": _ratio(
            exact.get("incumbent_updates", 0), exact.get("dimensions_explored", 0)),
        "physical_design.nanoplacer.rollouts":
            counters.get("physical_design.nanoplacer.rollouts", 0.0),
        "physical_design.repeat_call_ratio": _ratio(
            counters.get("physical_design.placement_repeats", 0.0),
            counters.get("physical_design.placement_calls", 0.0)),
        "optimization.post_layout.moves_applied":
            counters.get("optimization.post_layout.moves_applied", 0.0),
        "optimization.post_layout.passes":
            counters.get("optimization.post_layout.passes", 0.0),
        "optimization.input_ordering.evaluations":
            counters.get("optimization.input_ordering.evaluations", 0.0),
        "io.fgl_bytes": counters.get("io.fgl_bytes", 0.0),
        "core.store.layout_cache_hit_ratio": _ratio(
            store.get("cache_hits", 0),
            store.get("cache_hits", 0) + store.get("cache_misses", 0)),
        "scheduler.journal.appends": float(row("scheduler.journal.append")["calls"]),
        "scheduler.residual_s": residuals["generate"],
        "analytics.fallback_decodes": counters.get("analytics.fallback_decodes", 0.0),
        "serve.busy_s": server_counters.get("busy_micros", 0) / 1e6,
        "serve.render_cache_hit_ratio": _ratio(
            render.get("hits", 0), render.get("hits", 0) + render.get("misses", 0)),
        "serve.not_modified": float(server_counters.get("not_modified", 0)),
        "serve.transport_ms": (
            statistics.median(serve.request_ms) - statistics.median(handles_ms)
            if handles_ms else 0.0),
        "serve.generator_lag_ms": percentile(serve.lags_ms, 99),
        "trace.coverage": 1.0 - _ratio(residual, phase_total),
        "trace.residual_s": residual,
        "trace.serve_residual_s": sum(residuals[p] for p in SERVING_PHASES),
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": _ratio(overhead, pass_seconds(untraced)),
    })
    return metrics
