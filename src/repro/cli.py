"""``mnt-bench`` command-line interface.

A thin front-end over the benchmark database and portfolio — the local
equivalent of the hosted website:

* ``mnt-bench list`` — show the registered benchmark functions;
* ``mnt-bench generate`` — populate a local database directory;
* ``mnt-bench query`` — filter generated artifacts (Figure 1's form),
  optionally as machine-readable JSON (``--json``);
* ``mnt-bench pack`` — migrate loose ``.fgl`` artifacts into the
  compressed binary pack store;
* ``mnt-bench report`` — Table-I / Figure-1 aggregates over the whole
  database from one columnar sweep (markdown, CSV or JSON);
* ``mnt-bench info`` — database statistics: record counts, pack
  geometry and compression ratio, facet-index freshness, fleet totals;
* ``mnt-bench verify`` — re-verify every stored artifact (DRC + output
  signature against its Verilog specification) in one batch job;
* ``mnt-bench best`` — generate and optimize one function into a
  temporary database and print its paper-style table row;
* ``mnt-bench show`` — render an ``.fgl`` file as ASCII art;
* ``mnt-bench svg`` — render an ``.fgl`` file as an SVG drawing;
* ``mnt-bench profile`` — structural analysis of a benchmark network;
* ``mnt-bench serve`` — host the database over HTTP (the paper's web
  platform as a local service; see :mod:`repro.serve`);
* ``mnt-bench fuzz`` — flow fuzzing / differential conformance harness
  (see :mod:`repro.qa`): random networks × random flows against the
  oracle stack, with automatic shrinking and a replayable crash corpus.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Every command imports the subsystem it runs inside its ``_cmd_*``
# function: ``mnt-bench --help`` or ``list`` must not pay for the
# physical-design engines, and ``show`` not for the scheduler.


def _cmd_list(args) -> int:
    from .benchsuite import all_benchmarks

    for spec in all_benchmarks():
        kind = "function " if spec.is_exact_function else "synthetic"
        print(
            f"{spec.full_name:24s} I/O={spec.num_inputs}/{spec.num_outputs} "
            f"N={spec.reported_nodes:6d} [{kind}]"
        )
    return 0


class _UsageError(Exception):
    """A bad command-line value: ``main`` prints it as one line and
    exits 2."""


def _benchmark(token: str):
    """The registered benchmark ``SUITE/NAME``."""
    from .benchsuite import get_benchmark

    suite, _, name = token.partition("/")
    try:
        return get_benchmark(suite, name)
    except KeyError:
        raise _UsageError(f"unknown benchmark {token!r}") from None


def _filters(args):
    """The ``--benchmark SUITE/NAME``, ``--suite`` and ``--library``
    filters, with every benchmark and suite checked against the registry.

    Returns ``(specs, selection)``: the named benchmarks, else the named
    suites' benchmarks (what ``generate`` runs), and the same filter as
    a :class:`~repro.core.Selection` over a stored database (``None``
    when nothing filters).
    """
    from .core import Selection

    named = [_benchmark(token) for token in args.benchmark or ()]
    in_suites = []
    if args.suite:
        from .benchsuite import benchmarks_of

        for suite in args.suite:
            found = benchmarks_of(suite)
            if not found:
                raise _UsageError(f"unknown suite {suite!r}")
            in_suites += found
    suites = [*(args.suite or ()), *(spec.suite for spec in named)]
    names = [spec.name for spec in named]
    libraries = getattr(args, "library", None) or ()
    selection = None
    if suites or names or libraries:
        try:
            selection = Selection.make(
                suites=suites, names=names, gate_libraries=libraries
            )
        except ValueError as exc:
            raise _UsageError(exc) from None
    return named or in_suites, selection


def _format_eta(seconds: float) -> str:
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class _GenerateProgress:
    """Periodic ``done/total`` + ETA line for ``mnt-bench generate``.

    Plugs into :class:`~repro.scheduler.SchedulerParams.progress`: called
    when a task starts (with its label) and after every merge.  On a TTY
    the line is rewritten in place; otherwise one line is printed per
    progress step, throttled to one every few seconds so piped logs stay
    readable.
    """

    def __init__(self, stream=None) -> None:
        from time import monotonic

        self._clock = monotonic
        self.stream = stream if stream is not None else sys.stderr
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.min_interval = 0.2 if self.tty else 5.0
        self.started = self._clock()
        self._last_emit = float("-inf")
        self._last_width = 0
        self._current: str | None = None

    def __call__(self, stats, label) -> None:
        if label is not None:
            self._current = label
        now = self._clock()
        total = stats.queued
        finished = stats.done + stats.failed + stats.resumed + stats.cancelled
        complete = total > 0 and finished >= total
        if not complete and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        executed = finished - stats.resumed
        eta = ""
        if 0 < executed and finished < total:
            remaining = (total - finished) * ((now - self.started) / executed)
            eta = f" eta {_format_eta(remaining)}"
        line = f"generate [{finished}/{total}]{eta}"
        if self._current is not None and not complete:
            line += f" {self._current}"
        if self.tty:
            padding = " " * max(0, self._last_width - len(line))
            self.stream.write("\r" + line + padding)
            self._last_width = len(line)
            if complete:
                self.stream.write("\n")
                self._last_width = 0
        else:
            self.stream.write(line + "\n")
        self.stream.flush()


def _cmd_generate(args) -> int:
    from .benchsuite import all_benchmarks
    from .core import BenchmarkDatabase, GenerationParams
    from .scheduler import SchedulerParams

    specs, _ = _filters(args)
    if not specs:
        specs = [s for s in all_benchmarks() if s.suite in ("trindade16", "fontes18")]
    db = BenchmarkDatabase(args.database)
    params = GenerationParams(
        node_cap=args.node_cap if args.node_cap > 0 else None,
        exact_timeout=args.exact_timeout,
        inord_evaluations=args.inord_evaluations,
        inord_timeout=args.inord_timeout,
        plo_passes=args.plo_passes,
        plo_timeout=args.plo_timeout,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        profile=args.profile,
        profile_top=args.profile_top,
        task_wall_budget=args.task_timeout,
        task_memory_budget_mb=args.task_memory_mb,
        reproducible=args.reproducible,
    )
    scheduler = SchedulerParams(
        resume=args.resume,
        max_tasks_per_worker=args.max_tasks_per_worker,
        early_cancel=args.early_cancel,
        progress=None if args.quiet else _GenerateProgress(),
    )
    libraries = tuple(args.library) if args.library else ("QCA ONE", "Bestagon")
    created = db.generate(specs, libraries=libraries, params=params,
                          scheduler=scheduler)
    for record in created:
        area = f"A={record.area}" if record.area is not None else ""
        print(f"wrote {record.path} {area}")
    print(f"{len(created)} artifact(s) written to {args.database}")
    report = created.report
    if args.profile:
        for key in sorted(report.flow_profiles):
            seconds = report.flow_seconds.get(key, 0.0)
            print(f"\n--- profile {key} ({seconds:.2f} s) ---")
            print(report.flow_profiles[key])
    if report.flow_seconds:
        print("per-flow wall times:")
        for key in sorted(report.flow_seconds):
            print(f"  {key:48s} {report.flow_seconds[key]:8.3f} s")
    if report.scheduler is not None:
        sched_stats = report.scheduler
        print(
            "scheduler: "
            f"{sched_stats['queued']} queued, {sched_stats['done']} done, "
            f"{sched_stats['failed']} failed, {sched_stats['resumed']} resumed, "
            f"{sched_stats['cancelled']} cancelled "
            f"[{sched_stats['mode']}, node {sched_stats['node']}]"
        )
    if report.exact_search is not None:
        ex = report.exact_search
        print(
            "exact search: "
            f"{ex.get('dimensions_explored', 0)} dimensions explored, "
            f"{ex.get('dimensions_filtered', 0)} dimensions filtered, "
            f"{ex.get('incumbent_updates', 0)} incumbent updates"
        )
    print(report.summary())
    return 0


def _cmd_optimize(args) -> int:
    from .core import BenchmarkDatabase, GenerationParams

    _, selection = _filters(args)
    db = BenchmarkDatabase(args.database)
    params = GenerationParams(
        plo_passes=args.plo_passes,
        plo_timeout=args.plo_timeout,
        jobs=args.jobs,
        use_cache=not args.no_cache,
    )
    created = db.optimize(selection, params=params)
    for record in created:
        area = f"A={record.area}" if record.area is not None else ""
        print(f"wrote {record.path} {area}")
    print(f"{len(created)} optimized artifact(s) written to {args.database}")
    print(created.report.summary())
    return 0


def _cmd_query(args) -> int:
    from .core import BenchmarkDatabase, Selection, facet_counts

    db = BenchmarkDatabase(args.database)
    try:
        selection = Selection.make(
            abstraction_levels=args.level or (),
            gate_libraries=args.library or (),
            clocking_schemes=args.scheme or (),
            algorithms=args.algorithm or (),
            optimizations=args.optimization or (),
            suites=args.suite or (),
            names=args.name or (),
            best_only=args.best,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None
    hits = db.query(selection)
    if args.json:
        payload = {
            "count": len(hits),
            "files": [record.to_json() for record in hits],
        }
        if db.facet_degraded:
            payload["facet_index"] = db.facet_sidecar_status()
        if args.facets:
            payload["facets"] = facet_counts(db.files())
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for record in hits:
        area = f"A={record.area}" if record.area is not None else ""
        print(f"{record.path:60s} {area}")
    print(f"{len(hits)} file(s)")
    if args.facets:
        for facet, values in facet_counts(db.files()).items():
            print(f"{facet}:")
            for value, count in sorted(values.items()):
                print(f"  {value:20s} {count}")
    return 0


def _cmd_pack(args) -> int:
    from .core import BenchmarkDatabase

    db = BenchmarkDatabase(args.database)
    stats = db.pack()
    print(
        f"packed {stats['packed']} artifact(s) "
        f"({stats['already_packed']} already packed, {stats['missing']} missing)"
    )
    print(
        f"pack: {stats['packed_entries']} entries, "
        f"{stats['pack_bytes']} bytes compressed / "
        f"{stats['uncompressed_bytes']} bytes raw"
    )
    return 0


def _cmd_report(args) -> int:
    from .core import BenchmarkDatabase

    _, selection = _filters(args)
    db = BenchmarkDatabase(args.database)
    report = db.report(selection)
    text = report.render(args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"report ({args.format}) written to {args.output}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_info(args) -> int:
    from .core import BenchmarkDatabase

    db = BenchmarkDatabase(args.database)
    info = db.info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"database: {info['root']}")
    print(f"records:  {info['records']}", end="")
    levels = ", ".join(f"{k}={v}" for k, v in info["records_by_level"].items())
    print(f" ({levels})" if levels else "")
    print(
        f"pack:     {info['packed_artifacts']}/{info['gate_level_artifacts']} "
        f"gate-level artifact(s) packed, {info['loose_artifacts']} loose"
    )
    ratio = info["compression_ratio"]
    print(
        f"          {info['pack_bytes']} bytes compressed / "
        f"{info['uncompressed_bytes']} raw"
        + (f" ({ratio:.2f}x)" if ratio else "")
    )
    facet = info["facet_index"]
    print(
        f"facets:   {facet['status']}"
        + (" [degraded — queries rebuild in memory]" if facet["degraded"] else "")
    )
    totals = info["layout_totals"]
    print(
        f"layouts:  {totals['gates']} gates, {totals['wires']} wires, "
        f"{totals['crossings']} crossings, {totals['area']} tiles total "
        f"[{info['backend']} backend, {info['fallback_decodes']} fallback decode(s)]"
    )
    return 0


def _cmd_verify(args) -> int:
    from .core import BenchmarkDatabase

    _, selection = _filters(args)
    db = BenchmarkDatabase(args.database)
    summary = db.verify_all(selection)
    for record in summary.records:
        if record.status != "ok" or args.verbose:
            print(
                f"{record.status:<14s} {record.path} "
                f"({record.violations} violation(s), {record.warnings} warning(s))"
            )
    print(summary.summary())
    return 0 if summary.ok else 1


def _cmd_best(args) -> int:
    import tempfile

    from .core import BenchmarkDatabase, GenerationParams, database_table_rows, format_table

    spec = _benchmark(args.benchmark)
    params = GenerationParams(node_cap=args.node_cap, exact_timeout=args.exact_timeout)
    with tempfile.TemporaryDirectory(prefix="mnt-bench-best-") as root:
        db = BenchmarkDatabase(root)
        generated = db.generate([spec], libraries=(args.library,), params=params)
        db.optimize(params=params)
        rows = database_table_rows(db, args.library)
    print(format_table(rows, args.library))
    if not rows:
        print(f"no verified layout: {generated.report.summary()}")
        return 1
    return 0


def _read_layout_file(path):
    """``read_fgl`` for the file commands; a missing or malformed file
    is a usage error."""
    from .io import FglError, read_fgl

    try:
        return read_fgl(path)
    except (OSError, FglError) as exc:
        raise _UsageError(f"{path}: {exc}") from None


def _cmd_show(args) -> int:
    from .layout import compute_metrics

    layout = _read_layout_file(args.file)
    print(layout)
    print(compute_metrics(layout))
    print(layout.render())
    return 0


def _cmd_svg(args) -> int:
    from .layout import write_svg

    layout = _read_layout_file(args.file)
    output = args.output or str(Path(args.file).with_suffix(".svg"))
    write_svg(layout, output)
    print(f"rendered {args.file} -> {output}")
    return 0


def _cmd_fuzz(args) -> int:
    from .qa import CrashCorpus, FuzzParams, fuzz, replay_case, triage

    if args.replay:
        corpus = CrashCorpus(args.corpus)
        cases = corpus.cases()
        if not cases:
            print(f"no crash cases under {args.corpus}")
            return 0
        still_failing = 0
        for path, case in cases:
            failure = replay_case(case)
            if failure is None:
                print(f"FIXED  {path.name}")
            else:
                known = triage(case)
                mark = "KNOWN " if known is not None else "REPRO "
                still_failing += 0 if known is not None else 1
                print(f"{mark} {path.name}: {failure}")
        print(f"{len(cases)} case(s), {still_failing} un-triaged reproduction(s)")
        return 1 if still_failing else 0

    params = FuzzParams(
        runs=args.runs,
        seed=args.seed,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        num_vectors=args.vectors,
    )
    report = fuzz(params, progress=print)
    print(report.summary())
    if report.case_paths:
        for path in report.case_paths:
            print(f"crash case written to {path}")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, serve

    serve(
        ServeConfig(
            database=Path(args.database),
            host=args.host,
            port=args.port,
            warm=args.warm,
            check_interval=args.check_interval,
        )
    )
    return 0


def _cmd_profile(args) -> int:
    from .networks import format_profile

    try:
        import networkx  # noqa: F401  (the optional ``analysis`` extra)
    except ImportError:
        raise _UsageError("needs networkx: pip install 'repro[analysis]'") from None
    spec = _benchmark(args.benchmark)
    network = spec.build(args.node_cap)
    print(format_profile(network))
    return 0


def _positive(kind):
    """argparse ``type=`` for a ``kind`` (``int`` or ``float``) above 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, not {text}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mnt-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmark functions")

    gen = sub.add_parser("generate", help="generate benchmark artifacts")
    gen.add_argument("--database", default="mnt_bench_db")
    gen.add_argument("--suite", action="append")
    gen.add_argument("--benchmark", action="append", metavar="SUITE/NAME")
    gen.add_argument("--library", action="append", choices=["QCA ONE", "Bestagon"])
    gen.add_argument(
        "--node-cap", type=int, default=300,
        help="node cap for synthetic circuits; 0 lifts the cap "
        "(full published sizes, the ISCAS85/EPFL sweep)",
    )
    gen.add_argument("--exact-timeout", type=float, default=6.0)
    gen.add_argument(
        "--inord-evaluations", type=int, default=6, metavar="N",
        help="input orderings evaluated by the ortho_opt flow; pin this "
        "(with an un-hittable --inord-timeout) for reproducible sweeps",
    )
    gen.add_argument("--inord-timeout", type=float, default=20.0,
                     metavar="SECONDS")
    gen.add_argument(
        "--plo-passes", type=int, default=8, metavar="N",
        help="post-layout-optimization passes in the ortho_opt flow",
    )
    gen.add_argument("--plo-timeout", type=float, default=20.0,
                     metavar="SECONDS")
    gen.add_argument(
        "--profile",
        action="store_true",
        help="run each flow under cProfile in the worker that executes it "
        "(combines with --jobs; bypasses the flow cache) and print the "
        "hottest functions per flow",
    )
    gen.add_argument(
        "--profile-top",
        type=int,
        default=12,
        metavar="N",
        help="rows per per-flow profile table (with --profile)",
    )
    gen.add_argument(
        "--jobs", type=_positive(int), default=1,
        help="worker processes for flow execution (1: in-process)",
    )
    gen.add_argument(
        "--no-cache", action="store_true",
        help="re-run flows even when the index flow cache has results",
    )
    gen.add_argument(
        "--resume", action="store_true",
        help="resume a killed sweep from the generation journal instead "
        "of re-running journaled flows",
    )
    gen.add_argument(
        "--task-timeout", type=_positive(float), metavar="SECONDS",
        help="wall budget per flow task; overruns are SIGKILLed and "
        "recorded as timeout rejections",
    )
    gen.add_argument(
        "--task-memory-mb", type=_positive(float), metavar="MIB",
        help="address-space budget per flow task (RLIMIT_AS in the "
        "worker); overruns are recorded as memory rejections",
    )
    gen.add_argument(
        "--max-tasks-per-worker", type=int, default=25, metavar="N",
        help="recycle each worker process after N tasks (0: never)",
    )
    gen.add_argument(
        "--early-cancel", action="store_true",
        help="kill still-running exact tasks once their portfolio group "
        "already met the network's area lower bound",
    )
    gen.add_argument(
        "--reproducible", action="store_true",
        help="zero recorded runtimes so identical inputs yield "
        "byte-identical databases",
    )
    gen.add_argument(
        "--quiet", action="store_true",
        help="suppress the done/total progress line on stderr",
    )

    opt = sub.add_parser(
        "optimize",
        help="re-optimise stored 2DDWave layouts (PLO + wiring reduction)",
    )
    opt.add_argument("--database", default="mnt_bench_db")
    opt.add_argument("--suite", action="append")
    opt.add_argument("--benchmark", action="append", metavar="SUITE/NAME")
    opt.add_argument("--plo-passes", type=int, default=8)
    opt.add_argument("--plo-timeout", type=float, default=20.0)
    opt.add_argument(
        "--jobs", type=_positive(int), default=1,
        help="worker processes for flow execution (1: in-process)",
    )
    opt.add_argument(
        "--no-cache", action="store_true",
        help="re-run flows even when the index flow cache has results",
    )

    query = sub.add_parser("query", help="filter generated artifacts")
    query.add_argument("--database", default="mnt_bench_db")
    query.add_argument("--level", action="append", choices=["network", "gate-level"])
    query.add_argument("--library", action="append")
    query.add_argument("--scheme", action="append")
    query.add_argument("--algorithm", action="append")
    query.add_argument("--optimization", action="append")
    query.add_argument("--suite", action="append")
    query.add_argument("--name", action="append", help="restrict to benchmark name(s)")
    query.add_argument("--best", action="store_true", help="area-best file per function")
    query.add_argument("--facets", action="store_true", help="print facet counts")
    query.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of text"
    )

    pack = sub.add_parser(
        "pack", help="migrate loose .fgl artifacts into the compressed pack store"
    )
    pack.add_argument("--database", default="mnt_bench_db")

    report = sub.add_parser(
        "report", help="Table-I/Figure-1 aggregates from one columnar sweep"
    )
    report.add_argument("--database", default="mnt_bench_db")
    report.add_argument("--suite", action="append")
    report.add_argument("--benchmark", action="append", metavar="SUITE/NAME")
    report.add_argument("--library", action="append")
    report.add_argument(
        "--format", default="markdown", choices=["markdown", "csv", "json"]
    )
    report.add_argument("--output", default=None, help="write to file instead of stdout")

    info = sub.add_parser("info", help="database statistics")
    info.add_argument("--database", default="mnt_bench_db")
    info.add_argument("--json", action="store_true")

    verify = sub.add_parser(
        "verify", help="re-verify every stored artifact (DRC + equivalence)"
    )
    verify.add_argument("--database", default="mnt_bench_db")
    verify.add_argument("--suite", action="append")
    verify.add_argument("--benchmark", action="append", metavar="SUITE/NAME")
    verify.add_argument("--library", action="append")
    verify.add_argument(
        "--verbose", action="store_true", help="also print passing artifacts"
    )

    best = sub.add_parser("best", help="run the portfolio for one function")
    best.add_argument("benchmark", metavar="SUITE/NAME")
    best.add_argument("--library", default="QCA ONE", choices=["QCA ONE", "Bestagon"])
    best.add_argument("--node-cap", type=int, default=None)
    best.add_argument("--exact-timeout", type=float, default=10.0)

    show = sub.add_parser("show", help="render an .fgl file as ASCII art")
    show.add_argument("file")

    svg = sub.add_parser("svg", help="render an .fgl file as SVG")
    svg.add_argument("file")
    svg.add_argument("--output", default=None)

    prof = sub.add_parser("profile", help="structural analysis of a benchmark")
    prof.add_argument("benchmark", metavar="SUITE/NAME")
    prof.add_argument("--node-cap", type=int, default=None)

    srv = sub.add_parser(
        "serve", help="serve the database over HTTP (the hosted-platform mode)"
    )
    srv.add_argument("--database", default="mnt_bench_db")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765)
    srv.add_argument(
        "--warm",
        action="store_true",
        help="pre-build the facet index and parsed-layout cache before binding",
    )
    srv.add_argument(
        "--check-interval",
        type=float,
        default=1.0,
        help="seconds between on-disk epoch checks (0 checks every request)",
    )

    fuzz = sub.add_parser(
        "fuzz", help="fuzz the physical-design flows against the oracle stack"
    )
    fuzz.add_argument("--runs", type=int, default=100, help="number of fuzz runs")
    fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    fuzz.add_argument(
        "--corpus",
        default="fuzz_corpus",
        help="crash corpus directory (written on failure, read by --replay)",
    )
    fuzz.add_argument(
        "--replay",
        action="store_true",
        help="replay the stored crash corpus instead of fuzzing",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing networks without shrinking them",
    )
    fuzz.add_argument(
        "--vectors", type=int, default=64, help="stimulus vectors per equivalence check"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    database = getattr(args, "database", None)
    if database is not None and args.command != "generate":
        from .core import BenchmarkDatabase

        # Only ``generate`` creates a database; the other verbs would
        # otherwise make an empty one at a mistyped path and report it.
        if not (Path(database) / BenchmarkDatabase.INDEX_NAME).is_file():
            print(f"mnt-bench {args.command}: no database at {database}",
                  file=sys.stderr)
            return 2
    handlers = {
        "list": _cmd_list,
        "generate": _cmd_generate,
        "optimize": _cmd_optimize,
        "query": _cmd_query,
        "pack": _cmd_pack,
        "report": _cmd_report,
        "info": _cmd_info,
        "verify": _cmd_verify,
        "best": _cmd_best,
        "show": _cmd_show,
        "svg": _cmd_svg,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"mnt-bench {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
