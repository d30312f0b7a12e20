"""Tests for the mnt-bench command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "trindade16/mux21" in out
    assert "epfl/sin" in out
    assert "[synthetic]" in out and "[function " in out


def test_generate_and_query(tmp_path, capsys):
    db = str(tmp_path / "db")
    code = main(
        [
            "generate",
            "--database", db,
            "--benchmark", "trindade16/xor2",
            "--library", "QCA ONE",
            "--exact-timeout", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "xor2.v" in out
    assert ".fgl" in out
    assert re.search(r"exact search: \d+ dimensions explored, \d+ dimensions filtered, ", out)

    assert main(["query", "--database", db, "--algorithm", "ortho"]) == 0
    out = capsys.readouterr().out
    assert "ortho" in out

    assert main(["query", "--database", db, "--best", "--facets"]) == 0
    out = capsys.readouterr().out
    assert "gate_library" in out


def _fabricated_db(root):
    """A small database without running any flows (fast)."""
    from repro.core import BenchmarkDatabase
    from repro.core.bench import BenchmarkFile
    from repro.core.selection import AbstractionLevel
    from repro.io import layout_to_fgl
    from repro.networks.library import mux21
    from repro.physical_design import orthogonal_layout

    db = BenchmarkDatabase(root)
    layout = orthogonal_layout(mux21()).layout
    text = layout_to_fgl(layout)
    relpath = "trindade16/mux21_ONE_2DDWave_ortho.fgl"
    (root / "trindade16").mkdir(parents=True, exist_ok=True)
    (root / relpath).write_text(text, encoding="utf-8")
    width, height = layout.bounding_box()
    db._records.append(
        BenchmarkFile(
            suite="trindade16",
            name="mux21",
            abstraction_level=AbstractionLevel.GATE_LEVEL,
            path=relpath,
            gate_library="QCA ONE",
            clocking_scheme="2DDWave",
            algorithm="ortho",
            width=width,
            height=height,
            area=width * height,
        )
    )
    db._save_index()
    return relpath


def test_query_json(tmp_path, capsys):
    import json

    relpath = _fabricated_db(tmp_path)
    code = main(
        [
            "query", "--database", str(tmp_path),
            "--json", "--algorithm", "ortho", "--name", "mux21", "--facets",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["files"][0]["path"] == relpath
    assert payload["files"][0]["algorithm"] == "ortho"
    assert payload["facets"]["gate_library"] == {"QCA ONE": 1}


def test_query_unknown_facet_value_exits_2(tmp_path, capsys):
    _fabricated_db(tmp_path)
    code = main(["query", "--database", str(tmp_path), "--scheme", "2ddwav"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown clocking scheme" in err
    assert "2ddwav" in err


def test_pack_command(tmp_path, capsys):
    _fabricated_db(tmp_path)
    assert main(["pack", "--database", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "packed 1 artifact(s)" in out
    assert (tmp_path / "artifacts.pack").exists()

    # Idempotent: a second run packs nothing new.
    assert main(["pack", "--database", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "packed 0 artifact(s)" in out
    assert "1 already packed" in out

    assert main(["query", "--database", str(tmp_path)]) == 0
    assert "1 file(s)" in capsys.readouterr().out


def test_best_command(capsys):
    code = main(["best", "trindade16/xor2", "--exact-timeout", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "xor2" in out
    assert "paper" in out


def test_show_command(tmp_path, capsys):
    from repro.io import write_fgl
    from repro.networks.library import mux21
    from repro.physical_design import orthogonal_layout

    path = tmp_path / "mux.fgl"
    write_fgl(orthogonal_layout(mux21()).layout, path)
    assert main(["show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "tiles" in out


@pytest.mark.parametrize("command", ["show", "svg"])
def test_file_commands_report_malformed_fgl(tmp_path, capsys, command):
    path = tmp_path / "broken.fgl"
    path.write_text("<fgl><layout>", encoding="utf-8")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"mnt-bench {command}: {path}:" in err
    assert "well-formed" in err
    assert main([command, str(tmp_path / "missing.fgl")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--benchmark", "nosuch/x"],
        ["generate", "--benchmark", "trindade16/mux21", "--benchmark", "nosuch/x"],
        ["best", "nosuch/x"],
        ["profile", "nosuch/x"],
    ],
)
def test_unknown_benchmark_exits_2(tmp_path, capsys, argv):
    database = tmp_path / "db"
    if argv[0] == "generate":
        argv = argv + ["--database", str(database)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"mnt-bench {argv[0]}: unknown benchmark 'nosuch/x'\n"
    assert not database.exists()


def test_unknown_suite_exits_2(tmp_path, capsys):
    database = tmp_path / "db"
    argv = ["generate", "--database", str(database), "--suite", "nosuch"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "mnt-bench generate: unknown suite 'nosuch'\n"
    assert not database.exists()


@pytest.mark.parametrize("command", ["optimize", "report", "verify"])
@pytest.mark.parametrize(
    ("flag", "value", "kind"),
    [
        ("--benchmark", "nosuch/x", "benchmark"),
        ("--benchmark", "trindade16/nosuch", "benchmark"),
        ("--suite", "nosuch", "suite"),
    ],
)
def test_stored_database_verbs_check_filter_names(
    tmp_path, capsys, command, flag, value, kind
):
    _fabricated_db(tmp_path)
    index = (tmp_path / "index.json").read_bytes()
    assert main([command, "--database", str(tmp_path), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"mnt-bench {command}: unknown {kind} {value!r}\n"
    assert captured.out == ""
    assert (tmp_path / "index.json").read_bytes() == index


def test_report_filters_by_known_benchmark(tmp_path, capsys):
    _fabricated_db(tmp_path)
    argv = ["report", "--database", str(tmp_path), "--format", "json"]
    assert main(argv + ["--benchmark", "trindade16/mux21"]) == 0
    selected = capsys.readouterr().out
    assert main(argv) == 0
    assert selected == capsys.readouterr().out
    assert main(argv + ["--benchmark", "trindade16/xor2"]) == 0
    assert capsys.readouterr().out != selected


@pytest.mark.parametrize(
    "command", ["query", "report", "info", "verify", "pack", "optimize", "serve"]
)
def test_read_verbs_need_an_existing_database(tmp_path, capsys, command):
    missing = tmp_path / "mistyped"
    assert main([command, "--database", str(missing)]) == 2
    assert capsys.readouterr().err == f"mnt-bench {command}: no database at {missing}\n"
    assert not missing.exists()
    # An existing directory without a database is no database either,
    # and stays empty.
    missing.mkdir()
    assert main([command, "--database", str(missing)]) == 2
    assert list(missing.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--jobs", "0"],
        ["generate", "--jobs", "-2"],
        ["generate", "--task-timeout", "-1"],
        ["generate", "--task-timeout", "0"],
        ["generate", "--task-memory-mb", "0"],
        ["generate", "--jobs", "two"],
        ["optimize", "--jobs", "0"],
    ],
)
def test_non_positive_numeric_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


def test_removed_exact_jobs_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["generate", "--exact-jobs", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact-jobs 0" in capsys.readouterr().err


def test_documented_zero_values_are_accepted():
    args = build_parser().parse_args(
        ["generate", "--node-cap", "0", "--max-tasks-per-worker", "0",
         "--jobs", "2", "--task-timeout", "1.5", "--task-memory-mb", "512"]
    )
    assert (args.node_cap, args.max_tasks_per_worker) == (0, 0)
    assert (args.jobs, args.task_timeout, args.task_memory_mb) == (2, 1.5, 512.0)


def test_generate_progress_printer_tty():
    import io

    from repro.cli import _GenerateProgress
    from repro.scheduler import SchedulerStats

    class _Tty(io.StringIO):
        def isatty(self):
            return True

    stream = _Tty()
    progress = _GenerateProgress(stream)
    assert progress.tty
    progress.min_interval = 0.0
    stats = SchedulerStats(queued=2)
    progress(stats, "iscas85/c432 (ortho)")
    stats.done = 1
    progress(stats, "iscas85/c432 (ortho_opt)")
    stats.done = 2
    progress(stats, None)
    text = stream.getvalue()
    assert "\r" in text  # in-place rewrite on a TTY
    assert "generate [0/2]" in text
    assert "iscas85/c432 (ortho)" in text
    assert "eta" in text  # shown once at least one task executed
    final = text.rsplit("\r", 1)[1]
    assert final.rstrip() == "generate [2/2]"
    assert final.endswith("\n")


def test_generate_progress_printer_plain_stream_and_errors():
    import io

    from repro.cli import _GenerateProgress
    from repro.scheduler import SchedulerParams, SchedulerStats

    stream = io.StringIO()
    progress = _GenerateProgress(stream)
    assert not progress.tty
    stats = SchedulerStats(queued=1)
    progress(stats, "epfl/ctrl (ortho)")
    progress(stats, "epfl/ctrl (ortho)")  # throttled on non-TTY streams
    stats.done = 1
    progress(stats, None)  # completion always emits
    lines = stream.getvalue().splitlines()
    assert lines == ["generate [0/1] epfl/ctrl (ortho)", "generate [1/1]"]

    # A raising callback must never kill the sweep.
    def _explode(stats, label):
        raise RuntimeError("boom")

    SchedulerParams(progress=_explode).notify(stats, "x")


def test_generate_quiet_suppresses_progress(tmp_path, capsys):
    db = str(tmp_path / "db")
    code = main(
        [
            "generate", "--database", db,
            "--benchmark", "trindade16/mux21",
            "--library", "QCA ONE",
            "--exact-timeout", "1",
            "--quiet",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "generate [" not in captured.err


def test_generate_profile_runs_in_worker_pool(tmp_path, capsys, monkeypatch):
    """``--profile`` composes with ``--jobs``: each executed flow is
    profiled inside its worker, and profiling leaves the database
    byte-identical to an unprofiled run."""
    import functools
    import json
    import re

    import repro.core as core
    from tests.scheduler.conftest import database_fingerprint

    # Exact search and NanoPlaceR are wall-clock driven; gate them off
    # so both runs are deterministic.
    monkeypatch.setattr(core, "GenerationParams", functools.partial(
        core.GenerationParams, exact_max_elements=0, nanoplacer_max_gates=0))
    base = [
        "generate", "--benchmark", "trindade16/xor2", "--jobs", "2",
        "--reproducible", "--quiet",
    ]
    profiled = tmp_path / "profiled"
    assert main(base + ["--database", str(profiled),
                        "--profile", "--profile-top", "5"]) == 0
    out = capsys.readouterr().out
    executed = int(re.search(r"(\d+) flows executed", out).group(1))
    assert executed == 6
    tables = out.split("\n--- profile ")[1:]
    assert len(tables) == executed
    for table in tables:
        rows = table.split("---\n", 1)[1].splitlines()
        assert rows[0].lstrip().startswith("ncalls")
        stat_rows = [row for row in rows[1:]
                     if re.match(r"\s*\d+(/\d+)?\s+\d+\.\d{3}\s", row)]
        assert 1 <= len(stat_rows) <= 5
    assert "[pool, node" in out
    stats = json.loads((profiled / "generation_stats.json").read_text())
    assert stats["mode"] == "pool"

    plain = tmp_path / "plain"
    assert main(base + ["--database", str(plain)]) == 0
    assert "--- profile" not in capsys.readouterr().out
    assert database_fingerprint(profiled) == database_fingerprint(plain)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_svg_command(tmp_path, capsys):
    from repro.io import write_fgl
    from repro.networks.library import mux21
    from repro.physical_design import orthogonal_layout

    path = tmp_path / "mux.fgl"
    write_fgl(orthogonal_layout(mux21()).layout, path)
    assert main(["svg", str(path)]) == 0
    assert (tmp_path / "mux.svg").read_text().startswith("<svg")


def test_profile_command(capsys):
    assert main(["profile", "trindade16/full_adder"]) == 0
    out = capsys.readouterr().out
    assert "I/O = 3/2" in out
    assert "reconvergent" in out
