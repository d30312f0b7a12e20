"""Every ``mnt-bench`` verb in a fresh interpreter.

The CLI imports each command's subsystem inside its handler, so a
missing per-command import only shows when the command runs in an
interpreter that has not already imported the package (as the rest of
the test suite has).  These tests run each verb's cheapest real
invocation in a subprocess and pin what the light entry points load.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Runs ``mnt-bench ARGS`` and prints the loaded module names as the
#: last stdout line.
_PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

#: Subsystems the light entry points (``import repro.cli``, ``--help``,
#: ``list``) must not import.
HEAVY_REPRO = (
    "repro.physical_design",
    "repro.optimization",
    "repro.scheduler",
    "repro.serve",
    "repro.qa",
    "repro.analytics",
    "repro.celllayout",
    "repro.gatelibs",
    "repro.core.bench",
)
HEAVY_STDLIB = ("xml.sax.saxutils", "urllib.request", "ssl", "multiprocessing", "numpy")


def _run(argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def _cli(*args) -> subprocess.CompletedProcess:
    result = _run([sys.executable, "-m", "repro.cli", *args])
    assert "Traceback" not in result.stderr, result.stderr
    return result


def _loaded(*args) -> set[str]:
    result = _run([sys.executable, "-c", _PROBE, *args])
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _offenders(modules: set[str], forbidden) -> list[str]:
    return sorted(
        m for m in modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    )


@pytest.fixture(scope="module")
def database(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("dispatch") / "db"
    result = _cli(
        "generate", "--database", str(root), "--benchmark", "trindade16/mux21",
        "--library", "QCA ONE", "--exact-timeout", "1", "--quiet",
    )
    assert result.returncode == 0, result.stderr
    return root


@pytest.fixture(scope="module")
def fgl_file(database) -> Path:
    """One generated gate-level artifact as a standalone ``.fgl`` file
    (``show``/``svg`` read files; the database keeps them packed)."""
    from repro.core import BenchmarkDatabase

    db = BenchmarkDatabase(database)
    record = next(r for r in db.files() if r.path.endswith(".fgl"))
    path = database.parent / "layout.fgl"
    path.write_text(db.artifact_text(record), encoding="utf-8")
    return path


def test_profile():
    result = _cli("profile", "trindade16/mux21")
    assert result.returncode == 0
    assert "I/O = 3/1" in result.stdout


@pytest.mark.parametrize("command", ["serve", "fuzz"])
def test_subcommand_help(command):
    result = _cli(command, "--help")
    assert result.returncode == 0
    assert f"usage: mnt-bench {command}" in result.stdout


def test_show_and_svg(fgl_file, tmp_path):
    result = _cli("show", str(fgl_file))
    assert result.returncode == 0
    assert "tiles" in result.stdout
    output = tmp_path / "layout.svg"
    result = _cli("svg", str(fgl_file), "--output", str(output))
    assert result.returncode == 0
    assert output.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize("command", ["query", "info", "report", "verify"])
def test_database_verbs(database, command):
    result = _cli(command, "--database", str(database))
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize(
    "args",
    [["--help"], ["list"]],
    ids=["help", "list"],
)
def test_light_entry_points_import_no_subsystem(args):
    loaded = _loaded(*args)
    assert "repro.cli" in loaded
    assert _offenders(loaded, HEAVY_REPRO) == []
    assert _offenders(loaded, HEAVY_STDLIB) == []


def test_import_cli_imports_no_subsystem():
    code = "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    result = _run([sys.executable, "-c", code])
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout))
    assert _offenders(loaded, HEAVY_STDLIB) == []
    assert sorted(m for m in loaded if m.startswith("repro")) == [
        "repro", "repro._lazy", "repro.cli",
    ]


def test_show_imports_no_flow(fgl_file):
    loaded = _loaded("show", str(fgl_file))
    forbidden = ("repro.physical_design", "repro.optimization", "repro.scheduler",
                 "repro.serve")
    assert _offenders(loaded, forbidden) == []
