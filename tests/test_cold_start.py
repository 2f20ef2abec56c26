"""Importing the CLI loads only what a run uses.

A ``cofsat`` run is one short process, so start-up is part of every run.
``import cofsat.cli`` must not load the modules below; ``main`` loads
``argparse`` and ``--format json`` loads ``json`` when they run.  The
truth-table layer ``boolfn`` loads only when ``--verify`` builds a truth
table, and ``expr`` never loads on a CLI path.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"

LAZY_LAYERS = ("cofsat.boolfn", "cofsat.expr")
NOT_AT_IMPORT = ("dataclasses", "typing", "json", "argparse", "re", "inspect",
                 "logging", "concurrent.futures") + LAZY_LAYERS

# Without ``site``, so no .pth file preloads anything.  The first stdout
# line lists the modules the import added, and the last line those that
# ``RUN`` added after it; modules the interpreter loaded before the import
# do not count.  The lines between are what ``RUN`` printed.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cofsat.cli
print(" ".join(sorted(set(sys.modules) - before)), flush=True)
before = set(sys.modules)
try:
    status = RUN
finally:
    print(" ".join(sorted(set(sys.modules) - before)), flush=True)
sys.exit(status)
"""
MAIN = "cofsat.cli.main(sys.argv[2:])"


def child(run, *args):
    """Run ``run`` after ``import cofsat.cli`` in a fresh interpreter; return
    (modules the import added, lines printed, modules the run added,
    stderr, exit status)."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD.replace("RUN", run), str(SRC),
         *map(str, args)],
        capture_output=True, text=True, timeout=60)
    imported, *lines, ran = proc.stdout.splitlines()
    return (imported.split(), lines, ran.split(), proc.stderr,
            proc.returncode)


def among(names, prefixes):
    return [name for name in names
            if any(name == m or name.startswith(m + ".") for m in prefixes)]


def test_import_loads_none_of_the_heavy_modules():
    imported, lines, ran, err, status = child(
        MAIN, "--input", GOLDEN / "sat.cnf", "--format", "json")
    assert err == ""
    assert among(imported, NOT_AT_IMPORT) == []
    assert "cofsat.cli" in imported
    # The lazy imports still load when a run needs them.
    assert status == 10
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "SATISFIABLE"
    assert "json" in ran and "argparse" in ran


def test_a_run_without_verify_loads_no_truth_tables():
    for argv in (["--mode", "allsat"], ["--mode", "count", "--pivot", "clause"],
                 ["--mode", "decompose", "--verify"]):
        imported, lines, ran, err, status = child(
            MAIN, "--input", GOLDEN / "example2.cnf", *argv)
        assert among(imported + ran, LAZY_LAYERS) == [], argv
        assert status in (0, 10), argv


def test_the_argument_parser_loads_no_truth_tables():
    imported, lines, ran, err, status = child(
        "0 if 'up to 16 variables' in "
        "' '.join(cofsat.cli.build_arg_parser().format_help().split()) else 1")
    assert status == 0
    assert among(imported + ran, LAZY_LAYERS) == []


def test_verify_skip_note_loads_no_truth_tables(tmp_path):
    path = tmp_path / "wide.cnf"
    path.write_text(
        "p cnf 17 17\n" + "".join(f"{v} 0\n" for v in range(1, 18)))
    imported, lines, ran, err, status = child(
        MAIN, "--input", path, "--mode", "count", "--verify")
    assert (status, lines) == (10, ["1"])
    assert err == "note: --verify skipped: 17 variables > 16\n"
    assert among(imported + ran, LAZY_LAYERS) == []


def test_verify_loads_the_truth_tables_and_still_verifies():
    imported, lines, ran, err, status = child(
        MAIN, "--input", GOLDEN / "sat.cnf", "--verify")
    assert among(imported, LAZY_LAYERS) == []
    assert among(ran, LAZY_LAYERS) == ["cofsat.boolfn"]
    assert (status, lines, err) == (10, ["SATISFIABLE", "1 2 -3 0"], "")


def test_dir_lists_the_lazy_names_without_loading_them():
    imported, lines, ran, err, status = child(
        "0 if {'boolfn', 'expr', 'TruthTable', 'parse_function'} "
        "<= set(dir(sys.modules['cofsat'])) else 1")
    assert status == 0
    assert among(imported + ran, LAZY_LAYERS) == []
