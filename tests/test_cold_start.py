"""Importing the CLI loads only what a run uses.

A ``cofsat`` run is one short process, so start-up is part of every run.
``import cofsat.cli`` must not load the modules below; ``main`` loads
``argparse`` and ``--format json`` loads ``json`` when they run.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"

NOT_AT_IMPORT = ("dataclasses", "typing", "json", "argparse", "re", "inspect",
                 "logging", "concurrent.futures")

# Without ``site``, so no .pth file preloads anything.  The first stdout
# line lists the modules the import added; modules the interpreter loaded
# before it do not count.
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import cofsat.cli
print(" ".join(sorted(set(sys.modules) - before)), flush=True)
sys.exit(cofsat.cli.main(["--input", sys.argv[2], "--format", "json"]))
"""


def test_import_loads_none_of_the_heavy_modules():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(SRC), str(GOLDEN / "sat.cnf")],
        capture_output=True, text=True, timeout=60)
    assert proc.stderr == ""
    added, *lines = proc.stdout.splitlines()
    loaded = [name for name in added.split()
              if any(name == m or name.startswith(m + ".")
                     for m in NOT_AT_IMPORT)]
    assert loaded == []
    assert "cofsat.cli" in added.split()
    # The lazy imports still load when a run needs them.
    assert proc.returncode == 10
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "SATISFIABLE"
