"""Print per-metric ratios between two benchmark results.  Report only: it
never fails a change, whatever the numbers.

    python3 bench/compare.py OLD NEW

Each file is either a result file written by run.py
(``.bench_out/result-*.json``) or a saved stdout of run.py, whose last line
is the JSON result.  One pair of runs shows no gain by itself: a claim
needs repeated runs of both sides.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: Path) -> dict:
    lines = path.read_text().strip().splitlines()
    try:
        data = json.loads("\n".join(lines))
    except json.JSONDecodeError:
        data = json.loads(lines[-1])
    return data


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (load(Path(p)) for p in argv)
    for label, data in (("old", old), ("new", new)):
        header = data.get("header")
        if header:
            print(f"# {label}: " + ", ".join(
                f"{k}={header[k]}" for k in ("workload", "seed", "trace",
                                             "nproc", "cpu", "python")
                if k in header))
    print(f"{'metric':34s} {'old':>12s} {'new':>12s} {'new/old':>8s}")
    for name, entry in old["metrics"].items():
        if name not in new["metrics"]:
            print(f"{name:34s} {entry['value']:12.6g} {'absent':>12s}")
            continue
        a, b = entry["value"], new["metrics"][name]["value"]
        ratio = b / a if a else float("nan")
        print(f"{name:34s} {a:12.6g} {b:12.6g} {ratio:8.3f} {entry['unit']}")
    for name in new["metrics"].keys() - old["metrics"].keys():
        print(f"{name:34s} {'absent':>12s} {new['metrics'][name]['value']:12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
