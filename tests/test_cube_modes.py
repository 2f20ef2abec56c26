"""Every solve mode end to end, against the brute-force oracle.

``count`` and ``sat`` add up the leaves' cubes and build no rows, with or
without ``--verify``, while ``allsat`` gathers every row; both must print
what ``helpers.brute_force_rows`` implies, on either pivot.  Formulas too wide
to expand must still count in bounded time and memory, and output too
large to print must be refused before it is built.
"""

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cofsat.cli import EXIT_ERROR, EXIT_OK, EXIT_SAT, EXIT_UNSAT, RunConfig, run

from helpers import brute_force_rows

SRC = Path(__file__).resolve().parents[1] / "src"


def _normalized_count(clauses):
    """Clauses left after dropping tautologies and merging duplicates."""
    kept = {frozenset(c) for c in clauses
            if not any(-x in c for x in c)}
    return len(kept)


def _literals(row, n):
    return [v if row >> (v - 1) & 1 else -v for v in range(1, n + 1)]


def _tree_models(out, output_format, n):
    """Root rows of the live leaves of a printed tree, as a list with one
    entry per leaf row.  A printed clause-pivot tree keeps the 2**k - 1
    overlapping branches (the solver reads their k disjoint refinements
    instead), so there a row may repeat."""
    if output_format == "json":
        nodes = [(e["status"], e["prefix"], e.get("universe", []),
                  e.get("clauses", []))
                 for e in json.loads(out)["tree"]]
    else:
        nodes = []
        for line in out.splitlines():
            tokens = line.split()
            status = tokens[3]
            rest = tokens[5:]
            end = rest.index("0")
            prefix, rest = [int(t) for t in rest[:end]], rest[end + 1:]
            universe, clauses = [], []
            if rest:
                end = rest.index("0")
                universe = [int(t) for t in rest[1:end]]
                count, rest = int(rest[end + 2]), rest[end + 3:]
                for _ in range(count):
                    end = rest.index("0")
                    clauses.append([int(t) for t in rest[:end]])
                    rest = rest[end + 1:]
            nodes.append((status, prefix, universe, clauses))
    rows = []
    for status, prefix, universe, clauses in nodes:
        if status not in ("solvable", "trivial"):
            continue
        base = sum(1 << (x - 1) for x in prefix if x > 0)
        bound = {abs(x) for x in prefix} | set(universe)
        free = [v for v in range(1, n + 1) if v not in bound]
        for leaf_row in brute_force_rows(clauses, universe):
            placed = base | sum(1 << (v - 1) for j, v in enumerate(universe)
                                if leaf_row >> j & 1)
            for fill in range(1 << len(free)):
                rows.append(placed | sum(1 << (v - 1)
                                         for k, v in enumerate(free)
                                         if fill >> k & 1))
    return rows


@st.composite
def runs(draw):
    """A DIMACS formula over n <= 8 variables (possibly no clauses; unit
    clauses, tautologies and duplicates allowed) and one configuration."""
    n = draw(st.integers(0, 8))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3),
                            max_size=12)) if n else []
    pivot_clause = draw(st.integers(0, max(len(clauses) - 1, 0)))
    config = dict(
        mode=draw(st.sampled_from(("sat", "count", "allsat", "decompose"))),
        pivot_strategy=draw(st.sampled_from(("vars", "clause"))),
        pivot_clause=pivot_clause,
        n0=draw(st.integers(1, 4)),
        output_format=draw(st.sampled_from(("text", "json"))),
        verify=draw(st.booleans()))
    return n, clauses, config


@settings(max_examples=300, deadline=None)
@given(runs())
def test_every_mode_and_pivot_matches_brute_force(tmp_path_factory, case):
    n, clauses, options = case
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text("".join(
        [f"p cnf {n} {len(clauses)}\n"]
        + [" ".join(map(str, c)) + " 0\n" for c in clauses]))
    out, err = io.StringIO(), io.StringIO()
    status = run(RunConfig(str(path), **options), out=out, err=err)
    out = out.getvalue()
    mode, fmt = options["mode"], options["output_format"]
    kept = _normalized_count(clauses)
    if options["pivot_strategy"] == "clause" and 0 < kept <= options["pivot_clause"]:
        assert status == EXIT_ERROR and "pivot index" in err.getvalue()
        return
    rows = brute_force_rows(clauses, range(1, n + 1))

    if mode == "decompose":
        assert status == EXIT_OK
        got = _tree_models(out, fmt, n)
        assert set(got) == set(rows)
        if options["pivot_strategy"] == "vars":
            assert len(got) == len(rows)  # the leaves are disjoint
        return
    assert status == (EXIT_SAT if rows else EXIT_UNSAT)
    status_word = "SATISFIABLE" if rows else "UNSATISFIABLE"
    if fmt == "json":
        payload = json.loads(out)
        assert payload["status"] == status_word
        assert payload["count"] == len(rows)
        if mode == "sat" and rows:
            assert payload["solutions"] == [_literals(rows[0], n)]
        elif mode == "allsat":
            assert payload["solutions"] == [_literals(r, n) for r in rows]
        else:
            assert "solutions" not in payload
    elif mode == "sat":
        want = status_word + "\n"
        if rows:
            want += " ".join(map(str, [*_literals(rows[0], n), 0])) + "\n"
        assert out == want
    elif mode == "count":
        assert out == f"{len(rows)}\n"
    else:
        assert out == "".join(
            " ".join(map(str, [*_literals(r, n), 0])) + "\n" for r in rows)


@pytest.mark.parametrize("pivot", ["vars", "clause"])
@pytest.mark.parametrize("text", ["p cnf 0 0\n", "p cnf 3 2\n1 -1 0\n-2 2 0\n"])
def test_formula_without_clauses_under_either_pivot(tmp_path, pivot, text):
    path = tmp_path / "empty.cnf"
    path.write_text(text)
    n = int(text.split()[2])
    counts = {}
    for mode in ("count", "sat", "allsat"):
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode=mode, pivot_strategy=pivot),
                     out=out, err=err)
        assert status == EXIT_SAT, err.getvalue()
        counts[mode] = out.getvalue()
    assert counts["count"] == f"{1 << n}\n"
    assert counts["sat"] == "SATISFIABLE\n" + " ".join(
        map(str, [*range(-1, -n - 1, -1), 0])) + "\n"
    assert len(counts["allsat"].splitlines()) == 1 << n


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter writes ints of any length")
def test_count_too_long_to_print_is_a_clean_error(tmp_path):
    limit = sys.get_int_max_str_digits()
    n = int(limit / 0.30103) + 20  # 2**n has more than ``limit`` digits
    path = tmp_path / "free.cnf"
    path.write_text(f"p cnf {n} 0\n")
    for mode, output_format in (("count", "text"), ("count", "json"),
                                ("sat", "json")):
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode=mode,
                               output_format=output_format), out=out, err=err)
        assert (status, out.getvalue(), err.getvalue()) == (
            EXIT_ERROR, "",
            f"error: model count has more than {limit} decimal digits\n")
    out = io.StringIO()
    assert run(RunConfig(str(path), mode="sat"), out=out) == EXIT_SAT
    assert out.getvalue().startswith("SATISFIABLE\n-1 -2 ")


# Measured in a fresh interpreter, so the peak RSS is this formula's alone.
# It is read as VmHWM, the high-water mark of the child's own address space:
# Linux carries ru_maxrss over from the forking parent, here pytest.
_MEASURE = """
import io, json, re, sys, time
from cofsat.cli import RunConfig, run
runs = []
for mode in ("count", "sat"):
    out = io.StringIO()
    start = time.perf_counter()
    status = run(RunConfig(sys.argv[1], mode=mode, pivot_strategy=sys.argv[2]),
                 out=out, err=io.StringIO())
    runs.append([status, out.getvalue(), time.perf_counter() - start])
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
print(json.dumps({"runs": runs, "peak_kb": peak_kb}))
"""


def _child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("pivot", ["vars", "clause"])
@pytest.mark.parametrize("num_vars", [22, 24])
def test_wide_formula_counts_without_rows(tmp_path, num_vars, pivot):
    # 9/16 of all rows are models: 2.4 or 9.4 million rows if expanded.
    path = tmp_path / "wide.cnf"
    path.write_text(f"p cnf {num_vars} 2\n1 2 0\n-3 4 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, str(path), pivot],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    (count_status, count_out, count_s), (sat_status, sat_out, sat_s) = \
        report["runs"]
    assert (count_status, count_out) == (EXIT_SAT, f"{9 << num_vars - 4}\n")
    witness = [1, *range(-2, -num_vars - 1, -1), 0]
    assert (sat_status, sat_out) == (
        EXIT_SAT, "SATISFIABLE\n" + " ".join(map(str, witness)) + "\n")
    assert count_s < 0.1 and sat_s < 0.1
    assert report["peak_kb"] < 50 * 1024


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("pivot", ["vars", "clause"])
def test_oversized_allsat_is_refused_before_any_row(tmp_path, pivot):
    path = tmp_path / "free.cnf"
    path.write_text("p cnf 64 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cofsat.cli", "--input", str(path),
         "--mode", "allsat", "--pivot", pivot],
        capture_output=True, text=True, timeout=30, env=_child_env(),
        preexec_fn=_limit_memory)
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    assert proc.stderr == ("error: output capped at 1048576 rows, formula "
                           f"has {1 << 64} models\n")
