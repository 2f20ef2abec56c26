"""Every solve mode end to end, against the brute-force oracle.

``count`` and ``sat`` add up the leaves' cubes and build no rows, with or
without ``--verify``, while ``allsat`` gathers every row; both must print
what ``helpers.brute_force_rows`` implies, on either pivot.  Formulas too wide
to expand must still count in bounded time and memory, and output too
large to print must be refused before it is built.  A table of tiny
hostile files runs every mode on both pivots under a time and memory
bound.
"""

import io
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cofsat import CapacityError, CnfFormula, cnf, decompose
from cofsat.cli import (EXIT_ERROR, EXIT_OK, EXIT_SAT, EXIT_UNSAT, RunConfig,
                        clause_pivot_tree, run)

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
    assert proc.stderr == ("error: output capped at 2**20 rows, formula "
                           "has at least 2**64 models\n")


@pytest.mark.parametrize("pivot", ["vars", "clause"])
def test_allsat_refusal_states_a_huge_count_without_decimal_digits(
        tmp_path, pivot):
    # 2**14999 models: 4,516 decimal digits, past the 4,300 that
    # sys.get_int_max_str_digits() allows by default.
    path = tmp_path / "free.cnf"
    path.write_text("p cnf 15000 1\n1 0\n")
    out, err = io.StringIO(), io.StringIO()
    status = run(RunConfig(str(path), mode="allsat", pivot_strategy=pivot),
                 out=out, err=err)
    assert (status, out.getvalue(), err.getvalue()) == (
        EXIT_ERROR, "", "error: output capped at 2**20 rows, formula has at "
        "least 2**14999 models\n")


@pytest.mark.parametrize("output_format", ["text", "json"])
@pytest.mark.parametrize("pivot", ["vars", "clause"])
def test_allsat_refusal_is_stated_at_the_first_cube_past_the_cap(
        tmp_path, pivot, output_format):
    # free30 has 7 * 2**27 models.  Either pivot's first cube is -25 -26 27,
    # whose 2**27 rows pass the cap alone: both pivots expand cubes by one
    # rule and state the running total there, not the whole count.
    path = tmp_path / "free30.cnf"
    path.write_text("p cnf 30 1\n25 26 27 0\n")
    out, err = io.StringIO(), io.StringIO()
    status = run(RunConfig(str(path), mode="allsat", pivot_strategy=pivot,
                           output_format=output_format), out=out, err=err)
    assert (status, out.getvalue(), err.getvalue()) == (
        EXIT_ERROR, "", "error: output capped at 2**20 rows, formula has at "
        "least 2**27 models\n")


def _implication_chain(n):
    """(x1)(x1' + x2)...(x(n-1)' + xn) as DIMACS text."""
    return f"p cnf {n} {n}\n1 0\n" + "".join(
        f"-{i} {i + 1} 0\n" for i in range(1, n))


# An implication chain (x1)(x1' + x2)...(x(n-1)' + xn) has one model, all
# true, found by unit propagation alone: each unit touches the two clauses
# that hold its variable, so the search is linear in n.  Re-scanning every
# clause for each unit took over a minute at this size.  Under
# ``--pivot vars`` the root's block search propagates the whole chain, so
# the tree is the root and one trivial leaf; one node per allowed row of
# each block made a tree as deep as the chain, which timed out.
_CHAIN = """
import io, json, sys
from cofsat.cli import RunConfig, run
from cofsat.cnf import _models
n = int(sys.argv[2])
clauses = [(1,)] + [(-i, i + 1) for i in range(1, n)]
cubes = _models(clauses, range(1, n + 1))
out, err = io.StringIO(), io.StringIO()
status = run(RunConfig(sys.argv[1], mode="count", pivot_strategy=sys.argv[3]),
             out=out, err=err)
print(json.dumps({"one_full_cube": cubes == [((1 << n) - 1,) * 2],
                  "run": [status, out.getvalue(), err.getvalue()]}))
"""


def _limit_small_memory():
    limit = 256 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("pivot", ["clause", "vars"])
def test_implication_chain_propagates_in_linear_time(tmp_path, pivot):
    n = 20_000
    path = tmp_path / "chain.cnf"
    path.write_text(_implication_chain(n))
    proc = subprocess.run(
        [sys.executable, "-c", _CHAIN, str(path), str(n), pivot],
        capture_output=True, text=True, timeout=20, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["one_full_cube"]
    assert report["run"] == [EXIT_SAT, "1\n", ""]


@pytest.mark.parametrize("mode, options", [
    ("allsat", dict(pivot_strategy="clause")),
    ("decompose", dict(n0=25)),
])
def test_short_chain_is_capped_by_rows_not_width(tmp_path, mode, options):
    # The 30-variable chain has one model.  allsat solves a 29-variable
    # branch, and the printed tree enumerates the rows of a 25-variable
    # block: both are wider than the 20 variables whose every row the cap
    # allows, and both build one row.
    n = 30
    path = tmp_path / "chain.cnf"
    path.write_text(_implication_chain(n))
    out, err = io.StringIO(), io.StringIO()
    status = run(RunConfig(str(path), mode=mode, **options), out=out, err=err)
    assert err.getvalue() == ""
    if mode == "allsat":
        assert (status, out.getvalue()) == (
            EXIT_SAT, " ".join(map(str, range(1, n + 1))) + " 0\n")
    else:
        assert status == EXIT_OK
        assert _tree_models(out.getvalue(), "text", n) == [(1 << n) - 1]


def _pair_chain(n):
    """(x1 + x2)(x2 + x3)...(x(n-1) + xn): a Fibonacci number of models."""
    return f"p cnf {n} {n - 1}\n" + "".join(
        f"{i} {i + 1} 0\n" for i in range(1, n))


def test_clause_allsat_stops_the_search_at_the_cap(tmp_path):
    # chain46 has 4,807,526,976 models.  allsat counts the rows of each
    # cube of the one search as it comes and stops at the first cube past
    # 2**20 rows: totalling every cube first took 3.9 s here.
    path = tmp_path / "chain46.cnf"
    path.write_text(_pair_chain(46))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cofsat.cli", "--input", str(path),
         "--mode", "allsat", "--pivot", "clause"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
        preexec_fn=_limit_small_memory)
    seconds = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_ERROR, "", "error: output capped at 2**20 rows, formula has at "
        "least 2**20 models\n")
    assert seconds < 2


# One text ``sat`` run in a fresh interpreter, timed inside it, with its
# peak read as VmHWM; a third argument "verify" adds --verify.
_LEAST = """
import io, json, re, sys, time
from cofsat.cli import RunConfig, run
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
status = run(RunConfig(sys.argv[1], mode="sat", pivot_strategy=sys.argv[2],
                       verify=sys.argv[3:] == ["verify"]), out=out, err=err)
seconds = time.perf_counter() - start
with open("/proc/self/status") as proc_status:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB",
                            proc_status.read()).group(1))
print(json.dumps([status, out.getvalue(), err.getvalue(), seconds, peak_kb]))
"""


def _least_run(tmp_path, n, *args):
    """Text ``sat`` on chain n in a child process: the least model it
    should print, and its status, stdout, stderr, seconds and peak kB."""
    path = tmp_path / f"chain{n}.cnf"
    path.write_text(_pair_chain(n))
    proc = subprocess.run(
        [sys.executable, "-c", _LEAST, str(path), *args],
        capture_output=True, text=True, timeout=60, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    witness = [v if (n - v) % 2 else -v for v in range(1, n + 1)]
    return ("SATISFIABLE\n" + " ".join(map(str, [*witness, 0])) + "\n",
            *json.loads(proc.stdout))


@pytest.mark.parametrize("pivot", ["vars", "clause"])
@pytest.mark.parametrize("n", [60, 200, 1000])
def test_text_sat_searches_for_the_least_model_only(tmp_path, n, pivot):
    # chain60 has about 4.1e12 models and chain200 about 7.3e41.  Text sat
    # prints no count, so it stops at the first model of a search that
    # branches on the highest variable, False first: the least one.
    # chain60 took over 120 s when the search summed every cube, and
    # chain1000 4 s when it pruned by the last model found.
    want, status, out, err, seconds, peak_kb = _least_run(tmp_path, n, pivot)
    assert (status, out, err) == (EXIT_SAT, want, "")
    assert seconds < 2
    assert peak_kb < 100 * 1024


@pytest.mark.parametrize("pivot", ["vars", "clause"])
def test_sat_verify_past_the_table_limit_counts_nothing(tmp_path, pivot):
    # Past 16 variables --verify checks nothing, so text sat takes the
    # least-model search as without it: chain60 ran past 15 s when
    # --verify took the counting search.
    want, status, out, err, seconds, _ = _least_run(tmp_path, 60, pivot,
                                                     "verify")
    assert (status, out, err) == (
        EXIT_SAT, want, "note: --verify skipped: 60 variables > 16\n")
    assert seconds < 2


def _core_chain(guard):
    """(x1 + x2)(x1 + x2')(x1' + x2)(x1' + x2'), each clause with
    ``guard`` added, and the chain (x6 + x7)...(x58 + x59)(x59 + x60)."""
    core = [[*guard, 1, 2], [*guard, 1, -2], [*guard, -1, 2],
            [*guard, -1, -2]]
    clauses = [*core, *([i, i + 1] for i in range(6, 60))]
    return f"p cnf 60 {len(clauses)}\n" + "".join(
        " ".join(map(str, [*c, 0])) + "\n" for c in clauses)


@pytest.mark.parametrize("pivot", ["vars", "clause"])
@pytest.mark.parametrize("guard", [(), (60,)])
def test_text_sat_refutes_a_low_core_below_high_branches(tmp_path, guard,
                                                        pivot):
    # The core on x1 and x2 is refuted only by branching on them, and the
    # chain above it has a Fibonacci number of assignments.  Branching on
    # the highest variable alone visited each of them before reaching the
    # core, for over 20 s: when the core is unsatisfiable, and when it
    # holds x60 so that the least model sets x60 but no x60 = False
    # branch holds a model.  Once the core refutes a branch, each frame
    # the search backs up to is probed by a counting search of its slots,
    # which refutes the core in three frames.
    path = tmp_path / "core.cnf"
    path.write_text(_core_chain(guard))
    proc = subprocess.run(
        [sys.executable, "-c", _LEAST, str(path), pivot],
        capture_output=True, text=True, timeout=60, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, out, err, seconds, _ = json.loads(proc.stdout)
    # x59 False forces x58, x57 False forces x56, and so on down to x6.
    model = [-1, -2, -3, -4, -5,
             *(v if v % 2 == 0 else -v for v in range(6, 60)), 60]
    assert (status, out, err) == (
        (EXIT_UNSAT, "UNSATISFIABLE\n", "") if not guard else
        (EXIT_SAT, "SATISFIABLE\n" + " ".join(map(str, [*model, 0])) + "\n",
         ""))
    assert seconds < 2


# count, then JSON sat, in one fresh interpreter, each with the peak read
# as VmHWM after it.
_PEAK = """
import io, json, re, sys
from cofsat.cli import RunConfig, run
runs = []
for mode, output_format in (("count", "text"), ("sat", "json")):
    out, err = io.StringIO(), io.StringIO()
    status = run(RunConfig(sys.argv[1], mode=mode, pivot_strategy=sys.argv[2],
                           output_format=output_format), out=out, err=err)
    with open("/proc/self/status") as proc_status:
        peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB",
                                proc_status.read()).group(1))
    runs.append([status, out.getvalue(), err.getvalue(), peak_kb])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("pivot", ["vars", "clause"])
def test_million_variable_header_counts_without_a_map_of_the_universe(
        tmp_path, pivot):
    # The one search reads variable v at bit v - 1 of a root over 1..n, so
    # a 12-byte file declaring a million variables builds no dict over
    # them, and count, which prints no row, builds no ``SolutionSet`` that
    # copies the universe: about 53 MB peak, against 101 MB with the copy
    # and 133 MB with the map too.  JSON sat builds a ``SolutionSet`` of
    # its one row, which keeps the sorted universe as given: about 53 MB,
    # against 101 MB when it sorted a copy.
    path = tmp_path / "header.cnf"
    path.write_text("p cnf 1000000 1\n1 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK, str(path), pivot],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    (status, out, err, peak_kb), (sat_status, sat_out, sat_err, sat_kb) = (
        json.loads(proc.stdout))
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        # 2**999999 has 301,030 decimal digits.
        assert (status, out) == (EXIT_ERROR, "")
        assert err.startswith("error: model count has more than ")
        assert (sat_status, sat_out, sat_err) == (EXIT_ERROR, "", err)
    else:
        assert (status, out, err) == (EXIT_SAT, f"{1 << 999999}\n", "")
        assert (sat_status, sat_err) == (EXIT_SAT, "")
        assert json.loads(sat_out) == {
            "status": "SATISFIABLE", "count": 1 << 999999,
            "solutions": [[1, *range(-2, -1000001, -1)]]}
    assert peak_kb < 75 * 1024
    assert sat_kb < 75 * 1024


def test_chain26_at_n0_1_counts_and_finds_a_model_quickly(tmp_path):
    # At --n0 1 each frame of more than one unset variable asks for a
    # block of its own.  A block of the variable in the most 2-literal
    # clauses is the one the search would branch on anyway, so the search
    # stops about as many cubes as a free one; a block that maximised the
    # clauses inside it took over 4 s here.
    n = 26
    path = tmp_path / "chain26.cnf"
    path.write_text(_pair_chain(n))
    fib = [0, 1]
    while len(fib) < n + 3:
        fib.append(fib[-1] + fib[-2])
    # xn false forces x(n-1) true, x(n-2) false forces x(n-3) true, and so
    # on down.
    witness = [v if (n - v) % 2 else -v for v in range(1, n + 1)]
    expected = {"count": f"{fib[n + 2]}\n",
                "sat": "SATISFIABLE\n" + " ".join(map(str, witness)) + " 0\n"}
    for mode, text in expected.items():
        out = io.StringIO()
        start = time.perf_counter()
        status = run(RunConfig(str(path), mode=mode, pivot_strategy="vars",
                               n0=1), out=out, err=io.StringIO())
        seconds = time.perf_counter() - start
        assert (status, out.getvalue()) == (EXIT_SAT, text), mode
        assert seconds < 2, mode


# Files under 512 bytes that once made a run blow up.  In ``free1000`` and
# ``free30`` no clause holds the low variables, and a split on each of them
# copied the whole subtree: ``free1000`` ran out of memory and ``free30``
# ran past 20 s under --pivot vars.  In a 2-CNF chain a variable whose
# two neighbours are true is left in no clause; splitting on such
# variables too, ``chain30`` took over 10 s and 280 MB under --pivot vars.
# ``units50`` is settled by propagation alone, and ``empty64`` has no
# clause at all.  In ``free100000`` each edge's bindings and each printed
# row were read with one shift per variable of a 100,000-variable
# universe, 1.1-1.4 s per mode under --pivot vars.  ``pivot24``'s one
# clause has 2**24 - 1 partial assignments: decompose --pivot clause built
# them for 19 s and died of MemoryError; it is refused past 2**20.
# ``free1000000`` declares the most variables a header may, about; in
# ``header1e8`` building the universe 1..10**8 died of MemoryError in every
# mode, and a header past 2**20 variables is refused before it is built.
_HOSTILE_INPUTS = {
    "free1000": "p cnf 1000 1\n998 999 1000 0\n",
    "free100000": "p cnf 100000 1\n99998 99999 100000 0\n",
    "free1000000": "p cnf 1000000 1\n1 0\n",
    "header1e8": "p cnf 100000000 1\n1 0\n",
    "free30": "p cnf 30 1\n25 26 27 0\n",
    "chain20": _pair_chain(20),
    "chain30": _pair_chain(30),
    "units50": _implication_chain(50),
    "empty64": "p cnf 64 0\n",
    "pivot24": "p cnf 24 1\n" + " ".join(map(str, range(1, 25))) + " 0\n",
}

# Every mode on both pivots, in one fresh interpreter per input.  VmHWM
# only grows, so the peak read after a run bounds every run before it:
# the first two are count and sat on --pivot vars.
_HOSTILE = """
import io, json, re, sys, time
from cofsat.cli import RunConfig, run
skip = json.loads(sys.argv[2])
runs = []
for pivot in ("vars", "clause"):
    for mode in ("count", "sat", "allsat", "decompose"):
        if [mode, pivot] in skip:
            continue
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        status = run(RunConfig(sys.argv[1], mode=mode, pivot_strategy=pivot),
                     out=out, err=err)
        seconds = time.perf_counter() - start
        with open("/proc/self/status") as proc_status:
            peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB",
                                    proc_status.read()).group(1))
        runs.append([mode, pivot, status, err.getvalue(), seconds, peak_kb])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("name", sorted(_HOSTILE_INPUTS))
def test_hostile_input_runs_in_bounded_time_and_memory(tmp_path, name):
    path = tmp_path / f"{name}.cnf"
    path.write_text(_HOSTILE_INPUTS[name])
    assert path.stat().st_size < 512
    # The printed row tree of chain30 is 14 MB of text: chain20 covers it.
    skip = [["decompose", "vars"]] if name == "chain30" else []
    proc = subprocess.run(
        [sys.executable, "-c", _HOSTILE, str(path), json.dumps(skip)],
        capture_output=True, text=True, timeout=30, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    runs = json.loads(proc.stdout)
    assert len(runs) == 8 - len(skip)
    for mode, pivot, status, err, seconds, peak_kb in runs:
        where = f"{name} --mode {mode} --pivot {pivot}"
        assert status in (EXIT_OK, EXIT_ERROR, EXIT_SAT, EXIT_UNSAT), where
        assert "Traceback" not in err and "MemoryError" not in err, where
        assert seconds < 2, where
        if name == "chain30" and pivot == "vars" and mode in ("count", "sat"):
            assert peak_kb < 100 * 1024, where


def test_header1e8_is_refused_with_the_cap_message_in_every_mode(tmp_path):
    path = tmp_path / "header1e8.cnf"
    path.write_text(_HOSTILE_INPUTS["header1e8"])
    proc = subprocess.run(
        [sys.executable, "-c", _HOSTILE, str(path), "[]"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    message = (f"error: {path}: line 1: header declares 100000000 variables, "
               "capped at 2**20\n")
    assert [run[2:4] for run in json.loads(proc.stdout)] == [
        [EXIT_ERROR, message]] * 8


def test_pivot_branches_are_capped(tmp_path, monkeypatch):
    # With the cap at 2**3, the 7 branches of a 3-literal pivot are
    # printed and the 15 of a 4-literal pivot are refused before any is
    # built.  Solving reads the k disjoint branches, which are not capped.
    monkeypatch.setattr(cnf, "MAX_ENUM_VARS", 3)
    calls = []
    original = decompose.substitute
    monkeypatch.setattr(decompose, "substitute",
                        lambda f, q: calls.append(q) or original(f, q))
    message = "pivot clause of 4 literals has 2**4 - 1 branches, capped at 2**3"
    formula = CnfFormula([[1, 2, 3, 4], [-1, 2, 3]])
    assert len(decompose.clause_pivot_decompose(formula, 1)) == 7
    calls.clear()
    for build in (decompose.clause_pivot_decompose, clause_pivot_tree):
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            build(formula, 0)
    assert calls == []

    path = tmp_path / "pivot4.cnf"
    path.write_text("p cnf 4 2\n1 2 3 4 0\n-1 2 3 0\n")

    def decompose_run(pivot_clause, mode="decompose"):
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode=mode, pivot_strategy="clause",
                               pivot_clause=pivot_clause), out=out, err=err)
        return status, out.getvalue(), err.getvalue()

    status, out, err = decompose_run(1)
    assert (status, len(out.splitlines()), err) == (EXIT_OK, 8, "")
    assert decompose_run(0) == (EXIT_ERROR, "", f"error: {message}\n")
    assert decompose_run(0, "count") == (EXIT_SAT, "13\n", "")


def test_pivot24_is_refused_with_the_cap_message(tmp_path):
    path = tmp_path / "pivot24.cnf"
    path.write_text(_HOSTILE_INPUTS["pivot24"])
    proc = subprocess.run(
        [sys.executable, "-m", "cofsat.cli", "--input", str(path),
         "--mode", "decompose", "--pivot", "clause"],
        capture_output=True, text=True, timeout=30, env=_child_env(),
        preexec_fn=_limit_small_memory)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_ERROR, "", "error: pivot clause of 24 literals has 2**24 - 1 "
        "branches, capped at 2**20\n")
