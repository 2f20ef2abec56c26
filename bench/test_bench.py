"""Self-tests of the benchmark's own code: oracle, generator, statistics,
timer, tracer.

    python -m pytest bench -q

They are outside the package's test paths, so the regular suite does not
collect them.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import random
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import cofsat  # noqa: E402
import cofsat.cli as cli  # noqa: E402
from tests.helpers import brute_force_rows, random_3cnf_clauses  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

SMALL = [(n, m, seed) for n in (3, 6, 9, 12) for m in (2, n, 3 * n, 5 * n)
         for seed in range(3)]


def _clauses(n, m, seed):
    return gen.random_3cnf_clauses(random.Random(seed), n, m)


@pytest.mark.parametrize("n,m,seed", SMALL)
def test_oracle_matches_brute_force(n, m, seed):
    clauses = _clauses(n, m, seed)
    rows = brute_force_rows(clauses, range(1, n + 1))
    want = oracle.solve(clauses, n)
    assert want.count == len(rows)
    assert oracle.model_rows(clauses, n) == rows
    assert want.min_row == (rows[0] if rows else None)
    text = "".join(" ".join(str(v if r >> (v - 1) & 1 else -v)
                            for v in range(1, n + 1)) + " 0\n" for r in rows)
    assert want.allsat_sha256 == hashlib.sha256(text.encode()).hexdigest()


def test_generator_follows_the_test_recipe():
    for n, m in ((5, 20), (12, 51), (20, 85)):
        ours = gen.random_3cnf_clauses(random.Random(7), n, m)
        assert ours == random_3cnf_clauses(random.Random(7), n, m)


def test_generation_is_seeded(tmp_path):
    shapes = [(8, 20), (9, 30)]
    a = gen.generate("w", 5, shapes, 4, tmp_path / "a")
    b = gen.generate("w", 5, shapes, 4, tmp_path / "b")
    c = gen.generate("w", 6, shapes, 4, tmp_path / "c")
    assert [i.sha256 for i in a] == [i.sha256 for i in b]
    assert [i.sha256 for i in a] != [i.sha256 for i in c]
    assert [i.num_vars for i in a] == [8, 9, 8, 9]
    for inst in a:
        assert inst.path.read_bytes() == gen.dimacs_text(
            inst.num_vars, [list(c) for c in inst.clauses]).encode()


def _run(path, **options):
    out = io.StringIO()
    status = cli.run(cli.RunConfig(input_path=str(path), **options), out,
                     io.StringIO())
    return status, out.getvalue()


CASES = [(n, m, seed) for n in (6, 9, 12) for m in (n, 4 * n) for seed in (0, 1)]


@pytest.mark.parametrize("n,m,seed", CASES)
@pytest.mark.parametrize("pivot", ["vars", "clause"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_real_outputs_pass_the_check(tmp_path, n, m, seed, pivot, fmt):
    clauses = _clauses(n, m, seed)
    path = tmp_path / "f.cnf"
    path.write_text(gen.dimacs_text(n, clauses))
    want = oracle.solve(clauses, n)
    for mode in ("sat", "count", "allsat", "decompose"):
        status, out = _run(path, mode=mode, pivot_strategy=pivot, n0=4,
                           output_format=fmt)
        assert oracle.check_output(mode, fmt, pivot, status, out, want) is None


def _sat_instance(tmp_path):
    for seed in range(50):
        clauses = _clauses(9, 20, seed)
        want = oracle.solve(clauses, 9)
        if want.count > 1:
            path = tmp_path / "f.cnf"
            path.write_text(gen.dimacs_text(9, clauses))
            return path, want
    raise AssertionError("no satisfiable instance")


def test_wrong_outputs_fail_the_check(tmp_path):
    path, want = _sat_instance(tmp_path)
    status, out = _run(path, mode="allsat")
    assert oracle.check_output("allsat", "text", "vars", status,
                               "".join(out.splitlines(True)[1:]), want)
    assert oracle.check_output("allsat", "text", "vars", 20, out, want)
    status, out = _run(path, mode="sat")
    last = oracle.row_line((1 << 9) - 1 - want.min_row, 9)
    assert oracle.check_output("sat", "text", "vars", status,
                               "SATISFIABLE\n" + last, want)
    status, out = _run(path, mode="count", output_format="json")
    assert oracle.check_output("count", "json", "vars", status,
                               out.replace(str(want.count), str(want.count + 1)),
                               want)
    status, out = _run(path, mode="decompose", n0=4)
    nodes = oracle.parse_tree_text(out)
    leaf = next(n for n in nodes if n["status"] == "solvable" and n["clauses"])
    leaf["clauses"].pop()
    assert oracle.check_tree(nodes, want, disjoint=True)


def test_var_partition_counts_must_add_up(tmp_path):
    path, want = _sat_instance(tmp_path)
    status, out = _run(path, mode="decompose", n0=4, output_format="json")
    nodes = json.loads(out)["tree"]
    live = [n for n in nodes if n["status"] in oracle.LIVE_STATUSES]
    live[0]["status"] = "unsat"
    assert oracle.check_tree(nodes, want, disjoint=True)


def test_clause_pivot_dead_leaves_must_be_dead(tmp_path):
    path, want = _sat_instance(tmp_path)
    status, out = _run(path, mode="decompose", pivot_strategy="clause")
    nodes = oracle.parse_tree_text(out)
    assert oracle.check_tree(nodes, want, disjoint=False) is None
    live = [n for n in nodes if n["status"] in oracle.LIVE_STATUSES]
    live[0]["status"] = "unsat"
    assert oracle.check_tree(nodes, want, disjoint=False)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert stats.beyond(100, 90) == 10
    assert stats.tail_is_sampled(100, 90)
    assert not stats.tail_is_sampled(99, 90)
    assert not stats.tail_is_sampled(40, 90)
    assert stats.tail_is_sampled(1000, 99)


def test_speed_kernel_is_fixed_and_imports_nothing():
    assert speed.kernel() == oracle.count_models(speed.CLAUSES, speed.NUM_VARS)
    assert len(set(speed.CLAUSES)) == speed.NUM_CLAUSES
    tree = ast.parse(Path(speed.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_times_are_rescaled_by_the_nearby_kernel_samples():
    calib = run.Calibration()
    calib.samples = [run.REFERENCE_S] * 6 + [2 * run.REFERENCE_S] * 6
    assert calib.scale(0) == 1.0
    assert calib.scale(11) == 0.5
    assert calib.scale(5) == pytest.approx(2 / 3)  # median of 3 fast, 3 slow


def test_each_instance_and_mode_counts_once():
    per_key = {(i, mode): [0.1 * (i + 1), 0.1 * (i + 1) + (1 if i == 0 else 0)]
               for i in range(20) for mode in run.MODES}
    metrics = run.end_to_end(per_key, [0.2, 0.1, 0.3])
    assert metrics["latency_s_p50"] == (pytest.approx(1.05), 80)
    assert metrics["sat_s_p50"] == (pytest.approx(1.05), 20)
    assert metrics["latency_s_p90"][0] == pytest.approx(1.8)
    assert metrics["calls_per_s"] == (pytest.approx(160 / 172), 160)
    assert metrics["setup_s"] == (0.2, 3)


def test_tracer_reports_missing_names_without_crashing(capsys):
    fake = types.SimpleNamespace(
        cli=types.SimpleNamespace(__name__="cli"),
        cnf=types.SimpleNamespace(__name__="cnf"),
        decompose=types.SimpleNamespace(__name__="decompose"),
        allsat=types.SimpleNamespace(__name__="allsat"))
    tracer = tracing.Tracer()
    tracing.install(tracer, fake)
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert "decompose.enumerate_c1_s" in tracer.missing
    assert "warning" in capsys.readouterr().err
    tracer.uninstall()


def test_tracer_spans_a_real_run(tmp_path):
    path, want = _sat_instance(tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer, cofsat)
    try:
        for mode in ("allsat", "decompose"):
            status, out = _run(path, mode=mode, n0=4, jobs=2)
            assert oracle.check_output(mode, "text", "vars", status, out,
                                       want) is None
    finally:
        tracer.uninstall()
    assert cli.solve_leaf is cofsat.allsat.solve_leaf
    assert tracer.missing == {}
    metrics = tracer.layer_metrics()
    assert metrics["allsat.rows_out"] == want.count / 2
    assert metrics["allsat.dedup_ratio"] == 1.0  # var-partition leaves are disjoint
    assert metrics["decompose.c1_allowed"] == metrics["decompose.nodes"] - 1
    assert 0 < metrics["cli.self_s"] < metrics["cli.run_s"]
    names = {span[1] for span in tracer.spans}
    assert {"cli.run", "cnf.parse", "decompose.tree", "cli.leaf_solve",
            "allsat.solve_leaf", "allsat.gather",
            "decompose.serialize"} <= names


def test_every_clause_branch_must_be_there(tmp_path):
    path, want = _sat_instance(tmp_path)
    status, out = _run(path, mode="decompose", pivot_strategy="clause")
    nodes = oracle.parse_tree_text(out)
    assert oracle.check_tree(nodes, want, disjoint=False) is None
    assert len(nodes) == 8
    for leaf in nodes[1:]:
        rest = [n for n in nodes if n is not leaf]
        assert "branches" in oracle.check_tree(rest, want, disjoint=False)
    assert oracle.check_tree(nodes[:1], want, disjoint=False)


def test_live_leaves_must_cover_every_model(tmp_path):
    path, want = _sat_instance(tmp_path)
    status, out = _run(path, mode="decompose", n0=4)
    nodes = oracle.parse_tree_text(out)
    live = [n for n in nodes if n["status"] in oracle.LIVE_STATUSES
            and oracle.count_models(n["clauses"], len(n["universe"]))]
    assert live
    for leaf in live:
        rest = [n for n in nodes if n is not leaf]
        assert "cover" in oracle.check_tree(rest, want, disjoint=True)
    assert "cover" in oracle.check_tree(nodes[:1], want, disjoint=True)
