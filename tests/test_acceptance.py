"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Every tolerance is exact equality; the only numeric
bounds are the stated wall-clock budgets.
"""

import functools
import random
import time
from pathlib import Path

from cofsat import (
    BaseSet,
    TruthTable,
    clause_branch_tree,
    cofactor_interval,
    cofactor_sample,
    compose,
    compose_via_expansion,
    consistency_over_base,
    consistency_over_on,
    emit_dimacs,
    estimate_cost,
    expand,
    expansion_identity,
    gather,
    is_cofactor,
    parse_dimacs,
    partial_assignments,
    sat_set,
    solve_leaf,
    substitute,
    to_truth_table,
    var_partition_decompose,
)
from cofsat.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, RunConfig, run
from cofsat.expr import parse_function

from helpers import example2_formula, random_base, random_formula, random_table

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL")
                raise
            print(f"criterion {number} ({name}): PASS")
        return wrapper
    return decorate


def submasks(mask):
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@criterion(1, "worked cofactor interval, all samples in the set")
def test_criterion_1_cofactor_interval():
    started = time.perf_counter()
    f = parse_function("x0'x1 + x1x2 + x0x2'", 3)
    g = parse_function("x0' + x2", 3)
    interval = cofactor_interval(f, g)
    assert interval.lower == parse_function("x0'x1 + x1x2", 3)
    assert interval.upper == f
    for bits in range(256):
        p = TruthTable(3, bits)
        assert is_cofactor(cofactor_sample(f, g, p), f, g)
    assert time.perf_counter() - started < 1.0


@criterion(2, "four-clause worked example: SAT sets, q order, reductions")
def test_criterion_2_worked_example():
    started = time.perf_counter()
    formula = example2_formula()

    satsets = "".join(
        " ".join(str(v) for v in sat_set(c).to_literals()) + " 0\n"
        for c in formula.clauses)
    assert satsets == (GOLDEN / "example2_satsets.txt").read_text()

    qs = partial_assignments(formula.clauses[0])
    assert len(qs) == 7
    q_text = "".join(
        " ".join(str(v) for v in q.to_literals()) + " 0\n" for q in qs)
    assert q_text == (GOLDEN / "example2_qc1.txt").read_text()

    blob = ""
    for q in qs:
        reduced = substitute(formula, q)
        lits = " ".join(str(v) for v in q.to_literals())
        blob += f"q {lits} 0\n" + emit_dimacs(reduced)
    assert blob == (GOLDEN / "example2_reduced.txt").read_text()
    # row 7 deduplicates the repeated unit clause
    row7 = substitute(formula, qs[6])
    assert len(row7.clauses) == 2
    assert time.perf_counter() - started < 1.0


@criterion(3, "expansion theorem, 1000 bases x 10 cofactor choices")
def test_criterion_3_expansion_theorem():
    started = time.perf_counter()
    rng = random.Random(2024)
    for case in range(1000):
        n = rng.choice((2, 3, 4))
        base = random_base(rng, n, rng.randint(2, 4))
        f = random_table(rng, n) & base.cover
        for _ in range(10):
            alphas = [
                cofactor_sample(f, g, random_table(rng, n)) for g in base]
            assert expand(f, base, alphas) == f
    # outside the cover the raw sum collapses to f & cover
    for case in range(200):
        n = rng.choice((2, 3, 4))
        base = random_base(rng, n, 2)
        f = random_table(rng, n)
        alphas = [f & g for g in base]
        assert expand(f, base, alphas, require_cover=False) == f & base.cover
    assert time.perf_counter() - started < 30.0


@criterion(4, "consistency over all 2-member bases at n=3, ON uniqueness")
def test_criterion_4_consistency():
    tables = [TruthTable(3, bits) for bits in range(256)]
    for g1 in range(1, 256):
        for g2 in range(g1 + 1, 256):
            base = BaseSet((tables[g1], tables[g2]))
            for s in submasks(g1 | g2):
                assert consistency_over_base(tables[s], base).sat == (s != 0)

    minterms = BaseSet.minterms(3)
    for bits in range(256):
        f = tables[bits]
        verdict = consistency_over_on(f, minterms)
        assert verdict.sat == (bits != 0)
        assert verdict.exactly_one
        for point in f.support():
            hits = [i for i, phi in enumerate(minterms)
                    if phi.evaluate(point)]
            assert len(hits) == 1

    for g_bits in range(1, 255):  # non-constant g
        pair = BaseSet.pair(tables[g_bits])
        for point in range(8):
            assert sum(1 for phi in pair if phi.evaluate(point)) == 1
        f = tables[(g_bits * 37) % 256]
        verdict = consistency_over_on(f, pair)
        assert verdict.sat == (not f.is_zero)
        assert verdict.exactly_one


@criterion(5, "decomposition equals oracle on 500 random 3-CNF instances")
def test_criterion_5_decomposition():
    started = time.perf_counter()
    rng = random.Random(31337)
    unsat_seen = 0
    for case in range(500):
        n = rng.randint(6, 12)
        ratio = rng.uniform(2.0, 5.0)
        formula = random_formula(rng, n, max(1, round(ratio * n)))
        oracle_rows = tuple(to_truth_table(formula).support())
        if not oracle_rows:
            unsat_seen += 1

        trees = [clause_branch_tree(
            formula, rng.randrange(len(formula.clauses)))]
        trees += [var_partition_decompose(formula, n0) for n0 in (3, 4, 6)]
        for tree in trees:
            results = [solve_leaf(node.item)
                       for node in tree.leaves()
                       if node.status == "solvable"]
            assert gather(tree, results).rows == oracle_rows
    assert unsat_seen > 0  # the suite exercised UNSAT agreement
    assert time.perf_counter() - started < 300.0


@criterion(6, "cofactor set closure and cardinality")
def test_criterion_6_closure():
    # exhaustive at n = 2
    for f_bits in range(16):
        f = TruthTable(2, f_bits)
        for g_bits in range(1, 16):
            g = TruthTable(2, g_bits)
            members = [(f & g) | TruthTable(2, s)
                       for s in submasks((~g).bits)]
            count = sum(
                1 for a in range(16) if is_cofactor(TruthTable(2, a), f, g))
            count_comp = sum(
                1 for a in range(16) if is_cofactor(TruthTable(2, a), ~f, g))
            assert count == len(members) == count_comp
            assert count == 1 << (4 - g.support_size)
            for alpha in members:
                assert is_cofactor(~alpha, ~f, g)
                for beta in members:
                    assert is_cofactor(alpha | beta, f, g)
                    assert is_cofactor(alpha & beta, f, g)
    # randomized at n = 4
    rng = random.Random(4096)
    for case in range(1000):
        f = random_table(rng, 4)
        g = TruthTable(4, rng.randint(1, (1 << 16) - 1))
        alpha = cofactor_sample(f, g, random_table(rng, 4))
        beta = cofactor_sample(f, g, random_table(rng, 4))
        assert is_cofactor(alpha | beta, f, g)
        assert is_cofactor(alpha & beta, f, g)
        assert is_cofactor(~alpha, ~f, g)


@criterion(7, "combine-then-expand identities and composition")
def test_criterion_7_identities_and_composition():
    rng = random.Random(7777)
    for case in range(500):
        n = rng.choice((2, 3, 4))
        base = random_base(rng, n, rng.randint(2, 4))
        cover = base.cover
        f = random_table(rng, n) & cover
        h = random_table(rng, n) & cover
        assert expansion_identity(f, base, "sum", h) == f | h
        assert expansion_identity(f, base, "product", h) == f & h
        assert expansion_identity(f, base, "xor", h) == f ^ h
        if cover.is_one:
            assert expansion_identity(f, base, "complement") == ~f
        # a full-cover base for the complement identity every round
        g = random_table(rng, n)
        if not g.is_zero and not g.is_one:
            assert expansion_identity(
                f, BaseSet.pair(g), "complement") == ~f

    for case in range(500):
        arity = rng.choice((1, 2, 3))
        m = rng.choice((2, 3, 4))
        f = random_table(rng, arity)
        inner = [random_table(rng, m) for _ in range(arity)]
        g = random_table(rng, m)
        on_base = (BaseSet.pair(g) if not g.is_zero and not g.is_one
                   else BaseSet.minterms(m))
        expected = compose(f, inner)
        assert compose_via_expansion(f, inner, on_base) == expected
        assert compose_via_expansion(f, inner, BaseSet.minterms(m)) == expected


@criterion(8, "cost model on a pinned 20-row table")
def test_criterion_8_cost_model():
    # (total_vars, threshold, leaf_time, subst_time) -> (depth, rem, total)
    table = [
        (12, 4, 2, 1, 3, 0, 11),
        (10, 4, 2.0, 1.0, 2, 2, 6.0),
        (3, 5, 7.0, 9.0, 0, 3, 1.0),
        (0, 1, 5.0, 3.0, 0, 0, 1.0),
        (1, 1, 0.0, 0.0, 1, 0, 0.0),
        (16, 8, 3, 2, 2, 0, 13),
        (20, 3, 1.5, 0.5, 6, 2, 14.390625),
        (9, 2, 2, 3, 4, 1, 28),
        (100, 10, 1, 1, 10, 0, 11),
        (7, 7, 4, 5, 1, 0, 9),
        (8, 7, 4, 5, 1, 1, 9),
        (13, 7, 4, 5, 1, 6, 9),
        (14, 7, 4, 5, 2, 0, 26),
        (64, 16, 2, 0, 4, 0, 16),
        (5, 2, 0.5, 0.25, 2, 1, 0.75),
        (6, 2, 10, 100, 3, 0, 1300),
        (11, 3, 2, 7, 3, 2, 29),
        (30, 6, 1.25, 2.0, 5, 0, 13.0517578125),
        (2, 3, 6, 8, 0, 2, 1.0),
        (17, 4, 2, 0.5, 4, 1, 18.0),
    ]
    assert len(table) == 20
    for n, n0, t0, s0, depth, remainder, total in table:
        est = estimate_cost(n, n0, t0, s0)
        assert est.depth == depth
        assert est.remainder == remainder
        assert est.total_time == total


@criterion(9, "DIMACS round-trip corpus, jobs invariance, exit statuses")
def test_criterion_9_engineering(tmp_path):
    # 50-file corpus, byte-exact round trip
    rng = random.Random(50)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(50):
        n = rng.randint(3, 14)
        f = random_formula(rng, n, rng.randint(0, 3 * n))
        path = corpus / f"case{i:02}.cnf"
        path.write_text(emit_dimacs(f))
    files = sorted(corpus.glob("*.cnf"))
    assert len(files) == 50
    for path in files:
        text = path.read_text()
        parsed = parse_dimacs(path.read_bytes())
        assert emit_dimacs(parsed) == text
        assert parse_dimacs(emit_dimacs(parsed)) == parsed

    # jobs invariance: byte-identical output for 1, 2, 8 workers
    import io
    for i in (3, 21, 44):
        for mode in ("sat", "allsat", "count"):
            outputs = set()
            for jobs in (1, 2, 8):
                out = io.StringIO()
                status = run(RunConfig(
                    str(files[i]), mode=mode, n0=4, jobs=jobs), out=out)
                outputs.add((status, out.getvalue().encode()))
            assert len(outputs) == 1

    # exit statuses on pinned inputs
    def status_of(name, **kwargs):
        out, err = io.StringIO(), io.StringIO()
        return run(RunConfig(str(GOLDEN / name), **kwargs), out=out, err=err)

    assert status_of("sat.cnf") == EXIT_SAT
    assert status_of("unsat.cnf") == EXIT_UNSAT
    assert status_of("bad_range.cnf") == EXIT_ERROR
    assert status_of("bad_header.cnf") == EXIT_ERROR
    assert status_of("example2.cnf", mode="decompose") == 0
    assert status_of("example2.cnf", mode="count", verify=True) == EXIT_SAT
