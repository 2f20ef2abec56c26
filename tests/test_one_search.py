"""``--mode count``, ``--mode sat`` and ``--mode allsat --pivot clause``
solve in one search of the root.

``decompose._var_partition_cubes`` and ``decompose._clause_branch_cubes``
follow the base of the tree they replace (``var_partition_decompose(...,
propagate=True)`` and ``clause_branch_tree``) as the first branchings of
one ``cnf._search``, and solve each leaf in the frame that made it.  The
count and least model of their cubes (``allsat._count_and_least``, the rule
``count_and_witness`` applies to the tree's cubes) must equal those of the
tree and of the brute-force oracle of ``helpers``; so must the rows that
``--mode allsat --pivot clause`` expands from the clause-pivot cubes, and
the rows that ``--mode allsat --pivot vars`` gathers from the tree.  The
least-model search of text ``--mode sat`` must stop on the same least
model, and on no other.
"""

import io
import random
import warnings
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cofsat import (
    CnfFormula,
    SolutionSet,
    clause_branch_tree,
    count_and_witness,
    decompose,
    emit_dimacs,
    gather,
    parse_dimacs,
    var_partition_decompose,
)
from cofsat.allsat import _count_and_least
from cofsat.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, RunConfig, run
from cofsat.cli import parallel_leaf_solve
from cofsat.cnf import _cube_rows, _models, _search
from cofsat.decompose import _clause_branch_cubes, _var_partition_cubes

from helpers import brute_force_rows, random_formula, reference_reduce

N0S = (1, 2, 3, 8)


def one_search(f, pivot, n0=8, index=0):
    cubes = (_var_partition_cubes(f, n0) if pivot == "vars"
             else _clause_branch_cubes(f, index))
    return _count_and_least(cubes, f.num_vars)


def tree_answer(f, pivot, n0=8, index=0):
    return count_and_witness(
        var_partition_decompose(f, n0, propagate=True) if pivot == "vars"
        else clause_branch_tree(f, index))


def oracle(f):
    rows = brute_force_rows(f.to_ints(), f.universe)
    return len(rows), min(rows, default=None)


def chain(n):
    """(x1 + x2)(x2 + x3)...(x(n-1) + xn): a Fibonacci number of models."""
    return parse_dimacs(f"p cnf {n} {n - 1}\n" + "".join(
        f"{i} {i + 1} 0\n" for i in range(1, n)))


@st.composite
def mixed_cnf(draw):
    """Clauses of 1 to 4 literals over 1..n, n <= 10, in a universe that
    may hold variables no clause holds; some unsatisfiable."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(4, n),
                      unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=4 * n))
    if draw(st.booleans()) and draw(st.booleans()):
        v = draw(st.integers(1, n))
        raw += [(v,), (-v,)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated clauses are merged
        return CnfFormula(raw, universe=range(1, n + 1 + draw(
            st.integers(0, 2))))


class TestAgainstTreeAndOracle:
    @settings(max_examples=150, deadline=None)
    @given(mixed_cnf(), st.sampled_from(N0S), st.integers(0, 40))
    # Under x1' x2' both clauses reduce to (x3 + x4), which the search
    # holds in two slots and the tree's child once.
    @example(CnfFormula([[1, 3, 4], [2, 3, 4]]), 2, 0)
    def test_both_pivots(self, f, n0, index):
        want = oracle(f)
        assert one_search(f, "vars", n0) == tree_answer(f, "vars", n0) == want
        if f.to_ints():
            index %= len(f.to_ints())
            assert (one_search(f, "clause", index=index)
                    == tree_answer(f, "clause", index=index) == want)

    def test_random_3cnf(self):
        rng = random.Random(25)
        for n, m in ((10, 30), (12, 51), (13, 55), (14, 60)):
            f = random_formula(rng, n, m)
            want = oracle(f)
            for n0 in N0S:
                assert one_search(f, "vars", n0) == tree_answer(
                    f, "vars", n0) == want
            index = rng.randrange(m)
            assert one_search(f, "clause", index=index) == tree_answer(
                f, "clause", index=index) == want


class TestEdgeCases:
    @pytest.mark.parametrize("pivot", ["vars", "clause"])
    @pytest.mark.parametrize("n0", N0S)
    @pytest.mark.parametrize("index", [0, 3, -1, 10**6])
    def test_no_clauses_at_any_pivot_index(self, pivot, n0, index):
        f = CnfFormula([], universe=range(1, 6))
        assert one_search(f, pivot, n0, index) == tree_answer(
            f, pivot, n0, index) == oracle(f) == (32, 0)

    @pytest.mark.parametrize("index", [-1, 4, 99])
    def test_out_of_range_pivot_raises_the_same_error(self, index):
        f = CnfFormula([[1, 2], [-1, 3], [2, -3], [-2, 3]])
        with pytest.raises(ValueError) as tree_error:
            clause_branch_tree(f, index)
        with pytest.raises(ValueError) as search_error:
            one_search(f, "clause", index=index)
        assert str(search_error.value) == str(tree_error.value) == (
            f"pivot index {index} out of range for 4 clauses")

    @pytest.mark.parametrize("pivot", ["vars", "clause"])
    @pytest.mark.parametrize("n0", N0S)
    @pytest.mark.parametrize("clauses", [
        [[1], [-1]],
        [[1, 2], [1, -2], [-1, 2], [-1, -2]],
        [[1, 2, 3], [-1], [-2], [-3, 4], [-4, 5], [-5]],
    ], ids=["units", "pairs", "chain"])
    def test_dead_root(self, pivot, n0, clauses):
        f = CnfFormula(clauses, universe=range(1, 7))
        assert one_search(f, pivot, n0) == tree_answer(f, pivot, n0) \
            == oracle(f) == (0, None)

    @pytest.mark.parametrize("pivot", ["vars", "clause"])
    @pytest.mark.parametrize("n0", N0S)
    def test_free_variables(self, pivot, n0):
        # free1000: no clause holds x1..x997.
        f = parse_dimacs("p cnf 1000 1\n998 999 1000 0\n")
        assert one_search(f, pivot, n0) == tree_answer(f, pivot, n0) == (
            7 << 997, 1 << 997)

    @pytest.mark.parametrize("pivot", ["vars", "clause"])
    @pytest.mark.parametrize("n0", N0S)
    def test_two_clauses_over_forty_variables(self, pivot, n0):
        f = CnfFormula([[1, 2], [-3, 4]], universe=range(1, 41))
        assert one_search(f, pivot, n0) == tree_answer(f, pivot, n0) == (
            9 << 36, 1)

    @pytest.mark.parametrize("pivot", ["vars", "clause"])
    @pytest.mark.parametrize("n0", N0S)
    def test_chain30(self, pivot, n0):
        # At n0 = 1 every frame of more than one unset variable is a node of
        # its own: the tree of chain30 takes over 100 s to build, and of
        # chain20 about 1 s.
        n = 20 if n0 == 1 and pivot == "vars" else 30
        fib = [0, 1]
        while len(fib) < n + 3:
            fib.append(fib[-1] + fib[-2])
        # xn false forces x(n-1) true, x(n-2) false forces x(n-3) true, and
        # so on down.
        least = sum(1 << (v - 1) for v in range(n - 1, 0, -2))
        f = chain(n)
        assert one_search(f, pivot, n0) == tree_answer(f, pivot, n0) == (
            fib[n + 2], least)


def propagated(clauses, literals):
    """The literals that unit propagation sets from ``literals`` and the
    unit clauses."""
    clauses = list(clauses)
    units = [*literals, *(c[0] for c in clauses if len(c) == 1)]
    true = set()
    while units:
        lit = units.pop()
        if lit not in true:
            true.add(lit)
            clauses, new = reference_reduce(clauses, lit)
            units += new
    return true


@settings(max_examples=200, deadline=None)
@given(mixed_cnf())
# The unit x2 satisfies the pivot (x1 + x2) before the search branches:
# the one cube fixes x2 and leaves x1 free.
@example(CnfFormula([[1, 2], [2]]))
# Under x1' the clause (x1 + x3) satisfies the pivot (x1 + x2 + x3)
# before its x2 is reached.
@example(CnfFormula([[1, 2, 3], [1, 3], [-2, -3]]))
def test_clause_cubes_follow_the_orthonormal_base(f):
    # The search branches on the pivot clause (l1 ... lk) over the base
    # l1; l1' l2; ...: on the first literal left in its slot, until the
    # clause holds.  So each cube fixes some pivot literal true, and each
    # literal before the first it fixes true false, but for those after
    # a point where unit propagation under the false ones has already
    # made the clause hold.
    position = {v: j for j, v in enumerate(f.universe)}
    clauses = f.to_ints()
    for index, pivot in enumerate(clauses):
        for bits, fixed in _clause_branch_cubes(f, index):
            values = []
            for lit in pivot:
                bit = 1 << position[abs(lit)]
                values.append(None if not fixed & bit
                              else (bits & bit != 0) == (lit > 0))
            where = (index, bits, fixed)
            assert True in values, where
            before = values[:values.index(True)]
            if None in before:
                falsified = [-lit for lit in pivot[:before.index(None)]]
                assert propagated(clauses, falsified) & set(pivot), where


@settings(max_examples=150, deadline=None)
@given(mixed_cnf())
def test_clause_allsat_rows_match_the_tree_and_brute_force(tmp_path_factory,
                                                           f):
    # Every pivot index, and indices out of range: the CLI's rows come from
    # the cubes of one search, the tree's from its solved and gathered
    # leaves.  A formula with no clauses has no pivot, whatever the index.
    f = parse_dimacs(emit_dimacs(f))  # the universe the CLI reads
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text(emit_dimacs(f))
    m = len(f.to_ints())
    want = brute_force_rows(f.to_ints(), f.universe)
    for index in (*range(m), m, -1):
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode="allsat",
                               pivot_strategy="clause", pivot_clause=index),
                     out=out, err=err)
        if m and not 0 <= index < m:
            with pytest.raises(ValueError) as tree_error:
                clause_branch_tree(f, index)
            assert str(tree_error.value) == (
                f"pivot index {index} out of range for {m} clauses")
            assert (status, out.getvalue(), err.getvalue()) == (
                EXIT_ERROR, "", f"error: {tree_error.value}\n")
            continue
        tree = clause_branch_tree(f, index)
        gathered = gather(tree, parallel_leaf_solve(tree, 1))
        assert list(gathered.rows) == want
        assert (status, out.getvalue(), err.getvalue()) == (
            EXIT_SAT if want else EXIT_UNSAT, gathered.to_text(), "")


@settings(max_examples=100, deadline=None)
@given(mixed_cnf())
def test_vars_allsat_rows_match_the_one_search_and_brute_force(
        tmp_path_factory, f):
    # The CLI gathers the solved leaves of the propagated tree; the cubes
    # of one search that follows the same base, expanded by the same row
    # rule, must give the same rows.
    f = parse_dimacs(emit_dimacs(f))  # the universe the CLI reads
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text(emit_dimacs(f))
    want = brute_force_rows(f.to_ints(), f.universe)
    for n0 in N0S:
        assert sorted(_cube_rows(_var_partition_cubes(f, n0), f.num_vars,
                                 "output")) == want
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode="allsat", pivot_strategy="vars",
                               n0=n0), out=out, err=err)
        assert (status, out.getvalue(), err.getvalue()) == (
            EXIT_SAT if want else EXIT_UNSAT,
            SolutionSet(f.universe, want).to_text(), "")


def least_search(f):
    """The last cube of the least-model search, None when it stops none."""
    least = None
    for least, _, _ in _search(f.to_ints(), f.universe, least=True):
        pass
    return least


@settings(max_examples=150, deadline=None)
@given(mixed_cnf())
# A least model of 0, after which the search must stop; one of 1; no
# clauses; contradictory units; a unit pivot clause 0, set before
# the pivot's first branching.
@example(CnfFormula([[-1, -2], [-3, 2]], universe=range(1, 5)))
@example(CnfFormula([[1, 2], [-3]], universe=range(1, 5)))
@example(CnfFormula([], universe=range(1, 4)))
@example(CnfFormula([[2], [-2]], universe=range(1, 3)))
@example(CnfFormula([[2], [1, 3], [-2, -3, 4]], universe=range(1, 5)))
def test_least_model_search_matches_the_count_and_brute_force(
        tmp_path_factory, f):
    # Text sat prints the first model of a search that branches on the
    # highest variable, and stops there; the counting search, JSON sat and
    # --verify read the same model from every cube.
    f = parse_dimacs(emit_dimacs(f))  # the universe the CLI reads
    want = oracle(f)[1]
    assert least_search(f) == want
    assert len(list(_search(f.to_ints(), f.universe, least=True))) == (
        want is not None)
    assert _count_and_least(_models(f.to_ints(), f.universe),
                            f.num_vars)[1] == want
    assert one_search(f, "vars")[1] == want
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text(emit_dimacs(f))
    text = ("UNSATISFIABLE\n" if want is None else "SATISFIABLE\n"
            + SolutionSet(f.universe, [want]).to_text())
    m = len(f.to_ints())
    runs = [("vars", 0)] + [("clause", i) for i in (*range(m), m, -1)]
    for pivot, index in runs:
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode="sat", pivot_strategy=pivot,
                               pivot_clause=index), out=out, err=err)
        if pivot == "clause" and m and not 0 <= index < m:
            assert (status, out.getvalue(), err.getvalue()) == (
                EXIT_ERROR, "",
                f"error: pivot index {index} out of range for {m} clauses\n")
        else:
            assert (status, out.getvalue(), err.getvalue()) == (
                EXIT_UNSAT if want is None else EXIT_SAT, text, "")


def test_least_model_search_with_probes_matches_brute_force():
    # Random 3-CNF of up to 10 variables refutes branches often, so the
    # least search probes frames by the counting search, finds models in
    # them and refutes others; its one stopped frame stays the least.
    # Each formula is also searched over a sparse universe: its variables
    # renamed, in order, to non-contiguous ids, and one id above them all
    # that no clause holds, so every frame and probe maps ids to bits.
    rng = random.Random(7)
    ids_rng = random.Random(8)
    for _ in range(300):
        f = random_formula(rng, rng.randint(3, 10), rng.randint(1, 45))
        ids = sorted(ids_rng.sample(range(1, 4 * f.num_vars), f.num_vars))
        sparse = CnfFormula(
            [[ids[x - 1] if x > 0 else -ids[-x - 1] for x in clause]
             for clause in f.to_ints()],
            universe=[*ids, ids[-1] + ids_rng.randint(1, 3)])
        for g in (f, sparse):
            want = oracle(g)[1]
            assert least_search(g) == want
            assert len(list(_search(g.to_ints(), g.universe,
                                    least=True))) == (want is not None)


def test_vars_base_stops_few_more_cubes_than_a_free_search():
    # Blocks ranked by occurrences in the shortest clauses hold the
    # variables the search would branch on first, so taking them as the
    # first branchings costs few extra cubes; blocks that maximised the
    # clauses inside them stopped up to 3.7 times as many at this size.
    rng = random.Random(1)
    for _ in range(10):
        f = random_formula(rng, 30, 90)
        free = len(_models(f.to_ints(), f.universe))
        assert len(list(_var_partition_cubes(f, 8))) <= 1.5 * free


class TestSameBlocksAsTheTree:
    """The search asks ``choose_var_subset`` for a block at the very nodes
    of the tree it replaces: the same multiset of clause lists."""

    @staticmethod
    def _blocks_asked(monkeypatch, solve):
        asked = Counter()
        choose = decompose.choose_var_subset

        def record(formula, n0):
            asked[formula.to_ints() if isinstance(formula, CnfFormula)
                  else tuple(formula)] += 1
            return choose(formula, n0)

        monkeypatch.setattr(decompose, "choose_var_subset", record)
        answer = solve()
        monkeypatch.setattr(decompose, "choose_var_subset", choose)
        return answer, asked

    @pytest.mark.parametrize("n0", N0S)
    def test_random_formulas_and_chains(self, monkeypatch, n0):
        rng = random.Random(2025)
        formulas = [random_formula(rng, n, m)
                    for n, m in ((12, 30), (14, 50), (16, 68), (16, 40))]
        formulas += [chain(14), chain(20), CnfFormula(
            [[1, 3, 4], [2, 3, 4], [1, 5, -6], [2, 5, -6], [-4, 6, 7]])]
        # At n0 = 2 a node holds one 2-literal clause in two slots; counted
        # twice, it would pull the node's branching off the tree's.
        formulas.append(CnfFormula([
            [-3, -6], [-1, 8, -9], [-4, -5, -7], [-1, 6, -9], [4, -7, -9],
            [1, -7, -9], [-4, -7], [5, -6, 7], [3, -9], [-2, -6, -8],
            [6, -9], [4, 9], [5, 8]]))
        asked = 0
        for f in formulas:
            tree = self._blocks_asked(
                monkeypatch, lambda: tree_answer(f, "vars", n0))
            search = self._blocks_asked(
                monkeypatch, lambda: one_search(f, "vars", n0))
            assert search == tree
            asked += sum(tree[1].values())
        assert asked >= len(formulas)
