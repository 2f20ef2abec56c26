"""Differential tests of the signed-int clause core.

Formulas store their clauses as tuples of signed ints; a ``Clause`` is a
view of one of them and iterates its ints.  Each test here holds one
int-level path (``substitute``, the leaf search ``_models`` and its row
expansion ``_model_rows`` behind ``all_solutions`` and
``enumerate_c1_assignments``, the block search ``_search`` behind the
variable-partition tree, the projection masks
behind ``to_truth_table``) to a plain reference written over raw ints in
this file or in ``helpers``.
"""

import sys
import warnings

import hypothesis.strategies as st
from hypothesis import example, given, settings

from cofsat import (
    Clause,
    CnfFormula,
    PartialAssignment,
    TruthTable,
    all_solutions,
    enumerate_c1_assignments,
    substitute,
    to_truth_table,
)
from cofsat.cnf import _model_rows, _models, _search

from helpers import brute_force_rows, reference_models

MAX_N = 7


@st.composite
def formulas(draw, max_n=MAX_N, max_clauses=14):
    """Formulas over 1..n from clauses of 1-3 distinct variables; duplicate
    clauses are left in for the constructor to merge."""
    n = draw(st.integers(1, max_n))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=max_clauses))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CnfFormula(raw, universe=range(1, n + 1))


@st.composite
def binary_heavy_formulas(draw):
    """Formulas over 1..n, n from 8 to 16, from clauses of 1-3 distinct
    variables, most of them 2-literal.  Up to three universe variables
    occur in no clause."""
    n = draw(st.integers(8, 16))
    unused = draw(st.lists(st.integers(1, n), max_size=3, unique=True))
    used = [v for v in range(1, n + 1) if v not in unused]
    clause = st.sampled_from((1, 2, 2, 2, 2, 2, 3, 3)).flatmap(
        lambda k: st.lists(st.sampled_from(used), min_size=k, max_size=k,
                           unique=True)).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=3 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CnfFormula(raw, universe=range(1, n + 1))


@st.composite
def long_clause_formulas(draw):
    """Formulas over 1..n, n from 5 to 10, from clauses of 1-5 distinct
    variables, most of them 4- or 5-literal, so that cuts shrink slots
    from five literals down to two."""
    n = draw(st.integers(5, 10))
    clause = st.sampled_from((1, 2, 3, 4, 4, 4, 5, 5, 5)).flatmap(
        lambda k: st.lists(st.integers(1, n), min_size=k, max_size=k,
                           unique=True)).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=4 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CnfFormula(raw, universe=range(1, n + 1))


@st.composite
def formulas_with_blocks(draw, strategy):
    """A formula drawn from ``strategy`` and a block of some of its
    universe variables, in drawn order, possibly none."""
    f = draw(strategy)
    return f, draw(st.lists(st.sampled_from(f.universe), unique=True))


@st.composite
def unit_heavy_clauses(draw):
    """Raw int clauses over 1..n, n from 1 to 12, half of them units and
    most of the rest 2-literal, with literals in drawn order and duplicate
    clauses kept, and the variable list in a drawn order: what the search
    is given, unnormalized."""
    n = draw(st.integers(1, 12))
    clause = st.sampled_from((1, 1, 1, 2, 2, 3)).flatmap(
        lambda k: st.lists(st.integers(1, n), min_size=min(k, n),
                           max_size=min(k, n), unique=True)).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    clauses = draw(st.lists(clause, max_size=3 * n))
    return clauses, draw(st.permutations(range(1, n + 1)))


@st.composite
def formulas_with_bindings(draw):
    """A formula and bindings of some of its universe variables, sometimes
    also of variables n+1 to n+3 outside the universe."""
    f = draw(formulas())
    n = len(f.universe)
    bound = draw(st.lists(st.integers(1, n + 3), unique=True))
    return f, {v: draw(st.booleans()) for v in bound}


def reference_substitute(clauses, universe, bindings):
    """Satisfied clauses dropped, falsified literals removed, duplicates
    merged in first-seen order; None when a clause loses every literal."""
    out = []
    for clause in clauses:
        if any(abs(lit) in bindings and bindings[abs(lit)] == (lit > 0)
               for lit in clause):
            continue
        rest = tuple(lit for lit in clause if abs(lit) not in bindings)
        if not rest:
            return None
        if rest not in out:
            out.append(rest)
    return out, tuple(v for v in universe if v not in bindings)


def public_ints(formula):
    return [c.to_ints() for c in formula.clauses]


class TestSubstituteAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(formulas_with_bindings())
    def test_matches_reference(self, case):
        f, bindings = case
        want = reference_substitute(public_ints(f), f.universe, bindings)
        got = substitute(f, bindings)
        if want is None:
            assert got is None
            return
        clauses, universe = want
        assert got is not None
        assert public_ints(got) == clauses
        assert got.universe == universe

    @settings(max_examples=100, deadline=None)
    @given(formulas_with_bindings())
    def test_partial_assignment_reads_like_dict(self, case):
        f, bindings = case
        assert substitute(f, PartialAssignment(bindings)) == substitute(
            f, bindings)


class TestReducedFormulaIsOrdinary:
    @settings(max_examples=100, deadline=None)
    @given(formulas_with_bindings())
    def test_equal_and_hash_equal_to_public_construction(self, case):
        f, bindings = case
        got = substitute(f, bindings)
        if got is None:
            return
        rebuilt = CnfFormula(public_ints(got), universe=got.universe)
        assert got == rebuilt and rebuilt == got
        assert hash(got) == hash(rebuilt)
        assert len({got, rebuilt}) == 1

    @settings(max_examples=100, deadline=None)
    @given(formulas_with_bindings())
    def test_clause_views_round_trip(self, case):
        f, bindings = case
        got = substitute(f, bindings)
        if got is None:
            return
        views = got.clauses
        assert tuple(c.to_ints() for c in views) == got.to_ints()
        for view in views:
            assert Clause(view.to_ints()) == view
            assert Clause(view) == view
            assert hash(Clause(list(view.to_ints()))) == hash(view)
        assert CnfFormula(views, universe=got.universe) == got
        assert str(CnfFormula(views, universe=got.universe)) == str(got)


class TestSearchAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(formulas(max_n=8, max_clauses=20))
    def test_all_solutions(self, f):
        got = all_solutions(f)
        assert got.over == f.universe
        assert list(got.rows) == brute_force_rows(public_ints(f), f.universe)

    @settings(max_examples=150, deadline=None)
    @given(formulas(), st.data())
    def test_enumerate_c1_assignments(self, f, data):
        x1 = data.draw(st.lists(st.sampled_from(f.universe), unique=True))
        block = set(x1)
        inside = [c for c in f.clauses if set(c.vars) <= block]
        got = enumerate_c1_assignments(inside, x1)
        order = sorted(block)
        rows = [sum(1 << j for j, v in enumerate(order) if q[v]) for q in got]
        assert rows == brute_force_rows([c.to_ints() for c in inside], order)
        assert all(tuple(q) == tuple(order) for q in got)

    @settings(max_examples=100, deadline=None)
    @given(binary_heavy_formulas())
    def test_models_against_truth_table(self, f):
        # Each row once: SolutionSet would hide a duplicate.
        rows = _model_rows(f.to_ints(), f.universe)
        assert len(rows) == len(set(rows))
        assert sorted(rows) == list(to_truth_table(f).support())
        # The cubes alone count the rows.
        n = f.num_vars
        assert sum(1 << n - fixed.bit_count()
                   for _, fixed in _models(f.to_ints(), f.universe)
                   ) == len(rows)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # (x_i + z_i)(x_i + z_i'): each frame sets one x_i, and its False
        # branch dies at once, so the search is one path n frames deep.
        n = sys.getrecursionlimit() + 100
        clauses = [c for i in range(1, n + 1)
                   for c in ((i, n + i), (i, -(n + i)))]
        everything = (1 << n) - 1
        assert _models(clauses, range(1, 2 * n + 1)) == [
            (everything, everything)]

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_n=8, max_clauses=20))
    def test_truth_table(self, f):
        table = to_truth_table(f)
        assert list(table.support()) == brute_force_rows(
            public_ints(f), f.universe)


class TestSearchAgainstReference:
    """``_models`` returns the very cubes, in the very order, of the search
    that re-scanned every clause for each unit literal
    (``helpers.reference_models``), so every count, witness and row built
    from them is unchanged."""

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_formulas(self, f):
        clauses = f.to_ints()
        assert (_models(clauses, f.universe)
                == reference_models(clauses, f.universe))

    @settings(max_examples=100, deadline=None)
    @given(binary_heavy_formulas())
    def test_binary_heavy_formulas(self, f):
        clauses = f.to_ints()
        assert (_models(clauses, f.universe)
                == reference_models(clauses, f.universe))

    @settings(max_examples=300, deadline=None)
    @given(unit_heavy_clauses())
    # The root's units conflict only through propagation; repeat each
    # other and satisfy a clause before its cut could make a unit; are
    # every clause.
    @example(([(1,), (-1, 2), (-2,)], (2, 1)))
    @example(([(1,), (1,), (1, 2), (-2, 3)], (3, 1, 2)))
    @example(([(3,), (-1,), (2,), (3,)], (1, 3, 2)))
    def test_unit_heavy_clauses(self, case):
        clauses, over = case
        assert _models(clauses, over) == reference_models(clauses, over)

    @settings(max_examples=200, deadline=None)
    @given(long_clause_formulas())
    def test_long_clause_formulas(self, f):
        clauses = f.to_ints()
        assert (_models(clauses, f.universe)
                == reference_models(clauses, f.universe))


class TestBlockSearchAgainstReference:
    """``_search`` with a block stops the very frames, in the very order,
    with the very clauses left, as the reference that re-scans every
    clause left to stop a frame and to choose its branch variable."""

    @staticmethod
    def _check(f, block):
        clauses = f.to_ints()
        frames = [(bits, fixed, [c for c in slots if c])
                  for bits, fixed, slots in _search(clauses, f.universe, block)]
        assert frames == reference_models(clauses, f.universe, block)

    @settings(max_examples=200, deadline=None)
    @given(formulas_with_blocks(formulas()))
    def test_formulas(self, case):
        self._check(*case)

    @settings(max_examples=100, deadline=None)
    @given(formulas_with_blocks(binary_heavy_formulas()))
    def test_binary_heavy_formulas(self, case):
        self._check(*case)

    @settings(max_examples=150, deadline=None)
    @given(formulas_with_blocks(long_clause_formulas()))
    def test_long_clause_formulas(self, case):
        self._check(*case)


class TestBitHelpers:
    @given(st.integers(1, 12), st.data())
    def test_projection_masks(self, n, data):
        index = data.draw(st.integers(0, n - 1))
        want = sum(1 << p for p in range(1 << n) if p >> index & 1)
        assert TruthTable.variable(n, index).bits == want
