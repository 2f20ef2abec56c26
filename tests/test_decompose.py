"""Clause-pivot and variable-partition decomposition, plus the cost model."""

import itertools
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from cofsat import (
    CapacityError,
    Clause,
    CnfFormula,
    PartialAssignment,
    WorkItem,
    all_solutions,
    choose_var_subset,
    clause_branch_tree,
    clause_pivot_decompose,
    emit_dimacs,
    enumerate_c1_assignments,
    estimate_cost,
    gather,
    solve_leaf,
    substitute,
    var_partition_decompose,
)
from cofsat import cli, decompose

from helpers import (brute_force_rows, example2_formula, node_root_rows,
                     random_3cnf_clauses, random_formula,
                     reference_pivot_branches)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


class TestWorkItem:
    def test_prefix_must_be_disjoint_from_universe(self):
        f = CnfFormula([[1, 2]])
        with pytest.raises(ValueError):
            WorkItem(PartialAssignment({1: True}), f, 1)
        with pytest.raises(ValueError,
                           match=r"^prefix binds formula variables \[1\]$"):
            WorkItem(PartialAssignment({1: True}), CnfFormula([[1]]), 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            WorkItem(PartialAssignment(), CnfFormula([]), -1)

    def test_dead_flag(self):
        assert WorkItem(PartialAssignment({1: True}), None, 1).is_dead


class TestClausePivot:
    def test_example2_reduced_formulas_golden(self):
        items = clause_pivot_decompose(example2_formula(), 0)
        blob = ""
        for item in items:
            lits = " ".join(str(v) for v in item.prefix.to_literals())
            blob += f"q {lits} 0\n" + emit_dimacs(item.formula)
        assert blob == (GOLDEN / "example2_reduced.txt").read_text()

    def test_unit_pivot_gives_single_branch(self):
        f = CnfFormula([[1], [1, 2], [-2, 3]])
        items = clause_pivot_decompose(f, 0)
        assert len(items) == 1
        assert items[0].prefix.to_literals() == (1,)

    def test_branch_count_is_2k_minus_1(self):
        f = example2_formula()
        for index in range(4):
            assert len(clause_pivot_decompose(f, index)) == 7

    def test_bad_pivot_index(self):
        for build in (clause_pivot_decompose, cli.clause_pivot_tree,
                      clause_branch_tree):
            for index in (4, -1):
                with pytest.raises(ValueError, match=(
                        f"^pivot index {index} out of range for 4 clauses$")):
                    build(example2_formula(), index)

    def test_dead_branches_are_kept(self):
        f = CnfFormula([[1, 2], [-1], [-2]])
        items = clause_pivot_decompose(f, 0)
        assert [it.is_dead for it in items] == [True, True, True]

    def test_union_of_branches_equals_brute_force(self):
        rng = random.Random(31)
        for _ in range(25):
            f = random_formula(rng, 8, rng.randint(8, 24))
            expected = brute_force_rows(
                [list(c.to_ints()) for c in f.clauses], f.universe)
            pivot = rng.randrange(len(f.clauses))
            tree = clause_branch_tree(f, pivot)
            results = [solve_leaf(n.item) for n in tree.leaves()
                       if n.status == "solvable"]
            got = gather(tree, results)
            assert list(got.rows) == expected

    def test_sat_iff_some_branch_sat(self):
        rng = random.Random(37)
        for _ in range(40):
            f = random_formula(rng, 6, rng.randint(10, 26))
            expected_sat = bool(brute_force_rows(
                [list(c.to_ints()) for c in f.clauses], f.universe))
            items = clause_pivot_decompose(f, rng.randrange(len(f.clauses)))
            branch_sat = any(
                not item.is_dead and all_solutions(item.formula).count > 0
                for item in items)
            assert branch_sat == expected_sat

    def test_tree_serialization_golden(self):
        tree = cli.clause_pivot_tree(example2_formula(), 0)
        assert tree.serialize() == (GOLDEN / "example2_pivot_tree.txt").read_text()

    @pytest.mark.parametrize("index", [0, 3])
    def test_formula_without_clauses_is_one_trivial_leaf(self, index):
        f = CnfFormula([], universe=[1, 2])
        for build in (cli.clause_pivot_tree, clause_branch_tree):
            tree = build(f, index)
            assert [(n.status, n.item.formula) for n in tree.nodes] == [
                ("trivial", f)]
            assert tree.leaves() == list(tree.nodes)
        with pytest.raises(ValueError, match="pivot index 0 out of range"):
            clause_pivot_decompose(f, 0)


@st.composite
def long_pivot_formulas(draw):
    """A random CNF over 1..n, n <= 10, whose first clause has 1 to 8
    literals, followed by up to 8 clauses of 1 to 4 literals."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 10))

    def clauses(low, high):
        return st.lists(st.integers(1, n), min_size=low, max_size=high,
                        unique=True).flatmap(
            lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))

    raw = [draw(clauses(k, k)),
           *draw(st.lists(clauses(1, min(4, n)), max_size=8))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated clauses are merged
        return CnfFormula(raw, universe=range(1, n + 1))


def _branches(items):
    return [(w.prefix.to_literals(), w.formula, w.depth) for w in items]


# A dead parent: every branch that sets x1 falsifies (x1').
_DEAD_PARENT = CnfFormula([[1, 2, 3], [-1]])
# Branches x1 and x2 live, x1 x2 first dead: it falsifies (x1' + x2').
_DEAD_AT_SIZE_2 = CnfFormula([[1, 2, 3], [-1, -2]])
# Under x1 x2 both (x1' + x4) and (x2' + x4) reduce to (x4): the merged
# clause keeps its first place, before (x5 + x6).
_MERGING = CnfFormula([[1, 2, 3], [-1, 4], [5, 6], [-2, 4]])


class TestPivotLattice:
    """``clause_pivot_decompose`` builds each branch from its parent's
    cofactor; it must equal the root substituted by each partial
    assignment in one shot."""

    @settings(max_examples=60, deadline=None)
    @given(f=long_pivot_formulas())
    @example(f=_DEAD_PARENT)
    @example(f=_DEAD_AT_SIZE_2)
    @example(f=_MERGING)
    @example(f=CnfFormula([list(range(1, 9)), [-1, 9], [-2, -9], [-8]]))
    def test_equals_the_one_shot_reference(self, f):
        for index in range(len(f.to_ints())):
            want = reference_pivot_branches(f, index)
            assert _branches(clause_pivot_decompose(f, index)) == \
                _branches(want)
            grown = decompose._grow(f, lambda g, depth: None if depth else [
                (w.prefix, w.formula) for w in want])
            assert cli.clause_pivot_tree(f, index).serialize() == \
                grown.serialize()

    def test_branches_under_a_dead_parent_cost_no_call(self, monkeypatch):
        calls = []
        original = decompose.substitute
        monkeypatch.setattr(decompose, "substitute",
                            lambda f, q: calls.append(q) or original(f, q))
        items = clause_pivot_decompose(_DEAD_PARENT, 0)
        assert [(w.prefix.to_literals(), w.is_dead) for w in items] == [
            ((1,), True), ((2,), False), ((3,), False), ((1, 2), True),
            ((1, 3), True), ((2, 3), False), ((1, 2, 3), True)]
        # x1, x2, x3, then x3 under x2: one call per branch with a live
        # parent, each binding one literal.
        assert calls == [{1: True}, {2: True}, {3: True}, {3: True}]

    def test_a_branch_first_dead_at_size_2(self):
        items = clause_pivot_decompose(_DEAD_AT_SIZE_2, 0)
        assert [w.is_dead for w in items] == [
            False, False, False, True, False, False, True]

    def test_merged_duplicates_keep_their_first_place(self):
        items = clause_pivot_decompose(_MERGING, 0)
        assert items[3].prefix.to_literals() == (1, 2)
        assert items[3].formula.to_ints() == ((4,), (5, 6))


@st.composite
def pivoted_three_cnf(draw):
    """A random 3-CNF over 1..n, 3 <= n <= 12, with at least one clause,
    and the index of a pivot clause."""
    n = draw(st.integers(3, 12))
    clause = st.lists(st.integers(1, n), min_size=3, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, min_size=1, max_size=5 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated clauses are merged
        f = CnfFormula(raw, universe=range(1, n + 1))
    return f, draw(st.integers(0, len(f.to_ints()) - 1))


def _live_leaves(tree):
    return [n for n in tree.leaves() if n.status != "unsat"]


class TestDisjointLeaves:
    @pytest.mark.parametrize("build", [
        clause_branch_tree,
        lambda f, pivot: var_partition_decompose(f, 3),
    ], ids=["clause_branch_tree", "var_partition_decompose"])
    @settings(max_examples=100, deadline=None)
    @given(case=pivoted_three_cnf())
    def test_live_leaves_partition_the_models(self, build, case):
        f, pivot = case
        expected = brute_force_rows(f.to_ints(), f.universe)
        nodes = _live_leaves(build(f, pivot))
        for a, b in itertools.combinations(nodes, 2):
            assert any(b.item.prefix.get(v, value) != value
                       for v, value in a.item.prefix.items())
        per_node = [node_root_rows(node, f.universe) for node in nodes]
        assert sum(map(len, per_node)) == len(expected)
        assert set().union(*per_node) == set(expected)
        for node in nodes:
            assert node.item.formula == substitute(f, node.item.prefix)

    def test_dead_singleton_still_excludes_its_literal(self):
        # F|x1 falsifies (x1'), so branch x1 is dead; the later branches
        # still bind x1 false.  The models are x1' x3, with x2 free.
        f = CnfFormula([[1, 2, 3], [-1], [-2, 3]])
        tree = clause_branch_tree(f, 0)
        assert tree.nodes[1].item.prefix.to_literals() == (1,)
        assert tree.nodes[1].status == "unsat"
        nodes = _live_leaves(tree)
        assert [(n.node_id, n.item.prefix.to_literals(), n.status,
                 n.item.formula.to_ints()) for n in nodes] == [
            (2, (-1, 2), "solvable", ((3,),)),
            (3, (-1, -2, 3), "trivial", ())]
        assert [node_root_rows(n, f.universe) for n in nodes] == [
            [0b110], [0b100]]


def _refined_singletons(f, pivot):
    """The orthonormal branches as the singleton branches of
    ``clause_pivot_decompose``, each reduced once more by the negations of
    the literals before it: (id, prefix, formula) of the live ones."""
    out = []
    negated = {}
    singletons = [item for item in clause_pivot_decompose(f, pivot)
                  if len(item.prefix) == 1]
    for node_id, item in enumerate(singletons, start=1):
        (var, value), = item.prefix.items()
        if not item.is_dead:
            reduced = substitute(item.formula, negated)
            if reduced is not None:
                out.append((node_id, {**negated, var: value}, reduced))
        negated[var] = not value
    return out


def _mixed_formula(rng, n):
    """Random 3-CNF over 1..n plus a few 1- and 2-literal clauses, so that
    some pivot branches die."""
    clauses = random_3cnf_clauses(rng, n, rng.randint(1, 3 * n))
    for _ in range(rng.randint(0, 3)):
        vs = rng.sample(range(1, n + 1), rng.randint(1, 2))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated clauses are merged
        return CnfFormula(clauses, universe=range(1, n + 1))


class TestClauseBranchTree:
    def test_matches_pivot_tree_and_refined_singletons(self):
        rng = random.Random(151)
        dead = 0
        for _ in range(60):
            f = _mixed_formula(rng, rng.randint(3, 8))
            expected = len(brute_force_rows(f.to_ints(), f.universe))
            for pivot in range(len(f.to_ints())):
                tree = clause_branch_tree(f, pivot)
                lits = f.to_ints()[pivot]
                assert [(n.node_id, n.parent, n.item.depth)
                        for n in tree.nodes] == [
                    (0, -1, 0), *((i, 0, 1) for i in range(1, len(lits) + 1))]
                assert [n.item.prefix.to_literals() for n in tree.nodes[1:]] \
                    == [(*(-x for x in lits[:i]), lits[i])
                        for i in range(len(lits))]
                live = _live_leaves(tree)
                dead += len(tree.nodes) - 1 - len(live)
                assert [(n.node_id, dict(n.item.prefix), n.item.formula)
                        for n in live] == _refined_singletons(f, pivot)
                per_node = [node_root_rows(n, f.universe) for n in live]
                assert sum(map(len, per_node)) == expected
        assert dead > 0

    def test_dead_nodes_keep_their_prefix(self):
        # F|x1 falsifies (x1'): branch 1 dies; -x1 x2 kills (x2') too.
        f = CnfFormula([[1, 2, 3], [-1], [-2, 4]], universe=range(1, 5))
        tree = clause_branch_tree(f, 0)
        assert [(n.item.prefix.to_literals(), n.status, n.item.formula)
                for n in tree.leaves()] == [
            ((1,), "unsat", None),
            ((-1, 2), "solvable", CnfFormula([[4]], universe=[3, 4])),
            ((-1, -2, 3), "trivial", CnfFormula([], universe=[4]))]

    def test_pivot_tree_builds_its_branches_on_demand(self, monkeypatch):
        # The printed tree substitutes once per branch of the 3-literal
        # pivot and serializing it substitutes nothing; the tree that
        # solving reads is built on its own, one substitute per branch.
        calls = []
        original = decompose.substitute
        monkeypatch.setattr(decompose, "substitute",
                            lambda f, q: calls.append(q) or original(f, q))
        tree = cli.clause_pivot_tree(example2_formula(), 0)
        assert len(calls) == 7
        tree.serialize()
        assert len(calls) == 7
        clause_branch_tree(example2_formula(), 0)
        assert len(calls) == 10

    def test_demo_output_unchanged(self):
        demo = "04_decomposing_a_formula"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            ROOT / "demos" / "expected" / f"{demo}.txt").read_text()


class TestChooseVarSubset:
    def test_example2_n0_2_locked(self):
        # Every clause has three literals: x4 occurs in all four, x1 and x3
        # in three each, and that tie falls to the smaller id.
        assert choose_var_subset(example2_formula(), 2) == (1, 4)

    def test_most_2_literal_occurrences_win(self):
        f = CnfFormula([[1, 2], [1, -2], [-1, 2], [3, 4]])
        assert choose_var_subset(f, 2) == (1, 2)

    def test_unit_coverage_beats_tiebreak(self):
        f = CnfFormula([[5], [5, 6], [6, 7]])
        assert choose_var_subset(f, 1) == (5,)

    def test_one_unit_outweighs_more_2_literal_clauses(self):
        f = CnfFormula([[7], [-7, 1, 2], [1, 3], [1, 4], [1, 5]])
        assert choose_var_subset(f, 1) == (7,)

    def test_2_literal_clauses_outweigh_longer_ones(self):
        f = CnfFormula([[1, 2], [3, 4, 5], [3, 4, -5], [3, -4, 5]])
        assert choose_var_subset(f, 1) == (1,)

    def test_ties_take_smallest_id(self):
        f = CnfFormula([[7, 8], [5, 6]])
        assert choose_var_subset(f, 1) == (5,)

    def test_block_capped_by_universe(self):
        f = CnfFormula([[1, 2]])
        assert choose_var_subset(f, 10) == (1, 2)

    def test_block_drawn_from_held_variables_only(self):
        # x1-x4 and x7 occur in no clause: splitting on them would copy
        # the formula unchanged into both cofactors.
        f = CnfFormula([[5, 6]], universe=range(1, 8))
        assert choose_var_subset(f, 3) == (5, 6)

    def test_bad_n0(self):
        with pytest.raises(ValueError):
            choose_var_subset(example2_formula(), 0)


class TestEnumerateC1:
    def test_no_clauses_means_all_assignments(self):
        got = enumerate_c1_assignments([], (1, 2))
        assert [q.to_literals() for q in got] == [
            (-1, -2), (1, -2), (-1, 2), (1, 2)]

    def test_contradictory_units_unsat(self):
        assert enumerate_c1_assignments([Clause([1]), Clause([-1])], (1,)) == []

    def test_single_clause(self):
        got = enumerate_c1_assignments([Clause([1, -2])], (1, 2))
        assert [q.to_literals() for q in got] == [(-1, -2), (1, -2), (1, 2)]

    def test_stray_vars_rejected(self):
        with pytest.raises(ValueError):
            enumerate_c1_assignments([Clause([1, 3])], (1, 2))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_c1_assignments([], range(1, 22))


class TestVarPartition:
    def test_small_formula_is_single_leaf(self):
        f = example2_formula()
        tree = var_partition_decompose(f, 4)
        assert len(tree.nodes) == 1
        assert tree.root.status == "solvable"

    def test_contradictory_units_kill_the_tree(self):
        f = CnfFormula([[1], [-1], [2, 3], [3, 4], [-2, 4], [1, 4, 5]],
                       universe=range(1, 6))
        tree = var_partition_decompose(f, 2)
        assert all(n.status == "unsat" for n in tree.leaves())
        assert gather(tree, []).count == 0
        # Dead through its status; the root keeps its formula for
        # root_universe, so its item is not dead.
        assert tree.root.status == "unsat"
        assert tree.root.item.formula == f
        assert not tree.root.item.is_dead

    def test_leaf_bound(self):
        rng = random.Random(43)
        for _ in range(15):
            f = random_formula(rng, 12, 40)
            for n0 in (3, 4, 6):
                tree = var_partition_decompose(f, n0)
                for leaf in tree.leaves():
                    if leaf.status == "solvable":
                        assert len(leaf.item.formula.universe) <= n0
                    if leaf.status != "unsat":
                        prefix_vars = set(leaf.item.prefix)
                        assert prefix_vars.isdisjoint(leaf.item.formula.universe)

    def test_gathered_solutions_match_brute_force(self):
        rng = random.Random(47)
        for _ in range(12):
            f = random_formula(rng, 12, 40)
            expected = brute_force_rows(
                [list(c.to_ints()) for c in f.clauses], f.universe)
            tree = var_partition_decompose(f, 4)
            results = [solve_leaf(n.item) for n in tree.leaves()
                       if n.status == "solvable"]
            assert list(gather(tree, results).rows) == expected

    def test_solve_order_is_irrelevant(self):
        rng = random.Random(53)
        f = random_formula(rng, 10, 24)
        tree = var_partition_decompose(f, 3)
        results = [solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"]
        baseline = gather(tree, results)
        for _ in range(5):
            shuffled = results[:]
            rng.shuffle(shuffled)
            assert gather(tree, shuffled) == baseline

    def test_dead_branches_really_are_dead(self):
        rng = random.Random(59)
        checked = 0
        for _ in range(30):
            f = random_formula(rng, 8, 30)
            tree = var_partition_decompose(f, 3)
            for leaf in tree.leaves():
                if leaf.status != "unsat":
                    continue
                checked += 1
                prefix = dict(leaf.item.prefix)
                clauses = [list(c.to_ints()) for c in f.clauses]
                for row in brute_force_rows(clauses, f.universe):
                    assignment = {
                        v: bool(row >> j & 1)
                        for j, v in enumerate(f.universe)}
                    assert any(
                        assignment[v] != value for v, value in prefix.items())
        assert checked > 0

    def test_chain_deeper_than_recursion_limit(self):
        # Unit clauses x1 .. xn at n0=1 peel one variable per level: a chain
        # of n - 1 internal nodes ending in one solvable leaf.
        n = sys.getrecursionlimit() + 100
        f = CnfFormula([[v] for v in range(1, n + 1)])
        tree = var_partition_decompose(f, 1)
        assert len(tree.nodes) == n
        solvable = [leaf for leaf in tree.leaves()
                    if leaf.status == "solvable"]
        assert [leaf.node_id for leaf in solvable] == [n - 1]
        results = [solve_leaf(leaf.item) for leaf in solvable]
        assert gather(tree, results).rows == ((1 << n) - 1,)

    def test_bad_n0(self):
        with pytest.raises(ValueError):
            var_partition_decompose(example2_formula(), 0)


class TestCostEstimate:
    def test_forced_arithmetic(self):
        est = estimate_cost(12, 4, 2, 1)
        assert (est.depth, est.remainder, est.total_time) == (3, 0, 11)

    def test_remainder(self):
        est = estimate_cost(10, 4, 2.0, 1.0)
        assert (est.depth, est.remainder) == (2, 2)
        assert est.total_time == 6.0

    def test_degenerate_depth(self):
        est = estimate_cost(3, 5, 7.0, 9.0)
        assert (est.depth, est.remainder, est.total_time) == (0, 3, 1.0)

    def test_exact_with_fractions(self):
        est = estimate_cost(9, 3, Fraction(3, 2), Fraction(1, 4))
        assert est.total_time == Fraction(27, 8) + 3 * Fraction(1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_cost(-1, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_cost(3, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_cost(3, 1, -1.0, 1.0)


class TestSerialization:
    def test_var_partition_round_readable(self):
        f = example2_formula()
        tree = var_partition_decompose(f, 2)
        text = tree.serialize()
        lines = text.strip().split("\n")
        assert len(lines) == len(tree.nodes)
        assert lines[0].startswith("0 -1 0 internal q 0")
        # every solvable leaf line carries its universe and clause block
        for node, line in zip(tree.nodes, lines):
            if node.status == "solvable":
                assert " u " in line and " c " in line
