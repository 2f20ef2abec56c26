"""Clause-pivot and variable-partition decomposition, plus the cost model."""

import itertools
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cofsat import (
    CapacityError,
    Clause,
    CnfFormula,
    PartialAssignment,
    WorkItem,
    all_solutions,
    choose_var_subset,
    clause_pivot_decompose,
    clause_pivot_tree,
    emit_dimacs,
    enumerate_c1_assignments,
    estimate_cost,
    gather,
    solve_leaf,
    substitute,
    var_partition_decompose,
)

from helpers import brute_force_rows, example2_formula, random_formula

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
        with pytest.raises(ValueError):
            clause_pivot_decompose(example2_formula(), 4)
        with pytest.raises(ValueError):
            clause_pivot_decompose(example2_formula(), -1)

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
            tree = clause_pivot_tree(f, pivot)
            results = [solve_leaf(n.item) for n in tree.disjoint_leaves()
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
        tree = clause_pivot_tree(example2_formula(), 0)
        assert tree.serialize() == (GOLDEN / "example2_pivot_tree.txt").read_text()

    def test_branches_are_marked_overlapping(self):
        f = example2_formula()
        assert clause_pivot_tree(f, 0).overlapping
        assert not var_partition_decompose(f, 2).overlapping

    @pytest.mark.parametrize("index", [0, 3])
    def test_formula_without_clauses_is_one_trivial_leaf(self, index):
        f = CnfFormula([], universe=[1, 2])
        tree = clause_pivot_tree(f, index)
        assert [(n.status, n.item.formula) for n in tree.nodes] == [
            ("trivial", f)]
        assert not tree.overlapping
        with pytest.raises(ValueError, match="pivot index 0 out of range"):
            clause_pivot_decompose(f, 0)


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


def _root_rows(node, root):
    """Rows over ``root`` of one live node: its prefix, each brute-force
    model of its clauses, and both values of every variable left over."""
    formula = node.item.formula
    values = {v: int(b) for v, b in node.item.prefix.items()}
    free = [v for v in root
            if v not in values and v not in formula.universe]
    rows = []
    for leaf_row in brute_force_rows(formula.to_ints(), formula.universe):
        values.update((v, leaf_row >> j & 1)
                      for j, v in enumerate(formula.universe))
        for fill in itertools.product((0, 1), repeat=len(free)):
            values.update(zip(free, fill))
            rows.append(sum(values[v] << j for j, v in enumerate(root)))
    return rows


class TestDisjointLeaves:
    @settings(max_examples=100, deadline=None)
    @given(pivoted_three_cnf())
    def test_clause_branches_partition_the_models(self, case):
        f, pivot = case
        expected = brute_force_rows(f.to_ints(), f.universe)
        k = len(f.to_ints()[pivot])
        nodes = clause_pivot_tree(f, pivot).disjoint_leaves()
        assert len(nodes) <= k
        for a, b in itertools.combinations(nodes, 2):
            assert any(b.item.prefix.get(v, value) != value
                       for v, value in a.item.prefix.items())
        per_node = [_root_rows(node, f.universe) for node in nodes]
        assert sum(map(len, per_node)) == len(expected)
        assert set().union(*per_node) == set(expected)
        for node in nodes:
            assert node.item.formula == substitute(f, node.item.prefix)

    @settings(max_examples=50, deadline=None)
    @given(pivoted_three_cnf())
    def test_variable_partition_gives_its_live_leaves(self, case):
        tree = var_partition_decompose(case[0], 3)
        assert tree.disjoint_leaves() == [
            n for n in tree.leaves() if n.status != "unsat"]

    def test_dead_singleton_still_excludes_its_literal(self):
        # F|x1 falsifies (x1'), so branch x1 is dead; the later branches
        # still bind x1 false.  The models are x1' x3, with x2 free.
        f = CnfFormula([[1, 2, 3], [-1], [-2, 3]])
        tree = clause_pivot_tree(f, 0)
        assert tree.nodes[1].item.prefix.to_literals() == (1,)
        assert tree.nodes[1].status == "unsat"
        nodes = tree.disjoint_leaves()
        assert [(n.node_id, n.item.prefix.to_literals(), n.status,
                 n.item.formula.to_ints()) for n in nodes] == [
            (2, (-1, 2), "solvable", ((3,),)),
            (3, (-1, -2, 3), "trivial", ())]
        assert [_root_rows(n, f.universe) for n in nodes] == [[0b110],
                                                              [0b100]]


class TestChooseVarSubset:
    def test_example2_n0_2_locked(self):
        # no pair covers a clause, so ties fall to the smallest ids
        assert choose_var_subset(example2_formula(), 2) == (1, 2)

    def test_unique_greedy_optimum(self):
        f = CnfFormula([[1, 2], [1, -2], [-1, 2], [3, 4]])
        assert choose_var_subset(f, 2) == (1, 2)

    def test_unit_coverage_beats_tiebreak(self):
        f = CnfFormula([[5], [5, 6], [6, 7]])
        assert choose_var_subset(f, 1) == (5,)

    def test_all_zero_coverage_takes_smallest_id(self):
        f = CnfFormula([[5, 6], [5, 7]])
        assert choose_var_subset(f, 1) == (5,)

    def test_block_capped_by_universe(self):
        f = CnfFormula([[1, 2]])
        assert choose_var_subset(f, 10) == (1, 2)

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
        assert tree.all_dead
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
            results = [solve_leaf(n.item) for n in tree.disjoint_leaves()
                       if n.status == "solvable"]
            assert list(gather(tree, results).rows) == expected

    def test_solve_order_is_irrelevant(self):
        rng = random.Random(53)
        f = random_formula(rng, 10, 24)
        tree = var_partition_decompose(f, 3)
        results = [solve_leaf(n.item) for n in tree.disjoint_leaves()
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
        solvable = [leaf for leaf in tree.disjoint_leaves()
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
