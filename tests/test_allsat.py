"""Enumerating leaf solver and gathering."""

import io
import random
import re

import pytest

from cofsat import (
    CapacityError,
    CnfFormula,
    LeafResult,
    PartialAssignment,
    SolutionSet,
    WorkItem,
    all_solutions,
    clause_branch_tree,
    count_and_witness,
    gather,
    solve_leaf,
    to_truth_table,
    var_partition_decompose,
)
from cofsat import cli, cnf
from cofsat.cli import EXIT_SAT, RunConfig, run
from cofsat.decompose import DecompositionTree, TreeNode

from helpers import brute_force_rows, example2_formula, random_formula


class TestAllSolutions:
    def test_contradictory_units(self):
        f = CnfFormula([[3], [-3]])
        assert all_solutions(f).count == 0

    def test_row4_formula(self):
        # (z+w')(z'+w') over {z,w}: exactly z=0 w=0 and z=1 w=0
        f = CnfFormula([[3, -4], [-3, -4]], universe=[3, 4])
        s = all_solutions(f)
        assert s.over == (3, 4)
        assert s.rows == (0, 1)

    def test_example2_nine_solutions(self):
        s = all_solutions(example2_formula())
        assert s.count == 9
        assert list(s.rows) == [0, 2, 3, 4, 6, 7, 9, 13, 15]

    def test_empty_formula_all_rows(self):
        f = CnfFormula([], universe=[1, 2, 3])
        assert all_solutions(f).rows == tuple(range(8))

    def test_unconstrained_universe_vars_expand(self):
        f = CnfFormula([[1]], universe=[1, 2])
        assert all_solutions(f).rows == (1, 3)

    def test_capacity(self):
        # The cap counts rows, not variables: 2**21 rows are refused before
        # any is built, and a 21-variable formula with one model expands.
        f = CnfFormula([], universe=range(1, 22))
        with pytest.raises(CapacityError, match=re.escape(
                "enumeration capped at 2**20 rows, formula has at least "
                "2**21 models")):
            all_solutions(f)
        chain = CnfFormula([[1]] + [[-i, i + 1] for i in range(1, 21)])
        assert all_solutions(chain).rows == ((1 << 21) - 1,)

    def test_implication_chain_has_one_solution(self):
        # x1 and x_i -> x_{i+1}: propagation sets all n variables true,
        # past the 20 variables whose every row the cap would allow.
        for n in (20, 30):
            f = CnfFormula([[1]] + [[-i, i + 1] for i in range(1, n)])
            assert all_solutions(f).rows == ((1 << n) - 1,)

    def test_two_sat_matches_independent_oracle(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(6, 10)
            binary = [(a * sa, b * sb) for a in range(1, n + 1)
                      for b in range(a + 1, n + 1)
                      for sa in (1, -1) for sb in (1, -1)]
            clauses = rng.sample(binary, rng.randint(1, 2 * n))
            f = CnfFormula(clauses, universe=range(1, n + 1))
            assert list(all_solutions(f).rows) == brute_force_rows(
                f.to_ints(), range(1, n + 1))

    def test_zero_variable_formula_has_one_solution(self):
        f = CnfFormula([], universe=[])
        s = all_solutions(f)
        assert s.over == () and s.rows == (0,)

    def test_matches_truth_table_oracle(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(3, 10)
            f = random_formula(rng, n, rng.randint(1, 4 * n))
            table = to_truth_table(f)
            assert all_solutions(f).rows == tuple(table.support())

    def test_matches_independent_oracle(self):
        rng = random.Random(67)
        for _ in range(25):
            clauses = [list(c.to_ints()) for c in
                       random_formula(rng, 8, 20).clauses]
            f = CnfFormula(clauses, universe=range(1, 9))
            assert list(all_solutions(f).rows) == brute_force_rows(
                clauses, range(1, 9))


class TestLeafResult:
    def test_rejects_dead_items(self):
        with pytest.raises(ValueError):
            LeafResult(WorkItem(PartialAssignment(), None, 1),
                       SolutionSet([], []))

    def test_rejects_wrong_universe(self):
        item = WorkItem(PartialAssignment(), CnfFormula([[1]]), 0)
        with pytest.raises(ValueError):
            LeafResult(item, SolutionSet([2], [0]))


class TestGather:
    def test_single_trivial_leaf_expands_fully(self):
        root_formula = CnfFormula([], universe=[1, 2])
        root = TreeNode(0, -1, WorkItem(PartialAssignment(), root_formula, 0),
                        "trivial")
        tree = DecompositionTree([root])
        assert gather(tree, []).rows == (0, 1, 2, 3)

    def test_unsat_everywhere_gathers_empty(self):
        f = CnfFormula([[1], [-1], [2, 3]], universe=[1, 2, 3])
        tree = clause_branch_tree(f, 2)
        results = [solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"]
        # branches bind 2 or 3; units on 1 kill each branch during solving
        assert gather(tree, results).count == 0

    def test_all_dead_tree_gathers_empty(self):
        f = CnfFormula([[1, 2], [-1], [-2]], universe=[1, 2])
        tree = clause_branch_tree(f, 0)
        assert all(n.status == "unsat" for n in tree.leaves())
        assert gather(tree, []).count == 0

    def test_example2_clause_pivot(self):
        f = example2_formula()
        tree = clause_branch_tree(f, 0)
        results = [solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"]
        gathered = gather(tree, results)
        assert gathered.over == (1, 2, 3, 4)
        assert list(gathered.rows) == [0, 2, 3, 4, 6, 7, 9, 13, 15]

    def test_missing_result_rejected(self):
        tree = clause_branch_tree(example2_formula(), 0)
        results = [solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"]
        assert len(results) == 2
        for dropped in range(len(results)):
            with pytest.raises(ValueError, match="missing result"):
                gather(tree, results[:dropped] + results[dropped + 1:])

    def test_order_independence(self):
        rng = random.Random(71)
        f = random_formula(rng, 9, 22)
        tree = var_partition_decompose(f, 3)
        results = [solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"]
        baseline = gather(tree, results)
        for _ in range(6):
            rng.shuffle(results)
            assert gather(tree, results) == baseline

    def test_unsat_agreement_both_modes(self):
        rng = random.Random(73)
        seen_unsat = 0
        for _ in range(40):
            f = random_formula(rng, 6, 28)
            expected = brute_force_rows(
                [list(c.to_ints()) for c in f.clauses], f.universe)
            for tree in (clause_branch_tree(f, 0),
                         var_partition_decompose(f, 3)):
                results = [solve_leaf(n.item) for n in tree.leaves()
                           if n.status == "solvable"]
                got = gather(tree, results)
                assert list(got.rows) == expected
            if not expected:
                seen_unsat += 1
        assert seen_unsat > 0

    def test_widening_soundness(self):
        # gathered rows restricted to a live leaf's constrained vars either
        # satisfy that leaf's branch or belong to another branch
        rng = random.Random(79)
        f = random_formula(rng, 10, 26)
        tree = var_partition_decompose(f, 4)
        results = {n.item: solve_leaf(n.item) for n in tree.leaves()
                   if n.status == "solvable"}
        gathered = gather(tree, results.values())
        position = {v: j for j, v in enumerate(gathered.over)}
        live = [n for n in tree.leaves() if n.status != "unsat"]
        for row in gathered.rows:
            assignment = {v: bool(row >> position[v] & 1)
                          for v in gathered.over}
            def row_in_branch(leaf):
                prefix_ok = all(
                    assignment[v] == val for v, val in leaf.item.prefix.items())
                if not prefix_ok:
                    return False
                if leaf.status == "trivial":
                    return True
                sols = results[leaf.item].solutions
                encoded = 0
                for j, v in enumerate(sols.over):
                    if assignment[v]:
                        encoded |= 1 << j
                return encoded in sols.rows
            assert any(row_in_branch(leaf) for leaf in live)

    def test_oversized_output_is_refused(self):
        root_formula = CnfFormula([], universe=range(1, 22))
        root = TreeNode(0, -1, WorkItem(PartialAssignment(), root_formula, 0),
                        "trivial")
        with pytest.raises(CapacityError, match=re.escape(
                "output capped at 2**20 rows, formula has at least 2**21 "
                "models")):
            gather(DecompositionTree([root]), [])

    def test_cap_counts_overlapping_rows_once(self, monkeypatch):
        # One clause (1 2 3) has 14 models over 4 variables: its 7 printed
        # branches hold 38 rows, its 3 orthonormal branches exactly 14.
        monkeypatch.setattr(cnf, "MAX_ENUM_VARS", 4)
        tree = clause_branch_tree(CnfFormula([[1, 2, 3]], universe=range(1, 5)), 0)
        assert gather(tree, []).count == 14
        tree = clause_branch_tree(CnfFormula([[1, 2, 3]], universe=range(1, 6)), 0)
        # 28 models: at least 2**4; the 7 branches' 76 rows would be 2**6.
        with pytest.raises(CapacityError,
                           match=re.escape("formula has at least 2**4 models")):
            gather(tree, [])

    def test_clause_pivot_builds_only_printed_rows(self, tmp_path,
                                                   monkeypatch):
        # (1 2 3 4 5 6) over 16 variables has 2**16 - 2**10 models.  Its 63
        # overlapping branches hold about 681k rows; its 6 orthonormal
        # branches hold exactly the 64,512 that get printed.  allsat reads
        # the branches' cubes from one search of the root and expands them
        # in ``cnf._cube_rows``, which builds every row.
        path = tmp_path / "wide_clause.cnf"
        path.write_text("p cnf 16 1\n1 2 3 4 5 6 0\n")
        cube_rows, built = cnf._cube_rows, []

        def counting_cube_rows(*args):
            rows = cube_rows(*args)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(cli, "_cube_rows", counting_cube_rows)
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode="allsat",
                               pivot_strategy="clause"), out=out, err=err)
        assert (status, err.getvalue()) == (EXIT_SAT, "")
        printed = len(out.getvalue().splitlines())
        assert printed == (1 << 16) - (1 << 10)
        assert sum(built) == printed


class TestCountAndWitness:
    def test_matches_gather_on_both_trees(self):
        rng = random.Random(83)

        def formulas():
            for _ in range(30):
                yield random_formula(rng, rng.randint(5, 9), rng.randint(4, 30))
            # Renamed to non-contiguous ids, one more id held by no clause:
            # a leaf's bit j is not root bit j.
            for _ in range(10):
                n = rng.randint(5, 8)
                ids = rng.sample(range(1, 4 * n), n + 1)
                f = random_formula(rng, n, rng.randint(4, 24))
                yield CnfFormula(
                    [[ids[abs(x) - 1] if x > 0 else -ids[abs(x) - 1]
                      for x in c] for c in f.to_ints()], universe=ids)

        for f in formulas():
            want = brute_force_rows(f.to_ints(), f.universe)
            for tree in (clause_branch_tree(f, rng.randrange(len(f.clauses))),
                         var_partition_decompose(f, 3)):
                results = [solve_leaf(n.item) for n in tree.leaves()
                           if n.status == "solvable"]
                rows = gather(tree, results).rows
                assert list(rows) == want
                assert count_and_witness(tree) == (
                    len(rows), rows[0] if rows else None)

    def test_all_dead_tree(self):
        f = CnfFormula([[1, 2], [-1], [-2]], universe=[1, 2])
        assert count_and_witness(clause_branch_tree(f, 0)) == (0, None)

    def test_wide_formula_is_counted_not_enumerated(self):
        # 9/16 of the 2**40 rows; the least model sets only variable 1.
        f = CnfFormula([[1, 2], [-3, 4]], universe=range(1, 41))
        for tree in (clause_branch_tree(f, 0), var_partition_decompose(f, 8)):
            assert count_and_witness(tree) == (9 << 36, 1)
