"""The variable-partition tree that solving reads:
``var_partition_decompose(..., propagate=True)``.

Each internal node expands over the cubes of X1 that the one search
(``cnf._search`` with the block X1) leaves standing after unit
propagation, not over every X1 row the only-X1 clauses allow.  The search
branches only on block variables that some clause left holds, and a frame
stops once none is held: a block variable that no clause holds stays
unbound, a free variable of the child.  The properties are checked
against the brute-force oracle of ``helpers``, the ``substitute`` of each
parent, and the row tree of the same formula.
"""

import itertools
import warnings

import hypothesis.strategies as st
from hypothesis import example, given, settings

from cofsat import (
    CnfFormula,
    choose_var_subset,
    count_and_witness,
    substitute,
    var_partition_decompose,
)
from cofsat.cnf import _search
from cofsat.decompose import DEAD, INTERNAL, SOLVABLE

from helpers import brute_force_rows, node_root_rows


@st.composite
def small_cnf(draw):
    """Clauses of 1 to 4 literals over 1..n, n <= 10, universe 1..n: unit
    clauses, variables in no clause, formulas without clauses and, with a
    contradictory pair of units, unsatisfiable ones."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return CnfFormula([])
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(4, n),
                      unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=4 * n))
    if draw(st.booleans()) and draw(st.booleans()):
        v = draw(st.integers(1, n))
        raw += [(v,), (-v,)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # repeated clauses are merged
        return CnfFormula(raw, universe=range(1, n + 1))


class TestPropagatedTree:
    @settings(max_examples=200, deadline=None)
    @given(small_cnf(), st.integers(1, 5))
    # Under x1' x2' both clauses reduce to (x3 + x4): one clause, merged.
    @example(CnfFormula([[1, 3, 4], [2, 3, 4]]), 2)
    # Under x1 the clause (x3 + x4) is left and no clause holds x2, so the
    # child leaves x2 unbound.
    @example(CnfFormula([[1, 2], [3, 4]]), 2)
    def test_tree_properties(self, f, n0):
        tree = var_partition_decompose(f, n0, propagate=True)
        nodes = tree.nodes

        live = [n for n in tree.leaves() if n.status != DEAD]
        per_leaf = [node_root_rows(n, f.universe) for n in live]
        expected = brute_force_rows(f.to_ints(), f.universe)
        assert sum(map(len, per_leaf)) == len(expected)
        assert set().union(*per_leaf) == set(expected)

        for leaf in tree.leaves():
            if leaf.status == SOLVABLE:
                assert len(leaf.item.formula.universe) <= n0

        for parent in nodes:
            children = [n for n in nodes if n.parent == parent.node_id]
            assert bool(children) == (parent.status == INTERNAL)
            for a, b in itertools.combinations(children, 2):
                assert any(b.item.prefix.get(v, value) != value
                           for v, value in a.item.prefix.items())
            if not children:
                continue
            x1 = choose_var_subset(parent.item.formula, n0)
            for child in children:
                new = {v: value for v, value in child.item.prefix.items()
                       if v not in parent.item.prefix}
                assert parent.item.prefix.items() <= child.item.prefix.items()
                assert (child.item.formula
                        == substitute(parent.item.formula, new))
                assert child.item.depth == parent.item.depth + 1
                # No clause left holds a block variable the child leaves
                # unbound.
                held = {abs(x) for c in child.item.formula.to_ints()
                        for x in c}
                assert not held & (set(x1) - set(new))

        assert count_and_witness(tree) == count_and_witness(
            var_partition_decompose(f, n0))

    def test_unit_chain_is_one_trivial_leaf(self):
        # The row tree peels one variable per level: 1,100 nodes.
        n = 1100
        f = CnfFormula([[v] for v in range(1, n + 1)])
        tree = var_partition_decompose(f, 1, propagate=True)
        assert [(n.parent, n.status) for n in tree.nodes] == [
            (-1, "internal"), (0, "trivial")]
        assert tree.nodes[1].item.prefix.to_literals() == tuple(
            range(1, n + 1))
        assert count_and_witness(tree) == (1, (1 << n) - 1)

    def test_wide_universe_with_one_unit_has_one_child(self):
        # The row tree builds one trivial child per allowed row of the
        # 8-variable block: 128.
        f = CnfFormula([[1]], universe=range(1, 100_001))
        tree = var_partition_decompose(f, 8, propagate=True)
        assert [n.status for n in tree.nodes] == ["internal", "trivial"]
        assert tree.nodes[1].item.prefix.to_literals() == (1,)
        assert len(tree.nodes[1].item.formula.universe) == 99_999

    def test_refuted_root_is_a_dead_leaf(self):
        f = CnfFormula([[1, 2], [1, -2], [-1, 3], [-1, -3]],
                       universe=range(1, 6))
        tree = var_partition_decompose(f, 1, propagate=True)
        assert [n.status for n in tree.nodes] == [DEAD]


class TestBlockSearch:
    """``cnf._search`` with a block: which variable it branches on and
    where its frames stop."""

    @staticmethod
    def _frames(clauses, over, block):
        return [(bits, fixed, [c for c in slots if c])
                for bits, fixed, slots in _search(clauses, over, block)]

    def test_branches_on_the_block_and_stops_with_no_clause_left(self):
        # No 2-literal clause: branch on the smallest block variable that
        # occurs, x2.  Under x2' the clause keeps x1 x3, and of those only
        # x3 is in the block; x3' then forces x1 through propagation.
        assert self._frames([(1, 2, 3)], (1, 2, 3), (2, 3)) == [
            (0b001, 0b111, []),   # x2' x3' and the propagated x1
            (0b100, 0b110, []),   # x2' x3
            (0b010, 0b010, []),   # x2: no clause left, x3 stays free
        ]

    def test_most_binary_block_variable_first(self):
        # Of the block x2 x3, x3 is in three 2-literal clauses and x2 in
        # one, so x3 is set first: x3' forces x2 and x4, x3 forces x1.
        # Branching on x2 first would give the frame x1 x2' x3 instead.
        frames = self._frames([(2, 3), (3, 4), (1, -3)], (1, 2, 3, 4),
                              (2, 3))
        assert frames == [(0b1010, 0b1110, []), (0b0101, 0b0101, [])]

    def test_block_variable_in_no_clause_is_left_unbound(self):
        # No clause holds x3, so the search never branches on it: one
        # frame binds nothing and keeps the clause, and x3 stays free.
        assert self._frames([(1, 2)], (1, 2, 3), (3,)) == [
            (0, 0, [(1, 2)])]

    def test_whole_universe_block_gives_the_cubes(self):
        clauses = [(1, 2), (-1, 3), (2, -3)]
        frames = list(_search(clauses, (1, 2, 3), (1, 2, 3)))
        assert [(bits, fixed) for bits, fixed, _ in frames] == [
            (bits, fixed) for bits, fixed, _ in _search(clauses, (1, 2, 3))]
        assert all(not any(slots) for _, _, slots in frames)
