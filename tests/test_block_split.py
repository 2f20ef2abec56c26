"""Variable-partition trees, gathering and block choice against restated
references.

``var_partition_decompose`` builds each node's children from one split of
its clauses into masks over the block X1, and ``gather`` places each leaf's
rows at their root positions in one scatter.  The references here are the
straightforward algorithms, written in this file: try every X1 assignment
against the clauses inside the block and substitute the whole formula under
each allowed one, extend each leaf's rows by its prefix and then widen
them, and rescan every clause for every candidate variable.
"""

import itertools
import warnings

import hypothesis.strategies as st
from hypothesis import Phase, given, settings

from cofsat import (
    UNSAT,
    CnfFormula,
    DecompositionTree,
    PartialAssignment,
    SolutionSet,
    WorkItem,
    choose_var_subset,
    clause_pivot_tree,
    gather,
    solve_leaf,
    substitute,
    var_partition_decompose,
)
from cofsat.decompose import DEAD, INTERNAL, SOLVABLE, TRIVIAL, TreeNode

MAX_N = 14


@st.composite
def three_cnf(draw):
    """Random 3-CNF over 1..n, n <= 14, up to five clauses per variable;
    repeated clauses are left for the constructor to merge."""
    n = draw(st.integers(3, MAX_N))
    clause = st.lists(st.integers(1, n), min_size=3, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    raw = draw(st.lists(clause, max_size=5 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return CnfFormula(raw, universe=range(1, n + 1))


block_sizes = st.integers(1, 8)


def reference_choose(formula, n0):
    """The greedy block choice as a full rescan: every step scores every
    candidate by the clauses lying inside the block grown by it."""
    var_sets = [{abs(x) for x in c} for c in formula.to_ints()]
    chosen = set()
    while len(chosen) < min(n0, len(formula.universe)):
        best, best_count = None, -1
        for v in formula.universe:
            if v in chosen:
                continue
            count = sum(1 for vs in var_sets if vs <= chosen | {v})
            if count > best_count:
                best, best_count = v, count
        chosen.add(best)
    return tuple(sorted(chosen))


def reference_tree(formula, n0):
    """The tree built by substituting the whole formula under every allowed
    X1 assignment, in ascending bit order over the sorted block, and
    extending the parent's prefix by it."""
    nodes = []

    def status_of(f):
        if f is None:
            return DEAD
        if f.is_empty:
            return TRIVIAL
        return SOLVABLE if len(f.universe) <= n0 else INTERNAL

    def build(item, parent):
        node_id = len(nodes)
        status = status_of(item.formula)
        if status != INTERNAL:
            nodes.append(TreeNode(node_id, parent, item, status))
            return
        x1 = reference_choose(item.formula, n0)
        only_x1 = [c for c in item.formula.to_ints()
                   if {abs(x) for x in c} <= set(x1)]
        allowed = []
        for row in range(1 << len(x1)):
            q = {v: bool(row >> j & 1) for j, v in enumerate(x1)}
            if all(any(q[abs(x)] == (x > 0) for x in c) for c in only_x1):
                allowed.append(q)
        if not allowed:
            nodes.append(TreeNode(node_id, parent, item, DEAD))
            return
        nodes.append(TreeNode(node_id, parent, item, INTERNAL))
        for q in allowed:
            reduced = substitute(item.formula, q)
            build(WorkItem(
                prefix=PartialAssignment({**item.prefix, **q}),
                formula=None if reduced is UNSAT else reduced,
                depth=item.depth + 1), node_id)

    build(WorkItem(PartialAssignment(), formula, 0), -1)
    return DecompositionTree(nodes)


def reference_gather(tree, results):
    """Extend each live leaf's rows by its prefix, then widen them over the
    root variables the branch left unbound."""
    by_item = {r.item: r.solutions for r in results}
    root = tree.root_universe
    rows = set()
    for leaf in tree.leaves():
        if leaf.status == DEAD:
            continue
        solutions = (by_item[leaf.item] if leaf.status == SOLVABLE
                     else SolutionSet((), [0]))
        for row in solutions.rows:
            values = {v: int(b) for v, b in leaf.item.prefix.items()}
            values.update(
                (v, row >> j & 1) for j, v in enumerate(solutions.over))
            free = [v for v in root if v not in values]
            for fill in itertools.product((0, 1), repeat=len(free)):
                values.update(zip(free, fill))
                rows.add(sum(values[v] << j for j, v in enumerate(root)))
    return SolutionSet(root, rows)


class TestBlockSplit:
    # No shrink phase: each shrink step rebuilds two trees, so shrinking a
    # failure here ran for minutes; the generate phase finds it in seconds.
    @settings(max_examples=80, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(three_cnf(), block_sizes)
    def test_tree_matches_substitute_reference(self, f, n0):
        got = var_partition_decompose(f, n0).serialize()
        assert got == reference_tree(f, n0).serialize()

    @settings(max_examples=60, deadline=None)
    @given(three_cnf(), block_sizes)
    def test_prefixes_are_canonical(self, f, n0):
        for node in var_partition_decompose(f, n0).nodes:
            prefix = node.item.prefix
            rebuilt = PartialAssignment(dict(prefix))
            assert prefix == rebuilt and hash(prefix) == hash(rebuilt)
            assert list(prefix) == sorted(prefix)
            assert all(type(value) is bool for _, value in prefix.items())
            assert not set(prefix) & set(node.item.formula.universe)

    @settings(max_examples=60, deadline=None)
    @given(three_cnf(), block_sizes, st.randoms(use_true_random=False))
    def test_gather_matches_patch_then_widen(self, f, n0, rnd):
        trees = [var_partition_decompose(f, n0)]
        if not f.is_empty:
            trees.append(clause_pivot_tree(
                f, rnd.randrange(len(f.to_ints()))))
        for tree in trees:
            # gather reads the disjoint leaves; the reference widens every
            # printed leaf, which on a clause pivot are the 2**k - 1
            # overlapping branches.
            results = [solve_leaf(n.item) for n in tree.disjoint_leaves()
                       if n.status == "solvable"]
            rnd.shuffle(results)
            printed = [solve_leaf(n.item) for n in tree.leaves()
                       if n.status == "solvable"]
            assert gather(tree, results) == reference_gather(tree, printed)

    @settings(max_examples=200, deadline=None)
    @given(three_cnf(), block_sizes)
    def test_choose_matches_full_rescan(self, f, n0):
        assert choose_var_subset(f, n0) == reference_choose(f, n0)
