"""All-solutions enumeration for leaf formulas, and solution gathering.

Every answer comes from one search, ``cnf._search``, which returns the
cubes of a formula: disjoint partial assignments, each standing for every
row that agrees with it.  It is deliberately a different code path from
the dense truth-table evaluation in ``cnf.to_truth_table``, so the two can
cross-check each other.

``_count_and_least`` is the one rule that sums cubes and takes the least
one, and ``cnf._cube_rows`` the one rule that expands them to rows, capped
at ``2**cnf.MAX_ENUM_VARS`` at the first cube past the cap.  The CLI
applies them to the cubes of one search of the root: ``--mode count`` and
``--mode sat`` build no tree, nor does ``--mode allsat --pivot clause``.
A tree's answers come from the same two rules, applied to its cubes
(``_tree_cubes``): the expansion f = sum of phi_i * f|phi_i makes each live
leaf its prefix phi_i joined with the cubes of its cofactor, moved bit
for bit to their root positions.  ``count_and_witness`` takes each leaf's
cubes from the search; ``gather`` reassembles the root-level solution set
of ``--mode allsat --pivot vars`` from per-leaf rows (``solve_leaf``),
each a cube that fixes the leaf's universe.  Both read the live leaves of
a tree (``DecompositionTree.leaves``): of a variable-partition tree, or of
a clause pivot's k orthonormal branches
l1; -l1 l2; ...; -l1 ... -l(k-1) lk (``clause_branch_tree``).  Their
models are disjoint, so counts add and no row is built twice.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .cnf import CnfFormula, SolutionSet, _cube_rows, _model_rows, _models
# Never called here; bench/tracing.py counts calls of ``allsat.substitute``.
from .cnf import substitute  # noqa: F401
from .decompose import DEAD, SOLVABLE, DecompositionTree, TreeNode, WorkItem

__all__ = ["LeafResult", "all_solutions", "count_and_witness", "gather",
           "solve_leaf"]


class LeafResult(namedtuple("LeafResult", "item solutions")):
    """Solutions of one work item, over the item's formula universe."""

    __slots__ = ()
    item: WorkItem
    solutions: SolutionSet

    def __new__(cls, item: WorkItem, solutions: SolutionSet) -> LeafResult:
        if item.formula is None:
            raise ValueError("dead work items have no solutions to report")
        if solutions.over != item.formula.universe:
            raise ValueError("solutions are not over the item's universe")
        return tuple.__new__(cls, (item, solutions))


def all_solutions(formula: CnfFormula) -> SolutionSet:
    """Every satisfying full assignment over the formula's universe.

    The cubes of the backtracking search (``cnf._models``), expanded to
    rows; variables the clauses never touch take both values, so the
    empty formula over k variables yields all 2**k rows.  More than
    ``2**cnf.MAX_ENUM_VARS`` rows raise ``CapacityError``, whatever the
    width.
    """
    universe = formula.universe
    return SolutionSet(universe, _model_rows(formula.to_ints(), universe))


def solve_leaf(item: WorkItem) -> LeafResult:
    """Enumerate one live work item."""
    if item.formula is None:
        raise ValueError("cannot solve a dead work item")
    return LeafResult(item, all_solutions(item.formula))


def _tree_cubes(
    tree: DecompositionTree,
    leaf_cubes: Callable[[TreeNode], Iterable[tuple[int, int]]],
) -> Iterator[tuple[int, int]]:
    """The cubes ``(bits, fixed)`` over the root universe of the live leaves
    of ``tree``, in node order: the expansion f = sum of phi_i * f|phi_i,
    each leaf's prefix phi_i joined with the cubes of its cofactor.

    A trivial leaf is one cube, its prefix.  A solvable leaf's own cubes,
    ``leaf_cubes(leaf)`` over the leaf's universe, are moved bit for bit
    to their root positions and joined with its prefix.  A live leaf's
    prefix and universe partition the root universe, and the live leaves
    partition the root's models, so the cubes are disjoint.
    """
    position = {v: j for j, v in enumerate(tree.root_universe)}
    for leaf in tree.leaves():
        if leaf.status == DEAD:
            continue
        base = fixed = 0
        for v, value in leaf.item.prefix.items():
            bit = 1 << position[v]
            fixed |= bit
            if value:
                base |= bit
        if leaf.status != SOLVABLE:  # trivial: every assignment works
            yield base, fixed
            continue
        # Bit j of a leaf cube is the root bit of its universe's j-th
        # variable; a cube sets bits only where it fixes them.
        targets = [1 << position[v] for v in leaf.item.formula.universe]
        for bits, leaf_fixed in leaf_cubes(leaf):
            root_bits, root_fixed = base, fixed
            for j, bit in enumerate(targets):
                if leaf_fixed >> j & 1:
                    root_fixed |= bit
                    if bits >> j & 1:
                        root_bits |= bit
            yield root_bits, root_fixed


def _count_and_least(cubes: Iterable[tuple[int, int]], width: int
                     ) -> tuple[int, int | None]:
    """The model count over ``width`` variables of disjoint cubes ``(bits,
    fixed)``, and their least row (None when there is no cube): the least
    cube's ``bits``, its free bits 0."""
    count = 0
    least = None
    for bits, fixed in cubes:
        count += 1 << width - fixed.bit_count()
        if least is None or bits < least:
            least = bits
    return count, least


def count_and_witness(tree: DecompositionTree) -> tuple[int, int | None]:
    """The root formula's model count and its least model, as a row over
    the root universe (None when there is none): ``_count_and_least`` of
    the tree's cubes, each solvable leaf's from the search (``_models``).

    No rows are built, so neither the count nor the size of the root
    universe is capped.
    """
    def leaf_cubes(leaf: TreeNode) -> list[tuple[int, int]]:
        formula = leaf.item.formula
        return _models(formula.to_ints(), formula.universe)

    return _count_and_least(_tree_cubes(tree, leaf_cubes),
                            len(tree.root_universe))


def gather(
    tree: DecompositionTree, leaf_results: Iterable[LeafResult]
) -> SolutionSet:
    """Merge per-leaf solutions into the root-universe solution set.

    Every solvable node of ``tree.leaves()`` must appear in
    ``leaf_results`` (order and duplicates are irrelevant); trivial nodes
    need no result, their unconstrained variables are expanded directly.
    Each leaf row is a cube that fixes the leaf's universe, and the
    tree's cubes (``_tree_cubes``) are expanded to root rows by
    ``cnf._cube_rows``, the rule that expands the one search's cubes: the
    live leaves are disjoint, so exactly the rows of the result are built.
    A tree with no live leaf gathers to the empty set.  Once the rows
    pass ``2**cnf.MAX_ENUM_VARS``, ``CapacityError`` is raised at the
    first cube past the cap, stated as powers of two.
    """
    by_item: dict[WorkItem, SolutionSet] = {}
    for result in leaf_results:
        by_item[result.item] = result.solutions

    def leaf_cubes(leaf: TreeNode) -> list[tuple[int, int]]:
        solutions = by_item.get(leaf.item)
        if solutions is None:
            raise ValueError(
                f"missing result for solvable leaf {leaf.node_id}")
        full = (1 << len(solutions.over)) - 1
        return [(row, full) for row in solutions.rows]

    root = tree.root_universe
    return SolutionSet(root, _cube_rows(_tree_cubes(tree, leaf_cubes),
                                        len(root), "output"))
