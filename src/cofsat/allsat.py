"""All-solutions enumeration for leaf formulas, and solution gathering.

Every answer comes from one search, ``cnf._search``, which returns the
cubes of a formula: disjoint partial assignments, each standing for every
row that agrees with it.  It is deliberately a different code path from
the dense truth-table evaluation in ``cnf.to_truth_table``, so the two can
cross-check each other.

``_count_and_least`` is the one rule that sums cubes and takes the least
one.  The CLI applies it to the cubes of one search of the root, for
``--mode count`` and ``--mode sat``, which build no tree; ``--mode allsat
--pivot clause`` expands the same cubes to rows (``cnf._cube_rows``).
``count_and_witness`` applies it to each live leaf of a tree and maps the
leaf minima to root rows.  ``all_solutions`` and ``solve_leaf`` expand a
formula's cubes to rows, and ``gather`` reassembles the root-level
solution set of ``--mode allsat --pivot vars`` from those per-leaf rows:
each leaf's rows are moved to their root positions together with the
leaf's prefix in one bit scatter, widened over any variables the branch
left unconstrained, then sorted into one canonical set.  Both read the
live leaves of a tree (``DecompositionTree.leaves``): of a
variable-partition tree, or of a clause pivot's k orthonormal branches
l1; -l1 l2; ...; -l1 ... -l(k-1) lk (``clause_branch_tree``).  Their
models are disjoint, so counts add and no row is built twice.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .cnf import (MAX_ENUM_VARS, CnfFormula, SolutionSet, _model_rows,
                  _models, _scatter)
# Never called here; bench/tracing.py counts calls of ``allsat.substitute``.
from .cnf import substitute  # noqa: F401
from .decompose import DEAD, SOLVABLE, DecompositionTree, TreeNode, WorkItem
from .limits import CapacityError

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


def _placed_leaves(
    tree: DecompositionTree, read: Callable[[TreeNode], object]
) -> Iterator[tuple[object, int, list[int], list[int]]]:
    """``(read(leaf), base, targets, free)`` for each live leaf of ``tree``
    that ``read`` does not map to None (a leaf without models), in node
    order.

    A live leaf's prefix and universe partition the root universe.  A leaf
    row over the leaf's universe becomes a root row by moving bit j to bit
    ``targets[j]`` and OR-ing in ``base``, the prefix's true bits; so a
    solvable leaf leaves no root position ``free``.  A trivial leaf has no
    targets: its whole universe is free, and its one row stands for
    ``2**len(free)`` root rows.
    """
    position = {v: j for j, v in enumerate(tree.root_universe)}
    for leaf in tree.leaves():
        if leaf.status == DEAD:
            continue
        value = read(leaf)
        if value is None:
            continue
        base = 0
        for v, bit in leaf.item.prefix.items():
            if bit:
                base |= 1 << position[v]
        over = [position[v] for v in leaf.item.formula.universe]
        if leaf.status == SOLVABLE:
            yield value, base, over, []
        else:
            yield value, base, [], over


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
    the root universe (None when there is none), from the cubes of the
    tree's live leaves.

    No rows are built, so neither the count nor the size of the root
    universe is capped.  A leaf's least row is its least cube's ``bits``
    (free bits 0); the map from leaf rows to root rows keeps their order,
    so the least of the mapped leaf minima is the root's least row.
    """
    def count_and_least(leaf: TreeNode) -> tuple[int, int] | None:
        if leaf.status != SOLVABLE:  # trivial: every assignment works
            return 1, 0
        universe = leaf.item.formula.universe
        count, least = _count_and_least(
            _models(leaf.item.formula.to_ints(), universe), len(universe))
        return None if least is None else (count, least)

    count = 0
    least = None
    for (leaf_count, least_bits), base, targets, free in _placed_leaves(
            tree, count_and_least):
        count += leaf_count << len(free)
        row = _scatter((least_bits,), targets, (), base)[0]
        if least is None or row < least:
            least = row
    return count, least


def gather(
    tree: DecompositionTree, leaf_results: Iterable[LeafResult]
) -> SolutionSet:
    """Merge per-leaf solutions into the root-universe solution set.

    Every solvable node of ``tree.leaves()`` must appear in
    ``leaf_results`` (order and duplicates are irrelevant); trivial nodes
    need no result, their unconstrained variables are expanded directly.
    Those nodes are disjoint, so exactly the rows of the result are built.
    A tree with no live leaf gathers to the empty set.  The size of the
    result is counted from the leaves' row counts first: more than
    ``2**cnf.MAX_ENUM_VARS`` rows raise ``CapacityError`` before any root
    row is built, stated as powers of two.
    """
    by_item: dict[WorkItem, SolutionSet] = {}
    for result in leaf_results:
        by_item[result.item] = result.solutions

    def rows_of(leaf: TreeNode) -> tuple[int, ...] | None:
        if leaf.status != SOLVABLE:  # trivial: every assignment works
            return (0,)
        solutions = by_item.get(leaf.item)
        if solutions is None:
            raise ValueError(
                f"missing result for solvable leaf {leaf.node_id}")
        return solutions.rows or None

    placed = list(_placed_leaves(tree, rows_of))
    total = sum(len(leaf_rows) << len(free)
                for leaf_rows, _, _, free in placed)
    if total > 1 << MAX_ENUM_VARS:
        # As powers of two: the interpreter writes no int of more than
        # sys.get_int_max_str_digits() decimal digits.
        raise CapacityError(
            f"output capped at 2**{MAX_ENUM_VARS} rows, formula has at "
            f"least 2**{total.bit_length() - 1} models")
    rows: list[int] = []
    for leaf_rows, base, targets, free in placed:
        rows.extend(_scatter(leaf_rows, targets, free, base))
    return SolutionSet(tree.root_universe, rows)
