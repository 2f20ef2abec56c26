"""All-solutions enumeration for leaf formulas, and solution gathering.

Every answer comes from one search, ``cnf._models``, which returns the
cubes of a formula: disjoint partial assignments, each standing for every
row that agrees with it.  It is deliberately a different code path from
the dense truth-table evaluation in ``cnf.to_truth_table``, so the two can
cross-check each other.

Both read a tree through ``DecompositionTree.disjoint_leaves``: the live
leaves of a variable-partition tree, or the k orthonormal branches l1;
-l1 l2; ...; -l1 ... -l(k-1) lk that refine the singleton branches of a
clause pivot.  Their models are disjoint, so counts add and no row is
built twice.  ``count_and_witness`` adds up cube counts and takes the
least root row, building no rows.  ``all_solutions`` and ``solve_leaf``
expand a formula's cubes to rows, and ``gather`` reassembles the
root-level solution set from those per-leaf rows: each leaf's rows are
moved to their root positions together with the leaf's prefix in one bit
scatter, widened over any variables the branch left unconstrained, then
sorted into one canonical set.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .boolfn import CapacityError
from .cnf import (MAX_ENUM_VARS, CnfFormula, SolutionSet, _model_rows,
                  _models, _scatter)
# Never called here; bench/tracing.py counts calls of ``allsat.substitute``.
from .cnf import substitute  # noqa: F401
from .decompose import SOLVABLE, DecompositionTree, TreeNode, WorkItem

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
    ``cnf.MAX_ENUM_VARS`` variables raise ``CapacityError``.
    """
    universe = formula.universe
    return SolutionSet(universe, _model_rows(formula.to_ints(), universe))


def solve_leaf(item: WorkItem) -> LeafResult:
    """Enumerate one live work item."""
    if item.formula is None:
        raise ValueError("cannot solve a dead work item")
    return LeafResult(item, all_solutions(item.formula))


def _placement(
    position: dict[int, int], leaf: TreeNode
) -> tuple[int, list[int], list[int]]:
    """``(base, targets, free)`` of a live leaf, given each root variable's
    bit ``position``.

    A leaf row over the leaf's universe becomes a root row by moving bit j
    to bit ``targets[j]`` and OR-ing in ``base``, the prefix's true bits;
    the root positions in ``free`` are bound by neither the prefix nor the
    leaf, so each leaf row stands for ``2**len(free)`` root rows.  A
    trivial leaf has no targets: its whole universe is free.
    """
    prefix = leaf.item.prefix
    over = leaf.item.formula.universe if leaf.status == SOLVABLE else ()
    base = 0
    for v, value in prefix.items():
        if value:
            base |= 1 << position[v]
    bound = set(prefix)
    bound.update(over)
    free = [j for v, j in position.items() if v not in bound]
    return base, [position[v] for v in over], free


def count_and_witness(tree: DecompositionTree) -> tuple[int, int | None]:
    """The root formula's model count and its least model, as a row over
    the root universe (None when there is none), from the cubes of the
    tree's disjoint leaves.

    No rows are built, so neither the count nor the size of the root
    universe is capped.  A leaf's least row is its least cube's ``bits``
    (free bits 0); the map from leaf rows to root rows keeps their order,
    so the least of the mapped leaf minima is the root's least row.
    """
    position = {v: j for j, v in enumerate(tree.root_universe)}
    count = 0
    least = None
    for leaf in tree.disjoint_leaves():
        if leaf.status == SOLVABLE:
            formula = leaf.item.formula
            cubes = _models(formula.to_ints(), formula.universe)
            if not cubes:
                continue
            width = len(formula.universe)
            leaf_count = sum(1 << width - fixed.bit_count()
                             for _, fixed in cubes)
            least_bits = min(bits for bits, _ in cubes)
        else:  # trivial: every assignment over the leaf universe works
            leaf_count, least_bits = 1, 0
        base, targets, free = _placement(position, leaf)
        count += leaf_count << len(free)
        row = _scatter((least_bits,), targets, (), base)[0]
        if least is None or row < least:
            least = row
    return count, least


def gather(
    tree: DecompositionTree, leaf_results: Iterable[LeafResult]
) -> SolutionSet:
    """Merge per-leaf solutions into the root-universe solution set.

    Every solvable node of ``tree.disjoint_leaves()`` must appear in
    ``leaf_results`` (order and duplicates are irrelevant); trivial nodes
    need no result, their unconstrained variables are expanded directly.
    Those nodes are disjoint, so exactly the rows of the result are built.
    A tree with no live leaf gathers to the empty set.  The size of the
    result is counted from the leaves' row counts first: more than
    ``2**cnf.MAX_ENUM_VARS`` rows raise ``CapacityError`` before any root
    row is built.
    """
    by_item: dict[WorkItem, SolutionSet] = {}
    for result in leaf_results:
        by_item[result.item] = result.solutions
    position = {v: j for j, v in enumerate(tree.root_universe)}
    placed = []
    total = 0
    for leaf in tree.disjoint_leaves():
        if leaf.status == SOLVABLE:
            solutions = by_item.get(leaf.item)
            if solutions is None:
                raise ValueError(
                    f"missing result for solvable leaf {leaf.node_id}")
            if not solutions.rows:
                continue
            leaf_rows = solutions.rows
        else:  # trivial: every assignment over the leaf universe works
            leaf_rows = (0,)
        base, targets, free = _placement(position, leaf)
        total += len(leaf_rows) << len(free)
        placed.append((leaf_rows, targets, free, base))
    if total > 1 << MAX_ENUM_VARS:
        raise CapacityError(
            f"output capped at {1 << MAX_ENUM_VARS} rows, formula has "
            f"{total} models")
    rows: list[int] = []
    for leaf_rows, targets, free, base in placed:
        rows.extend(_scatter(leaf_rows, targets, free, base))
    return SolutionSet(tree.root_universe, rows)
