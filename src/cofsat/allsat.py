"""All-solutions enumeration for leaf formulas, and solution gathering.

``all_solutions`` is a unit-propagating backtracker intended for the small
leaf formulas a decomposition produces; it is deliberately a different code
path from the dense truth-table evaluation in ``cnf.to_truth_table``, so the
two can cross-check each other.  ``gather`` reassembles a root-level
solution set from per-leaf results: each leaf's rows are moved to their
root positions together with the leaf's prefix in one bit scatter, widened
over any variables the branch left unconstrained, then merged into one
canonical (sorted, deduplicated) set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .cnf import CnfFormula, SolutionSet, _models, _scatter
# Never called here; bench/tracing.py counts calls of ``allsat.substitute``.
from .cnf import substitute  # noqa: F401
from .decompose import DEAD, SOLVABLE, DecompositionTree, WorkItem

__all__ = ["LeafResult", "all_solutions", "gather", "solve_leaf"]


@dataclass(frozen=True)
class LeafResult:
    """Solutions of one work item, over the item's formula universe."""

    item: WorkItem
    solutions: SolutionSet

    def __post_init__(self) -> None:
        if self.item.formula is None:
            raise ValueError("dead work items have no solutions to report")
        if self.solutions.over != self.item.formula.universe:
            raise ValueError("solutions are not over the item's universe")


def all_solutions(formula: CnfFormula) -> SolutionSet:
    """Every satisfying full assignment over the formula's universe.

    Backtracking search (``cnf._models``) that propagates unit clauses and
    branches on the variable in the most 2-literal clauses; variables the
    clauses never touch are expanded to both values.  The
    empty formula over k variables yields all 2**k rows.  More than
    ``cnf.MAX_ENUM_VARS`` variables raise ``CapacityError``.
    """
    universe = formula.universe
    return SolutionSet(universe, _models(formula.to_ints(), universe))


def solve_leaf(item: WorkItem) -> LeafResult:
    """Enumerate one live work item."""
    if item.formula is None:
        raise ValueError("cannot solve a dead work item")
    return LeafResult(item, all_solutions(item.formula))


def gather(
    tree: DecompositionTree, leaf_results: Iterable[LeafResult]
) -> SolutionSet:
    """Merge per-leaf solutions into the root-universe solution set.

    Every solvable leaf must appear in ``leaf_results`` (order and
    duplicates are irrelevant); trivial leaves need no result, their
    unconstrained variables are expanded directly.  Dead leaves contribute
    nothing, so an all-dead tree gathers to the empty set.
    """
    by_item: dict[WorkItem, SolutionSet] = {}
    for result in leaf_results:
        by_item[result.item] = result.solutions
    root_over = tree.root_universe
    position = {v: j for j, v in enumerate(root_over)}
    rows: list[int] = []
    for leaf in tree.leaves():
        if leaf.status == DEAD:
            continue
        if leaf.status == SOLVABLE:
            solutions = by_item.get(leaf.item)
            if solutions is None:
                raise ValueError(
                    f"missing result for solvable leaf {leaf.node_id}")
            if not solutions.rows:
                continue
            over, leaf_rows = solutions.over, solutions.rows
        else:  # trivial: every assignment over the leaf universe works
            over, leaf_rows = (), (0,)
        prefix = leaf.item.prefix
        bound = set(prefix)
        # Place the leaf's bits and the prefix's true bits at their root
        # positions; root variables bound by neither take both values.
        base = 0
        for v, value in prefix.items():
            if value:
                base |= 1 << position[v]
        bound.update(over)
        free = [position[v] for v in root_over if v not in bound]
        rows.extend(_scatter(leaf_rows, [position[v] for v in over], free, base))
    return SolutionSet(root_over, rows)
