#!/usr/bin/env python3
"""End to end: decompose, solve the leaves, gather, cross-check.

Work items are immutable and self-contained, so they are independent:
``parallel_leaf_solve`` solves them one after another on the calling thread
(a thread pool measured slower, because the pure-Python leaf search holds
the GIL).  Gathering joins each leaf's rows with its branch prefix as
cubes over the root universe, expands variables the branch never
constrained, and canonicalizes, so the result does not depend on the
order in which the leaves were solved.
"""

import random

from cofsat import (
    CnfFormula,
    emit_dimacs,
    gather,
    to_truth_table,
    var_partition_decompose,
)
from cofsat.cli import parallel_leaf_solve


def random_3cnf(rng, num_vars, num_clauses):
    clauses = set()
    while len(clauses) < num_clauses:
        vars_ = rng.sample(range(1, num_vars + 1), 3)
        clauses.add(frozenset(
            v if rng.random() < 0.5 else -v for v in vars_))
    return CnfFormula(
        [sorted(c, key=abs) for c in sorted(clauses, key=sorted)],
        universe=range(1, num_vars + 1))


rng = random.Random(7)
formula = random_3cnf(rng, 10, 28)
print("a random 3-CNF instance:")
print(emit_dimacs(formula))

tree = var_partition_decompose(formula, n0=4)
statuses = [node.status for node in tree.leaves()]
print(f"tree: {len(tree.nodes)} nodes, {len(statuses)} leaves "
      f"({statuses.count('solvable')} solvable, "
      f"{statuses.count('unsat')} dead, {statuses.count('trivial')} trivial)")

results = parallel_leaf_solve(tree, 1)
solutions = gather(tree, results)
print(f"{len(results)} leaves solved: {solutions.count} solutions")
print("same set from the leaves in reverse order:",
      gather(tree, results[::-1]) == solutions)

oracle = tuple(to_truth_table(formula).support())
print("matches the dense truth-table oracle:", solutions.rows == oracle)

print("\nfirst few solutions as signed literals:")
for row in solutions.rows[:5]:
    print("  ", solutions.row_to_literals(row))
