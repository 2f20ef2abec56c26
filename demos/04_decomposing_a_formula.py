#!/usr/bin/env python3
"""Splitting a CNF formula into independent subproblems.

Clause-pivot mode branches on the 2^k - 1 partial assignments that satisfy
one pivot clause; every branch is a smaller CNF, and the original formula
is satisfiable iff some branch is.  Those branches overlap; the k branches
l1, l1'l2, ..., l1'...l(k-1)'lk are an orthonormal base of the same clause,
disjoint and covering it, and they are the solver's first branchings.
Variable-partition mode instead peels
off a block of at most n0 variables per level until every live leaf is
small.  A closed-form model estimates the cost of the latter.
"""

from cofsat import (
    CnfFormula,
    clause_branch_tree,
    clause_pivot_decompose,
    estimate_cost,
    partial_assignments,
    sat_set,
    var_partition_decompose,
)

formula = CnfFormula(
    [[-1, 2, 4], [-2, 3, -4], [1, 3, -4], [1, -3, -4]],
    universe=[1, 2, 3, 4])
print("formula:", formula)

pivot = formula.clauses[0]
print("\npivot clause:", pivot)
print("its SAT set:", dict(sat_set(pivot)))
print("its partial assignments, smallest first:")
for q in partial_assignments(pivot):
    print("  ", q.to_literals())

print("\nclause-pivot branches (reduced formulas):")
for i, item in enumerate(clause_pivot_decompose(formula, 0), start=1):
    body = "DEAD" if item.is_dead else str(item.formula)
    print(f"  {i}: prefix {item.prefix.to_literals()} -> {body}")

print("\nthe same pivot's orthonormal branches (disjoint; solving reads these):")
for node in clause_branch_tree(formula, 0).leaves():
    body = {"trivial": "TRUE", "unsat": "DEAD"}.get(
        node.status, str(node.item.formula))
    print(f"  {node.node_id}: prefix {node.item.prefix.to_literals()} -> {body}")

print("\nvariable-partition tree with n0 = 2:")
tree = var_partition_decompose(formula, 2)
print(tree.serialize())

print("cost model for 12 variables, blocks of 4, "
      "leaf time 2.0, substitution time 1.0:")
est = estimate_cost(12, 4, 2.0, 1.0)
print(f"  depth {est.depth}, remainder {est.remainder}, "
      f"estimated total {est.total_time}")
