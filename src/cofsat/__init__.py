"""CNF satisfiability and all-solutions toolkit built on cofactor expansion.

Layers, lowest first:

* ``boolfn``    dense truth-table algebra: cofactor intervals, expansion
                over base sets, orthonormal systems, consistency checks
* ``expr``      tiny text syntax for truth tables (tests, debugging)
* ``cnf``       symbolic clauses and formulas, DIMACS I/O, partial
                assignments and formula reduction
* ``decompose`` clause-pivot and variable-partition decomposition into
                independent work items, plus the cost model
* ``allsat``    enumerating leaf solver, solution gathering, and cube counting
* ``cli``       command-line driver; leaves are solved serially
"""

from .allsat import (LeafResult, all_solutions, count_and_witness, gather,
                     solve_leaf)
from .boolfn import (
    BaseSet,
    CapacityError,
    CofactorInterval,
    OnVerdict,
    TruthTable,
    Verdict,
    cofactor_interval,
    cofactor_sample,
    compose,
    compose_via_expansion,
    consistency_over_base,
    consistency_over_on,
    expand,
    expansion_identity,
    is_cofactor,
    is_orthonormal,
    term_expansions,
)
from .cnf import (
    UNSAT,
    Clause,
    CnfFormula,
    DimacsParseError,
    NormalizationWarning,
    PartialAssignment,
    SolutionSet,
    emit_dimacs,
    formula_vars,
    parse_dimacs,
    partial_assignments,
    sat_set,
    substitute,
    to_truth_table,
)
from .decompose import (
    CostEstimate,
    DecompositionTree,
    WorkItem,
    choose_var_subset,
    clause_pivot_decompose,
    clause_pivot_tree,
    enumerate_c1_assignments,
    estimate_cost,
    var_partition_decompose,
)
from .expr import parse_function

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # boolfn
    "TruthTable", "CofactorInterval", "BaseSet", "Verdict", "OnVerdict",
    "CapacityError", "cofactor_interval", "is_cofactor", "cofactor_sample",
    "expand", "is_orthonormal", "term_expansions", "expansion_identity",
    "compose", "compose_via_expansion", "consistency_over_base",
    "consistency_over_on", "parse_function",
    # cnf
    "Clause", "CnfFormula", "PartialAssignment", "SolutionSet", "UNSAT",
    "NormalizationWarning", "DimacsParseError", "parse_dimacs",
    "emit_dimacs", "sat_set", "partial_assignments", "substitute",
    "to_truth_table", "formula_vars",
    # decompose
    "WorkItem", "DecompositionTree", "CostEstimate",
    "clause_pivot_decompose", "clause_pivot_tree", "choose_var_subset",
    "enumerate_c1_assignments", "var_partition_decompose", "estimate_cost",
    # allsat
    "LeafResult", "all_solutions", "solve_leaf", "gather", "count_and_witness",
]
