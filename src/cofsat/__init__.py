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

``limits`` holds the truth-table cap ``MAX_VARS`` and ``CapacityError``.
Importing the package loads ``cnf``, ``decompose``, ``allsat`` and
``limits``.  ``boolfn`` and ``expr`` load on first use of one of their
names, here or in ``to_truth_table``, so a run that solves without
``--verify`` never loads them, and solving cannot depend on the oracle it
is checked against.
"""

from .allsat import (LeafResult, all_solutions, count_and_witness, gather,
                     solve_leaf)
from .cnf import (
    Clause,
    CnfFormula,
    DimacsParseError,
    NormalizationWarning,
    PartialAssignment,
    SolutionSet,
    emit_dimacs,
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
    clause_branch_tree,
    clause_pivot_decompose,
    enumerate_c1_assignments,
    estimate_cost,
    var_partition_decompose,
)
from .limits import CapacityError

# Names of ``boolfn`` and ``expr``, bound on first access (PEP 562), so that
# importing the package, as every CLI run does, compiles neither module.
_LAZY = {
    "boolfn": ("TruthTable", "CofactorInterval", "BaseSet", "Verdict",
               "OnVerdict", "cofactor_interval", "is_cofactor",
               "cofactor_sample", "expand", "is_orthonormal",
               "term_expansions", "expansion_identity", "compose",
               "compose_via_expansion", "consistency_over_base",
               "consistency_over_on"),
    "expr": ("parse_function",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


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
    "Clause", "CnfFormula", "PartialAssignment", "SolutionSet",
    "NormalizationWarning", "DimacsParseError", "parse_dimacs",
    "emit_dimacs", "sat_set", "partial_assignments", "substitute",
    "to_truth_table",
    # decompose
    "WorkItem", "DecompositionTree", "CostEstimate",
    "clause_branch_tree", "clause_pivot_decompose", "choose_var_subset",
    "enumerate_c1_assignments", "var_partition_decompose", "estimate_cost",
    # allsat
    "LeafResult", "all_solutions", "solve_leaf", "gather", "count_and_witness",
]
