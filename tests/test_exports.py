"""Every exported name resolves: a deleted function whose name was left in
an ``__all__`` list fails here rather than at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import cofsat

MODULES = [cofsat] + [
    importlib.import_module(f"cofsat.{info.name}")
    for info in pkgutil.iter_modules(cofsat.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, f"{module.__name__} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cofsat import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(cofsat.__all__)


def test_lazy_names_are_the_originals():
    # dir() lists them before they load: see test_cold_start.py.
    from cofsat import boolfn, expr
    lazy = {name: module for module in (boolfn, expr)
            for name in module.__all__ if name in cofsat.__all__}
    assert "TruthTable" in lazy and "parse_function" in lazy
    for name, module in lazy.items():
        assert name in dir(cofsat)
        assert getattr(cofsat, name) is getattr(module, name), name
    assert cofsat.boolfn is boolfn and cofsat.expr is expr


def test_capacity_error_has_one_identity():
    from cofsat import boolfn, cnf, limits
    assert cofsat.CapacityError is boolfn.CapacityError is cnf.CapacityError \
        is limits.CapacityError
    assert boolfn.MAX_VARS is cnf.MAX_VARS is limits.MAX_VARS


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cofsat.nope
    assert not hasattr(cofsat, "MAX_VARS")


def test_public_names_are_pinned():
    # An addition to or deletion from either list shows in this diff.
    from cofsat import cnf
    assert sorted(cofsat.__all__) == [
        "BaseSet", "CapacityError", "Clause", "CnfFormula",
        "CofactorInterval", "CostEstimate", "DecompositionTree",
        "DimacsParseError", "LeafResult", "NormalizationWarning",
        "OnVerdict", "PartialAssignment", "SolutionSet", "TruthTable",
        "Verdict", "WorkItem", "__version__", "all_solutions",
        "choose_var_subset", "clause_branch_tree", "clause_pivot_decompose",
        "cofactor_interval", "cofactor_sample",
        "compose", "compose_via_expansion", "consistency_over_base",
        "consistency_over_on", "count_and_witness", "emit_dimacs",
        "enumerate_c1_assignments", "estimate_cost", "expand",
        "expansion_identity", "gather", "is_cofactor", "is_orthonormal",
        "parse_dimacs", "parse_function", "partial_assignments", "sat_set",
        "solve_leaf", "substitute", "term_expansions", "to_truth_table",
        "var_partition_decompose",
    ]
    assert sorted(cnf.__all__) == [
        "Clause", "CnfFormula", "DimacsParseError", "MAX_ENUM_VARS",
        "NormalizationWarning", "PartialAssignment", "SolutionSet",
        "emit_dimacs", "parse_dimacs", "partial_assignments", "sat_set",
        "substitute", "to_truth_table",
    ]
