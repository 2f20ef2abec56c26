"""The bytes ``--mode decompose`` prints, text and JSON, on both pivots.

``helpers.reference_serialize`` and ``helpers.reference_tree_json`` are the
printed tree as it was written before its per-call text caches: a list of
parts per node joined by spaces, and the node objects handed to
``json.dumps``.  The CLI must print exactly their bytes for the tree it
builds, whose cofactors are each ``substitute`` of the parent under the
edge's bindings.
"""

import io
import json
import warnings

import hypothesis.strategies as st
from hypothesis import example, given, settings

from cofsat import substitute, var_partition_decompose
from cofsat.cli import RunConfig, clause_pivot_tree, run
from cofsat.cnf import parse_dimacs

from helpers import reference_serialize, reference_tree_json


@st.composite
def dimacs(draw):
    """DIMACS text of clauses of 1 to 3 literals over 1..n, n <= 7, whose
    header may declare up to two variables that no clause holds: unit
    clauses, contradictory ones among them, repeated clauses for the
    reader to merge, and, with n = 0, ``p cnf 0 0`` or a formula of no
    clauses over free variables."""
    n = draw(st.integers(0, 7))
    declared = n + draw(st.integers(0, 2))
    clauses = []
    if n:
        clause = st.integers(1, min(3, n)).flatmap(
            lambda k: st.lists(st.integers(1, n), min_size=k, max_size=k,
                               unique=True)).flatmap(
            lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
        clauses = draw(st.lists(clause, max_size=3 * n))
    lines = [f"p cnf {declared} {len(clauses)}"]
    lines += [" ".join(map(str, (*c, 0))) for c in clauses]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(dimacs(), st.integers(1, 4), st.sampled_from(("vars", "clause")),
       st.integers(0, 20))
@example("p cnf 0 0\n", 1, "vars", 0)
@example("p cnf 0 0\n", 1, "clause", 0)
@example("p cnf 3 0\n", 2, "vars", 0)
@example("p cnf 2 2\n1 0\n-1 0\n", 1, "clause", 0)  # dead branches
@example("p cnf 2 2\n1 0\n-1 2 0\n", 1, "vars", 0)  # empty universes
@example("p cnf 4 3\n1 2 3 0\n-1 -2 0\n3 4 0\n", 1, "vars", 0)
def test_decompose_prints_the_reference_bytes(tmp_path_factory, text, n0,
                                              pivot, index):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        formula = parse_dimacs(text)
    clauses = formula.to_ints()
    index %= max(len(clauses), 1)
    tree = (var_partition_decompose(formula, n0) if pivot == "vars"
            else clause_pivot_tree(formula, index))
    nodes = tree.nodes
    for node in nodes[1:]:
        parent = nodes[node.parent].item
        new = {v: b for v, b in node.item.prefix.items()
               if v not in parent.prefix}
        assert node.item.formula == substitute(parent.formula, new)
    want = {
        "text": reference_serialize(tree),
        "json": json.dumps({"status": "OK",
                            "tree": reference_tree_json(tree)}) + "\n",
    }
    assert tree.serialize() == want["text"]
    path = tmp_path_factory.mktemp("printed") / "f.cnf"
    path.write_text(text)
    for fmt, expected in want.items():
        out, err = io.StringIO(), io.StringIO()
        status = run(RunConfig(str(path), mode="decompose",
                               pivot_strategy=pivot, pivot_clause=index,
                               n0=n0, output_format=fmt), out, err)
        assert status == 0
        assert out.getvalue() == expected
