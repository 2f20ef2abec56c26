"""Decomposition of CNF formulas into independent subproblems.

The live leaves of every tree built here partition the root's models:
their counts add and no model is found twice.  Two strategies are
provided.  A clause pivot (l1 ... lk) is solved through
``clause_branch_tree``: the k branches l1; -l1 l2; ...; -l1 ... -l(k-1) lk,
an orthonormal base, disjoint and covering the clause; each branch is one
``substitute`` of the root reduced by the negations before it, which are
carried forward.  ``clause_pivot_decompose`` keeps the paper's 2**k - 1
overlapping branches, one per partial assignment of the clause: the input
is satisfiable iff at least one of them is.

Variable-partition decomposition repeatedly picks a block X1 of at most
``n0`` variables and expands the node over an orthonormal base of X1,
recursing on the children until every live leaf has at most ``n0``
variables.  The tree that ``sat``, ``count`` and ``allsat`` solve takes
the base from the search (``propagate=True``): one child per branch over
X1 that unit propagation through all the clauses leaves standing, so
refuted branches cost no node.  The tree that ``--mode decompose`` prints
keeps the finest base: the clauses are split once per node into bit masks
over X1, the only-X1 clauses give the allowed X1 assignments, and every
child (one per allowed assignment) is read off the masks of the other
clauses, without substituting into the whole formula.

Each subproblem is an immutable WorkItem (prefix assignment + reduced
formula) that can be shipped to any worker; the tree records how the items
were produced.  A simple closed-form cost model for the variable-partition
strategy is included.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .cnf import (
    Clause,
    CnfFormula,
    PartialAssignment,
    _model_rows,
    _reduce,
    _search,
    partial_assignments,
    substitute,
)

__all__ = [
    "WorkItem",
    "TreeNode",
    "DecompositionTree",
    "CostEstimate",
    "clause_branch_tree",
    "clause_pivot_decompose",
    "choose_var_subset",
    "enumerate_c1_assignments",
    "var_partition_decompose",
    "estimate_cost",
]

INTERNAL = "internal"
SOLVABLE = "solvable"
TRIVIAL = "trivial"
DEAD = "unsat"


class WorkItem(namedtuple("WorkItem", "prefix formula depth")):
    """A self-contained subproblem: accumulated prefix plus reduced formula.

    ``formula`` is None when the reduction that built the item falsified a
    clause.  Whether a node of a ``DecompositionTree`` is dead is its
    ``status``: a variable-partition node whose block admits no assignment
    keeps its formula.
    """

    __slots__ = ()
    prefix: PartialAssignment
    formula: CnfFormula | None
    depth: int

    def __new__(cls, prefix: PartialAssignment, formula: CnfFormula | None,
                depth: int) -> WorkItem:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if (formula is not None
                and not prefix.keys().isdisjoint(formula.universe)):
            overlap = set(prefix) & set(formula.universe)
            raise ValueError(
                f"prefix binds formula variables {sorted(overlap)}")
        return tuple.__new__(cls, (prefix, formula, depth))

    @property
    def is_dead(self) -> bool:
        """A reduction falsified a clause; tree nodes are dead by status."""
        return self.formula is None


class TreeNode(namedtuple("TreeNode", "node_id parent item status")):
    __slots__ = ()
    node_id: int
    parent: int  # -1 for the root
    item: WorkItem
    status: str


class DecompositionTree:
    """Nodes in preorder; node 0 is the root, parent links define the shape.

    The live ``leaves`` of a tree that ``clause_branch_tree`` or
    ``var_partition_decompose`` builds partition the root's models, which
    is what solving reads.
    """

    def __init__(self, nodes: Sequence[TreeNode]):
        if not nodes or nodes[0].parent != -1:
            raise ValueError("first node must be the root with parent -1")
        self._nodes = tuple(nodes)

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        return self._nodes

    @property
    def root(self) -> TreeNode:
        return self._nodes[0]

    @property
    def root_universe(self) -> tuple[int, ...]:
        assert self.root.item.formula is not None
        return self.root.item.formula.universe

    def leaves(self) -> list[TreeNode]:
        """The nodes without children, dead ones included, in node order."""
        return [n for n in self._nodes if n.status != INTERNAL]

    def serialize(self) -> str:
        """Line-oriented text form, one node per line.

        Grammar (all tokens space-separated)::

            <id> <parent> <depth> <status> q <prefix-literals> 0
                [u <universe-vars> 0 c <nclauses> (<clause-literals> 0)*]

        The prefix is written as signed literals in ascending variable
        order.  Leaves that carry a formula append its universe and an
        inline clause block; internal and dead nodes stop after the prefix.
        """
        lines = []
        texts: dict[tuple[int, ...], str] = {}  # leaves share clause tuples
        for node in self._nodes:
            item = node.item
            parts = [str(node.node_id), str(node.parent), str(item.depth),
                     node.status, "q", *map(str, item.prefix.to_literals()),
                     "0"]
            if node.status in (SOLVABLE, TRIVIAL):
                f = item.formula
                clauses = f.to_ints()
                parts += ["u", *map(str, f.universe), "0",
                          "c", str(len(clauses))]
                for clause in clauses:
                    text = texts.get(clause)
                    if text is None:
                        text = texts[clause] = " ".join(map(str, clause)) + " 0"
                    parts.append(text)
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


class CostEstimate(namedtuple(
        "CostEstimate", "total_vars threshold depth remainder "
        "leaf_solve_time substitution_time total_time")):
    """Closed-form time estimate for solving by repeated decomposition.

    ``depth`` levels of decomposition, each removing ``threshold`` of the
    ``total_vars`` variables, leave a remainder block of size ``remainder``;
    the model charges the leaf-solve time compounded over the depth plus one
    substitution pass per level.
    """

    __slots__ = ()
    total_vars: int
    threshold: int
    depth: int
    remainder: int
    leaf_solve_time: float
    substitution_time: float
    total_time: float


def _leaf_status(formula: CnfFormula | None, n0: int | None) -> str:
    if formula is None:
        return DEAD
    if formula.is_empty:
        return TRIVIAL
    if n0 is None or len(formula.universe) <= n0:
        return SOLVABLE
    return INTERNAL


def _pivot_clause(formula: CnfFormula, pivot_index: int) -> tuple[int, ...]:
    clauses = formula.to_ints()
    if not 0 <= pivot_index < len(clauses):
        raise ValueError(
            f"pivot index {pivot_index} out of range for "
            f"{len(clauses)} clauses")
    return clauses[pivot_index]


def clause_pivot_decompose(
    formula: CnfFormula, pivot_index: int
) -> list[WorkItem]:
    """Branch on every partial assignment of the pivot clause.

    Returns one WorkItem per assignment, in canonical assignment order.
    Branches whose reduction falsifies a clause are kept, flagged dead.
    The input is satisfiable iff some branch is satisfiable.  Branch
    solution sets may overlap; ``clause_branch_tree`` gives the k disjoint
    branches that solving uses.
    """
    pivot = Clause._view(_pivot_clause(formula, pivot_index))
    return [WorkItem(q, substitute(formula, q), 1)
            for q in partial_assignments(pivot)]


def clause_branch_tree(formula: CnfFormula, pivot_index: int) -> DecompositionTree:
    """The k orthonormal branches of the pivot clause (l1 ... lk), as a
    one-level tree whose leaves are disjoint: what solving reads.

    Node i (1 <= i <= k; li's singleton branch is item i - 1 of
    ``clause_pivot_decompose``) has prefix -l1 ... -l(i-1) li and the root
    reduced by it; a branch the prefix falsifies is a dead leaf.  The
    root reduced by -l1 ... -l(i-1) is carried from branch to branch, one
    ``_reduce`` pass per literal but the last, and each live branch is
    one ``substitute`` of it by li, so a k-literal pivot costs at most
    2k - 1 clause passes.  The branches' models partition the root's, so
    their counts add.  A formula with no clauses has no pivot: its tree
    is the root alone, a trivial leaf, whatever ``pivot_index`` says.  An
    out-of-range index raises ``ValueError``.
    """
    root = WorkItem(PartialAssignment(), formula, 0)
    if formula.is_empty:
        return DecompositionTree([TreeNode(0, -1, root, TRIVIAL)])
    nodes = [TreeNode(node_id=0, parent=-1, item=root, status=INTERNAL)]
    negated: dict[int, bool] = {}
    # The root under the negations so far, None once they falsify a clause;
    # its duplicates are merged by the ``substitute`` that reads it.
    clauses = formula.to_ints()
    universe = formula.universe
    pivot = _pivot_clause(formula, pivot_index)
    for lit in pivot:
        var = abs(lit)
        # The clause is in variable order, so every prefix is too.
        prefix = PartialAssignment._sorted({**negated, var: lit > 0})
        reduced = None if clauses is None else substitute(
            CnfFormula._normalized(tuple(clauses), universe), {var: lit > 0})
        nodes.append(TreeNode(
            node_id=len(nodes), parent=0, item=WorkItem(prefix, reduced, 1),
            status=_leaf_status(reduced, None)))
        negated[var] = lit < 0
        if clauses is not None and len(negated) < len(pivot):
            clauses = _reduce(clauses, -lit)
            universe = tuple([v for v in universe if v != var])
    return DecompositionTree(nodes)


def choose_var_subset(formula: CnfFormula, n0: int) -> tuple[int, ...]:
    """Pick a block of min(n0, |universe|) variables for partitioning.

    Greedy: grow the block one variable at a time, each step taking the
    variable that maximizes the number of clauses whose variables are fully
    inside the block, breaking ties by smallest variable id.

    Each clause keeps its set of variables still outside the block, so a
    candidate v adds exactly the clauses whose outside set is {v}; the
    clauses already inside count the same for every candidate.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    universe = formula.universe
    outside = [{abs(x) for x in c} for c in formula.to_ints()]
    occurs: dict[int, list[set[int]]] = {v: [] for v in universe}
    completes = dict.fromkeys(universe, 0)  # clauses whose outside set is {v}
    for vs in outside:
        for v in vs:
            occurs[v].append(vs)
        if len(vs) == 1:
            completes[next(iter(vs))] += 1
    candidates = list(universe)
    chosen = []
    for _ in range(min(n0, len(universe))):
        # max keeps the first of equal scores: the smallest id.
        best = max(candidates, key=completes.__getitem__)
        candidates.remove(best)
        chosen.append(best)
        for vs in occurs[best]:
            vs.discard(best)
            if len(vs) == 1:
                completes[next(iter(vs))] += 1
    return tuple(sorted(chosen))


def _split(
    clauses: Sequence[tuple[int, ...]], x1: Sequence[int]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """One ``(mask, neg_mask, rest)`` entry per int clause, over the sorted
    block x1.

    Bit j of ``mask`` is set when the clause holds ``x1[j]``, and of
    ``neg_mask`` when it holds it negatively, so a row over x1 falsifies
    every X1 literal of the clause exactly when ``row & mask == neg_mask``.
    ``rest`` is the clause's literals outside the block: empty for an
    only-X1 clause, the clause itself for an only-X2 clause.
    """
    pos_bit = {v: 1 << j for j, v in enumerate(x1)}
    neg_bit = {-v: b for v, b in pos_bit.items()}
    split = []
    for clause in clauses:
        mask = neg = 0
        rest = []
        for x in clause:
            if x in pos_bit:
                mask |= pos_bit[x]
            elif x in neg_bit:
                bit = neg_bit[x]
                mask |= bit
                neg |= bit
            else:
                rest.append(x)
        split.append((mask, neg, tuple(rest) if mask else clause))
    return split


def enumerate_c1_assignments(
    clauses: Iterable[Clause], x1: Iterable[int]
) -> list[PartialAssignment]:
    """All full assignments over x1 satisfying every given clause.

    Canonical ascending order of the assignments' bit encodings over the
    sorted block.  An empty result means the clauses are unsatisfiable over
    x1, which kills the whole subproblem.  The assignments come from the
    backtracking search that also solves leaves (``cnf._models``), expanded
    to rows.
    """
    x1 = tuple(sorted(set(x1)))
    clauses = tuple(clauses)
    for clause in clauses:
        stray = set(clause.vars) - set(x1)
        if stray:
            raise ValueError(
                f"clause {clause} touches variables {sorted(stray)} outside the block")
    rows = _model_rows([c.to_ints() for c in clauses], x1)
    return [PartialAssignment((v, bool(row >> j & 1)) for j, v in enumerate(x1))
            for row in sorted(rows)]


def var_partition_decompose(formula: CnfFormula, n0: int, *,
                            propagate: bool = False) -> DecompositionTree:
    """Recursively decompose until every live leaf has at most n0 variables.

    At each internal node, choose a block X1 with ``choose_var_subset``.
    The children expand the node over an orthonormal base of X1, and their
    live leaves partition the root's models.  A node whose base is empty
    is a dead leaf; if every leaf is dead the formula is unsatisfiable.

    By default (the tree ``--mode decompose`` prints) the base is the
    finest one: one child per X1 assignment that the only-X1 clauses
    allow, in ascending bit order.  The clauses are split once into masks
    over X1, and each child holds the reduced formula over X2: every other
    clause the assignment does not satisfy, cut to its X2 literals
    (only-X2 clauses ride along unchanged), duplicates merged in
    first-seen order.  This equals ``substitute`` of the whole formula
    under the assignment, which never falsifies a clause: only an only-X1
    clause could lose every literal, and the allowed assignments satisfy
    those.

    With ``propagate`` (the tree that ``sat``, ``count`` and ``allsat``
    solve) the base comes from the search itself: ``cnf._search`` branches
    on X1 only and propagates unit clauses through every clause.  Each
    frame it stops, with all of X1 set or no clause left, is one child, in
    search order: its prefix adds every variable the frame set, X2 ones
    included, and its formula is the frame's clauses left, which equals
    ``substitute`` of the node under those bindings.  A branch that
    propagation refutes makes no child, so the tree has a node per
    surviving cube of X1, not per allowed row.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    nodes: list[TreeNode] = []
    # Preorder from an explicit stack, children pushed in reverse, so the
    # tree's depth is not bounded by the interpreter's recursion limit.
    stack = [(WorkItem(PartialAssignment(), formula, 0), -1)]
    while stack:
        item, parent = stack.pop()
        node_id = len(nodes)
        f = item.formula
        status = _leaf_status(f, n0)
        if status != INTERNAL:
            nodes.append(TreeNode(node_id, parent, item, status))
            continue
        assert f is not None
        x1 = choose_var_subset(f, n0)
        children = (_propagated_children if propagate
                    else _row_children)(item, x1)
        nodes.append(TreeNode(node_id, parent, item,
                              INTERNAL if children else DEAD))
        stack.extend((child, node_id) for child in reversed(children))

    return DecompositionTree(nodes)


def _row_children(item: WorkItem, x1: tuple[int, ...]) -> list[WorkItem]:
    """One child per X1 assignment the only-X1 clauses allow, in ascending
    bit order."""
    f = item.formula
    clauses = f.to_ints()
    split = _split(clauses, x1)
    rows = sorted(_model_rows(
        [c for c, (_, _, rest) in zip(clauses, split) if not rest], x1))
    # In clause order: grouping the entries would reorder the children's
    # clauses.
    entries = [entry for entry in split if entry[2]]
    x2 = tuple(v for v in f.universe if v not in x1)
    # Each child binds the parent's variables and the block's, which are
    # disjoint, in ascending order: copy a sorted template, set the block.
    bindings = dict.fromkeys(sorted([*item.prefix, *x1]))
    bindings.update(item.prefix.items())
    bits = [1 << j for j in range(len(x1))]
    children = []
    for row in rows:
        reduced = dict.fromkeys(
            rest for mask, neg, rest in entries if row & mask == neg)
        prefix = bindings.copy()
        prefix.update(zip(x1, [row & bit != 0 for bit in bits]))
        children.append(WorkItem(
            prefix=PartialAssignment._sorted(prefix),
            formula=CnfFormula._normalized(tuple(reduced), x2),
            depth=item.depth + 1))
    return children


def _propagated_children(item: WorkItem, x1: tuple[int, ...]
                         ) -> list[WorkItem]:
    """One child per frame of the search over X1 that propagation does not
    refute, in search order."""
    f = item.formula
    over = f.universe
    children = []
    for bits, fixed, slots in _search(f.to_ints(), over, x1):
        prefix = dict(item.prefix)
        free = []
        for j, v in enumerate(over):
            if fixed >> j & 1:
                prefix[v] = bits >> j & 1 == 1
            else:
                free.append(v)
        children.append(WorkItem(
            prefix=PartialAssignment._sorted(dict(sorted(prefix.items()))),
            formula=CnfFormula._normalized(
                tuple(dict.fromkeys(c for c in slots if c)), tuple(free)),
            depth=item.depth + 1))
    return children


def estimate_cost(
    total_vars: int,
    threshold: int,
    leaf_solve_time: float,
    substitution_time: float,
) -> CostEstimate:
    """Average-time model: leaf time to the power of the decomposition depth
    plus one substitution pass per level.

    depth = total_vars div threshold, remainder = total_vars mod threshold,
    total = leaf_solve_time**depth + depth * substitution_time.
    """
    if total_vars < 0:
        raise ValueError("total_vars must be nonnegative")
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if leaf_solve_time < 0 or substitution_time < 0:
        raise ValueError("times must be nonnegative")
    depth = total_vars // threshold
    remainder = total_vars % threshold
    total = leaf_solve_time ** depth + depth * substitution_time
    return CostEstimate(
        total_vars=total_vars,
        threshold=threshold,
        depth=depth,
        remainder=remainder,
        leaf_solve_time=leaf_solve_time,
        substitution_time=substitution_time,
        total_time=total,
    )
