"""Decomposition of CNF formulas into independent subproblems.

Every tree here is the generalized Boole-Shannon expansion
f = sum of phi_i * f|phi_i over a base, applied at each node by one
builder, ``_grow``, from one explicit stack.  A split rule gives a node's
edges ``(bindings, cofactor)``: the member phi_i as a cube and the
cofactor f|phi_i, None when phi_i falsifies a clause.  The builder alone
numbers the nodes, sets their status and depth, and adds each edge's
bindings to its parent's prefix.  The rules:

* ``clause_branch_tree``: a pivot clause (l1 ... lk) expands over the
  orthonormal base l1; -l1 l2; ...; -l1 ... -l(k-1) lk, the k disjoint
  branches whose models solving reads.
* ``_pivot_lattice``: the paper's 2**k - 1 overlapping branches, one per
  partial assignment of the clause: the input is satisfiable iff at least
  one of them is.  They form a lattice, f|(S + l) = (f|S)|l, so each
  branch is one ``substitute`` of a parent's cofactor.  ``--mode
  decompose --pivot clause`` prints them, and ``clause_pivot_decompose``
  hands them out as work items.
* ``var_partition_decompose``: a node of more than ``n0`` variables
  expands over an orthonormal base of a block X1 of them.  ``--mode
  allsat --pivot vars`` takes the base from the search
  (``propagate=True``): the branches over X1 that unit propagation
  leaves standing.  The tree that ``--mode decompose`` prints takes the
  finest base, one edge per allowed X1 row.

The live leaves of both trees partition the root's models: their counts
add and no model is found twice.  ``--mode count`` and ``--mode sat``
build neither tree, nor does ``--mode allsat --pivot clause``:
``_clause_branch_cubes`` and ``_var_partition_cubes`` run one search of
the root whose first branchings are the same bases, solve each leaf in
the frame that made it, and hand back its cubes.  Each base is one rule
that reads its frame: the pivot clause is followed through its own slot.

Each tree node holds an immutable WorkItem (prefix assignment + reduced
formula) that can be shipped to any worker.  A simple closed-form cost
model for the variable-partition strategy is included.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import combinations, compress

from . import cnf
from .cnf import (
    Clause,
    CnfFormula,
    PartialAssignment,
    _model_rows,
    _search,
    substitute,
)
from .limits import CapacityError

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
        Each distinct binding, universe and clause is written once per
        call, each line is read off those texts, and the text is joined
        once.
        """
        lits = _Texts(lambda vb: f"{vb[0]} " if vb[1] else f"-{vb[0]} ")
        universes = _Texts(lambda u: f"{' '.join(map(str, u))} " if u else "")
        clauses = _Texts(lambda c: f" {' '.join(map(str, c))} 0")
        lines = []
        for node_id, parent, (prefix, f, depth), status in self._nodes:
            leaf = "" if status not in (SOLVABLE, TRIVIAL) else (
                f" u {universes[f.universe]}0 c {len(f.to_ints())}"
                f"{''.join(map(clauses.__getitem__, f.to_ints()))}")
            lines.append(f"{node_id} {parent} {depth} {status} q "
                         f"{''.join(map(lits.__getitem__, prefix.items()))}0"
                         f"{leaf}\n")
        return "".join(lines)


class _Texts(dict):
    """The text of each key, made by ``text`` the first time it is read."""

    __slots__ = ("text",)

    def __init__(self, text: Callable[[tuple], str]):
        self.text = text

    def __missing__(self, key: tuple) -> str:
        value = self[key] = self.text(key)
        return value


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


def _grow(
    formula: CnfFormula,
    split: Callable[[CnfFormula, int],
                    list[tuple[Mapping[int, bool], CnfFormula | None]] | None],
) -> DecompositionTree:
    """The tree of ``split``'s expansions, in preorder from the root.

    ``split(f, depth)`` runs on each node whose formula has clauses and
    returns its edges ``(bindings, cofactor)``, or None to make it a leaf.
    A node is dead when its formula is None or it has no edges, trivial
    when its formula has no clauses, solvable when ``split`` declines and
    internal otherwise.  A child's prefix is its parent's plus the edge's
    bindings; every rule gives these as a new dict in variable order, so
    under the root they are the prefix as they stand.
    """
    nodes: list[TreeNode] = []
    # Preorder from an explicit stack, children pushed in reverse, so the
    # tree's depth is not bounded by the interpreter's recursion limit.
    stack = [(-1, WorkItem(PartialAssignment(), formula, 0))]
    while stack:
        parent, item = stack.pop()
        node_id = len(nodes)
        prefix, f, depth = item
        if f is None or f.is_empty:
            edges = None
            status = DEAD if f is None else TRIVIAL
        else:
            edges = split(f, depth)
            status = SOLVABLE if edges is None else INTERNAL if edges else DEAD
        nodes.append(tuple.__new__(TreeNode, (node_id, parent, item, status)))
        if edges:
            pairs = prefix.items()
            depth += 1
            # Both runs are in variable order, so sorting merges them.
            stack.extend(
                (node_id, WorkItem(PartialAssignment._sorted(
                    dict(sorted([*pairs, *bindings.items()])) if pairs
                    else bindings), cofactor, depth))
                for bindings, cofactor in reversed(edges))
    return DecompositionTree(nodes)


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

    Returns one WorkItem per assignment, in canonical assignment order
    (that of ``partial_assignments``), built by ``_pivot_lattice``.
    Branches whose reduction falsifies a clause are kept, flagged dead.
    The input is satisfiable iff some branch is satisfiable.  Branch
    solution sets may overlap; ``clause_branch_tree`` gives the k disjoint
    branches that solving uses.  A pivot of more than ``MAX_ENUM_VARS``
    literals raises ``CapacityError``.
    """
    return [WorkItem(PartialAssignment._sorted(bindings), cofactor, 1)
            for bindings, cofactor in _pivot_lattice(formula, pivot_index)]


def _pivot_lattice(formula: CnfFormula, pivot_index: int
                   ) -> list[tuple[dict[int, bool], CnfFormula | None]]:
    """The split rule of the 2**k - 1 overlapping branches of the pivot
    clause (l1 ... lk): one edge ``(bindings, cofactor)`` per partial
    assignment, in canonical order (by size, then by literal position).

    The assignments form a lattice, and f|(S + l) = (f|S)|l: each cofactor
    is one ``substitute`` of the cofactor of its subset without its last
    literal, which this order builds first.  A branch under a dead one is
    dead without a call, since a superset of a falsifying assignment
    falsifies the same clause.  So the branches cost at most 2**k - 1
    passes, each over a reduced parent.  More than ``2**MAX_ENUM_VARS``
    branches (k > ``MAX_ENUM_VARS``) raise ``CapacityError`` before any
    is built.
    """
    pivot = _pivot_clause(formula, pivot_index)
    k = len(pivot)
    cap = cnf.MAX_ENUM_VARS  # read at call time
    if k > cap:  # 2**k - 1 > 2**cap
        raise CapacityError(
            f"pivot clause of {k} literals has 2**{k} - 1 branches, "
            f"capped at 2**{cap}")
    edges = []
    built: dict[tuple[int, ...], tuple] = {(): ({}, formula)}  # by literals
    for size in range(1, k + 1):
        for subset in combinations(pivot, size):
            bindings, parent = built[subset[:-1]]
            var, value = abs(subset[-1]), subset[-1] > 0
            # Literals are in variable order, so the bindings stay sorted.
            edge = built[subset] = (
                {**bindings, var: value},
                None if parent is None else substitute(parent, {var: value}))
            edges.append(edge)
    return edges


def clause_branch_tree(formula: CnfFormula, pivot_index: int) -> DecompositionTree:
    """The k orthonormal branches of the pivot clause (l1 ... lk), as a
    one-level tree whose leaves are disjoint: the base whose models
    ``_clause_branch_cubes`` finds in one search.

    Node i (1 <= i <= k; li's singleton branch is item i - 1 of
    ``clause_pivot_decompose``) has prefix -l1 ... -l(i-1) li and the root
    reduced by it, one ``substitute`` of the root per branch; a branch the
    prefix falsifies is a dead leaf.  The branches' models partition the
    root's, so their counts add.  A formula with no clauses has no pivot:
    its tree is the root alone, a trivial leaf, whatever ``pivot_index``
    says.  An out-of-range index raises ``ValueError``.
    """
    def split(f: CnfFormula, depth: int) -> list | None:
        if depth:
            return None
        edges = []
        negated: dict[int, bool] = {}
        for lit in _pivot_clause(f, pivot_index):
            bindings = {**negated, abs(lit): lit > 0}
            edges.append((bindings, substitute(f, bindings)))
            negated[abs(lit)] = lit < 0
        return edges

    return _grow(formula, split)


def _clause_branch_cubes(formula: CnfFormula, pivot_index: int
                         ) -> Iterator[tuple[int, int]]:
    """The cubes ``(bits, fixed)`` over the root universe of the models of
    ``clause_branch_tree``'s live leaves, from one search of the root.

    The search takes the tree's base as its first branchings.  A frame's
    slot of the pivot clause (l1 ... lk) is the pivot's cofactor under the
    frame: its false literals are cut and it is empty once the pivot
    holds.  So the search branches on the variable of the first literal
    left in that slot, the first unset pivot variable, until the slot is
    empty, and then searches freely: its branches are l1; -l1 l2; ....
    Each branch is solved in the frame that made it: no cofactor is
    built.  A formula with no clauses has no pivot and one cube, whatever
    ``pivot_index`` says; an out-of-range index raises ``ValueError``.
    """
    if not formula.is_empty:
        _pivot_clause(formula, pivot_index)

    def next_block(bits: int, fixed: int, slots: list) -> tuple | None:
        pivot = slots[pivot_index]
        return (abs(pivot[0]),) if pivot else None

    return ((bits, fixed) for bits, fixed, _ in _search(
        formula.to_ints(), formula.universe, (), next_block))


def choose_var_subset(formula: CnfFormula | Sequence[tuple[int, ...]],
                      n0: int) -> tuple[int, ...]:
    """Pick a block of min(n0, h) of the h held variables, those that some
    clause holds: a split on any other variable gives two equal cofactors.
    ``formula`` is a formula or its int clauses, which are all it reads:
    the one search hands over a frame's clauses left, not a formula.

    The block is the first min(n0, h) held variables ranked by the unit
    clauses that hold them, then the 2-literal clauses, then all clauses,
    most first, ties to the smallest id (most occurrences in the shortest
    clauses, as the search branches), returned sorted.  Each clause adds
    one weight per variable, so one sum ranks all three counts at once:
    no count reaches ``len(clauses) + 1``, so a unit outweighs any number
    of 2-literal clauses, and a 2-literal clause any number of others.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    clauses = (formula.to_ints() if isinstance(formula, CnfFormula)
               else formula)
    m = len(clauses) + 1
    score: dict[int, int] = {}
    for clause in clauses:
        k = len(clause)
        weight = m * m + 1 if k == 1 else m + 1 if k == 2 else 1
        for x in clause:
            v = abs(x)
            score[v] = score.get(v, 0) + weight
    # Sorted by id first: the stable sort keeps ties in id order.
    ranked = sorted(sorted(score), key=score.__getitem__, reverse=True)
    return tuple(sorted(ranked[:n0]))


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

    At each node of more than ``n0`` variables, choose a block X1 of held
    variables, those that some clause holds, with ``choose_var_subset``.
    The node's edges expand it over an orthonormal base of X1, and the
    live leaves partition the root's models.  Every edge binds at least
    one variable, so the tree is finite.  A node whose base is empty is a
    dead leaf; if every leaf is dead the formula is unsatisfiable.

    By default (the tree ``--mode decompose`` prints) the base is the
    finest one, the row rule ``_row_children``: one edge per X1
    assignment that the only-X1 clauses allow, in ascending bit order.
    With ``propagate`` (the tree that ``allsat --pivot vars`` solves, and
    whose cubes ``_var_partition_cubes`` finds in one search for ``sat``
    and ``count``) the base comes from the search itself, the rule
    ``_propagated_children``: one edge per branch over X1 that unit
    propagation leaves standing, so refuted branches cost no node.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    children = _propagated_children if propagate else _row_children

    def split(f: CnfFormula, depth: int) -> list | None:
        if len(f.universe) <= n0:
            return None
        return children(f, choose_var_subset(f, n0))

    return _grow(formula, split)


def _var_partition_cubes(formula: CnfFormula, n0: int
                         ) -> Iterator[tuple[int, int]]:
    """The cubes ``(bits, fixed)`` over the root universe of the models of
    the live leaves of ``var_partition_decompose(formula, n0,
    propagate=True)``, from one search of the root.

    The search follows that tree's base by one rule, the root's block
    included.  A frame whose block runs out, and the root, are nodes of
    the tree: with more than ``n0`` unset variables a node is internal,
    and goes on over ``choose_var_subset`` of its distinct clauses left,
    each repeated slot emptied as the tree's cofactor merges it; any
    other is a leaf, searched over every variable in the frame that made
    it.  No cofactor is built.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    over = formula.universe
    width = len(over)

    def next_block(bits: int, fixed: int, slots: list) -> tuple | None:
        if width - fixed.bit_count() > n0:
            return choose_var_subset(_distinct(slots), n0)
        return None

    clauses = formula.to_ints()
    return ((bits, fixed) for bits, fixed, _ in _search(
        clauses, over, next_block(0, 0, list(clauses)), next_block))


def _row_children(f: CnfFormula, x1: tuple[int, ...]
                  ) -> list[tuple[dict[int, bool], CnfFormula]]:
    """One edge per X1 assignment the only-X1 clauses allow, in ascending
    bit order.

    One pass cuts each clause to its rest, its X2 literals, and marks the
    clauses each value of each X1 variable satisfies, clause i of m at
    byte m - 1 - i.  A row reads its marks and values from one table per 4
    bits of X1, and its cofactor keeps the rests of the clauses it leaves,
    in clause order, duplicates merged in first-seen order.  This equals
    ``substitute`` of ``f`` under the row, which never falsifies a clause:
    only an only-X1 clause could lose every literal, and the allowed rows
    satisfy those.
    """
    clauses = f.to_ints()
    m = len(clauses)
    at = {x: (j, x > 0) for j, v in enumerate(x1) for x in (v, -v)}
    marks = [[0, 0] for _ in x1]  # by position in x1, then by value
    rests = []
    for i, clause in enumerate(clauses):
        rest = []
        for x in clause:
            hit = at.get(x)
            if hit is None:
                rest.append(x)
            else:
                marks[hit[0]][hit[1]] |= 1 << 8 * (m - 1 - i)
        rests.append(tuple(rest) if len(rest) < len(clause) else clause)
    rows = sorted(_model_rows([c for c, r in zip(clauses, rests) if not r], x1))
    tables = []
    for lo in range(0, len(x1), 4):
        table = [(0, ())]
        for unset, set_ in marks[lo:lo + 4]:
            table = ([(s | unset, vals + (False,)) for s, vals in table]
                     + [(s | set_, vals + (True,)) for s, vals in table])
        tables.append(table)
    x2 = tuple(v for v in f.universe if v not in at)
    full = int.from_bytes(b"\1" * m, "big")
    edges = []
    for row in rows:
        marked, values = 0, ()
        for table in tables:
            s, vals = table[row & 15]
            marked |= s
            values += vals
            row >>= 4
        left = (full ^ marked).to_bytes(m, "big")  # 1 per clause left
        edges.append((dict(zip(x1, values)), CnfFormula._normalized(
            tuple(dict.fromkeys(compress(rests, left))), x2)))
    return edges


def _propagated_children(f: CnfFormula, x1: tuple[int, ...]
                         ) -> list[tuple[dict[int, bool], CnfFormula]]:
    """One edge per frame of the search over X1 that propagation does not
    refute, in search order.

    ``cnf._search`` branches only on held X1 variables and propagates
    unit clauses through every clause.  Each frame it stops, once no
    clause left holds an unset X1 variable, binds every variable it set,
    X2 ones included; the rest, X1 ones included, stay in its cofactor's
    universe.  The cofactor is the frame's clauses left, which equals
    ``substitute`` of ``f`` under those bindings.
    """
    over = f.universe
    # Masks are read as strings of bits, bit 0 first: a shift per
    # variable of a wide universe is quadratic.
    spec = f"0{len(over)}b"
    edges = []
    for bits, fixed, slots in _search(f.to_ints(), over, x1):
        bindings = {}
        free = []
        for v, set_, value in zip(over, format(fixed, spec)[::-1],
                                  format(bits, spec)[::-1]):
            if set_ == "1":
                bindings[v] = value == "1"
            else:
                free.append(v)
        edges.append((bindings, CnfFormula._normalized(
            _distinct(slots), tuple(free))))
    return edges


def _distinct(slots: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The distinct clauses left in a search frame's ``slots``, in slot
    order: its cofactor's clauses.  Each slot that repeats an earlier one
    is emptied in place, so a search going on from the frame branches as
    a search of the cofactor would."""
    live = list(filter(None, slots))
    distinct = tuple(dict.fromkeys(live))
    if len(distinct) < len(live):
        seen = set()
        for i, clause in enumerate(slots):
            if clause in seen:
                slots[i] = ()
            elif clause:
                seen.add(clause)
    return distinct


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
