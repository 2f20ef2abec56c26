"""Shared test utilities: independent oracles and random generators.

The brute-force oracle here evaluates signed-literal clauses directly over
raw integers, touching none of the package's truth-table or backtracking
code, so it can arbitrate between them.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections import Counter
from collections.abc import Iterable
from typing import Sequence

from cofsat import (BaseSet, Clause, CnfFormula, TruthTable, WorkItem,
                    partial_assignments, substitute)
from cofsat.cnf import DimacsParseError, NormalizationWarning


def brute_force_rows(
    clauses: Sequence[Sequence[int]], universe: Sequence[int]
) -> list[int]:
    """Satisfying assignments of signed-literal clauses, bit-encoded over
    the sorted universe (bit j = value of universe[j])."""
    universe = sorted(universe)
    position = {v: j for j, v in enumerate(universe)}
    rows = []
    for p in range(1 << len(universe)):
        if all(
            any((lit > 0) == bool(p >> position[abs(lit)] & 1) for lit in clause)
            for clause in clauses
        ):
            rows.append(p)
    return rows


def node_root_rows(node, root: Sequence[int]) -> list[int]:
    """Rows over ``root`` of one live tree node: its prefix, each
    brute-force model of its clauses, and both values of every variable
    left over."""
    formula = node.item.formula
    values = {v: int(b) for v, b in node.item.prefix.items()}
    free = [v for v in root
            if v not in values and v not in formula.universe]
    rows = []
    for leaf_row in brute_force_rows(formula.to_ints(), formula.universe):
        values.update((v, leaf_row >> j & 1)
                      for j, v in enumerate(formula.universe))
        for fill in itertools.product((0, 1), repeat=len(free)):
            values.update(zip(free, fill))
            rows.append(sum(values[v] << j for j, v in enumerate(root)))
    return rows


def random_table(rng: random.Random, num_vars: int) -> TruthTable:
    return TruthTable(num_vars, rng.getrandbits(1 << num_vars))


def random_nonzero_table(rng: random.Random, num_vars: int) -> TruthTable:
    while True:
        t = random_table(rng, num_vars)
        if not t.is_zero:
            return t


def random_base(rng: random.Random, num_vars: int, size: int) -> BaseSet:
    return BaseSet(random_nonzero_table(rng, num_vars) for _ in range(size))


def random_3cnf_clauses(
    rng: random.Random, num_vars: int, num_clauses: int
) -> list[list[int]]:
    """Distinct 3-literal clauses over distinct variables (no tautologies,
    no duplicate clauses)."""
    seen = set()
    clauses = []
    attempts = 0
    while len(clauses) < num_clauses:
        attempts += 1
        if attempts > 200 * num_clauses:
            break  # tiny universes cannot host that many distinct clauses
        vars_ = rng.sample(range(1, num_vars + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in vars_]
        key = frozenset(clause)
        if key in seen:
            continue
        seen.add(key)
        clauses.append(sorted(clause, key=abs))
    return clauses


def random_formula(
    rng: random.Random, num_vars: int, num_clauses: int
) -> CnfFormula:
    return CnfFormula(
        random_3cnf_clauses(rng, num_vars, num_clauses),
        universe=range(1, num_vars + 1))


EXAMPLE2_CLAUSES = [[-1, 2, 4], [-2, 3, -4], [1, 3, -4], [1, -3, -4]]


def example2_formula() -> CnfFormula:
    return CnfFormula(EXAMPLE2_CLAUSES, universe=[1, 2, 3, 4])


# -- the search as it was before occurrence lists --------------------------
# ``cnf._models`` must return exactly these cubes, in this order, and
# ``cnf._search`` with a block exactly these frames.  Both functions are
# kept from the version that re-scanned every clause for each unit literal,
# with a block added: the same stop rule as ``_search``, and a branch
# choice that re-scans every clause left.


def reference_models(clauses: Iterable[tuple[int, ...]], over: Sequence[int],
                     block: Iterable[int] | None = None) -> list[tuple]:
    """Cubes ``(bits, fixed)`` covering every assignment over ``over`` that
    satisfies the int clauses, in search order; with a ``block``, frames
    ``(bits, fixed, clauses)`` that also hold the clauses left.

    Bit j of ``fixed`` is set when the search bound ``over[j]``, and bit j
    of ``bits`` then holds its value; every row that agrees with ``bits``
    on ``fixed`` is a model, whatever its free bits.  The cubes are
    pairwise disjoint (two of them differ in some branch variable), so a
    model count is the sum of ``2**(len(over) - popcount(fixed))``.

    Backtracking search over an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  Each frame sets the literals of
    the unit clauses that ``reference_reduce`` reported, until none is left
    or a clause is falsified.  It then branches, False first, on the variable
    occurring in the most 2-literal clauses (ties to the first such
    variable in clause order), or, with no 2-literal clause left, on the
    smallest occurring variable.  A frame with every clause satisfied
    yields its cube.  No rows are built: ``_model_rows`` expands the cubes.

    With a block, only its variables are branched on: a frame stops once
    no clause left holds a block variable and yields its bits, mask and
    clauses left, in clause order.  It branches on the block variable in
    the most 2-literal clauses (ties as above), or, with none in a
    2-literal clause, on the smallest block variable that a clause holds.
    """
    position = {v: j for j, v in enumerate(over)}
    frames: list[tuple] = []
    clauses = list(clauses)
    if not all(clauses):
        return frames
    inside = None if block is None else set(block)
    stack = [(clauses, [c[0] for c in clauses if len(c) == 1], 0, 0)]
    while stack:
        clauses, units, bits, fixed = stack.pop()
        while units:
            unit = units.pop()
            bit = 1 << position[abs(unit)]
            if fixed & bit:
                # Set already, and to this value: a unit clause stays in
                # ``clauses`` until its variable is set, and the other
                # value would have falsified it.
                continue
            reduced = reference_reduce(clauses, unit)
            if reduced is None:
                break
            clauses, new = reduced
            units += new
            fixed |= bit
            if unit > 0:
                bits |= bit
        else:  # no unit clause was falsified
            if inside is None:
                if not clauses:
                    frames.append((bits, fixed))
                    continue
                binary = Counter([abs(x) for c in clauses if len(c) == 2
                                  for x in c])
                var = (max(binary, key=binary.__getitem__) if binary
                       else min(abs(c[0]) for c in clauses))
            else:
                held = [abs(x) for c in clauses for x in c
                        if abs(x) in inside]
                if not held:
                    frames.append((bits, fixed, clauses))
                    continue
                binary = Counter([abs(x) for c in clauses if len(c) == 2
                                  for x in c if abs(x) in inside])
                var = (max(binary, key=binary.__getitem__) if binary
                       else min(held))
            bit = 1 << position[var]
            # Pushed True first, so the False branch is searched first.
            for lit, value in ((var, bit), (-var, 0)):
                reduced = reference_reduce(clauses, lit)
                if reduced is not None:
                    stack.append((*reduced, bits | value, fixed | bit))
    return frames


def reference_pivot_branches(formula: CnfFormula, pivot_index: int
                             ) -> list[WorkItem]:
    """The 2**k - 1 branches of ``clause_pivot_decompose`` built one-shot:
    each partial assignment of the pivot clause substituted into the root,
    in ``partial_assignments`` order."""
    pivot = Clause(formula.to_ints()[pivot_index])
    return [WorkItem(q, substitute(formula, q), 1)
            for q in partial_assignments(pivot)]


def reference_reduce(clauses: Sequence[tuple[int, ...]], lit: int
                     ) -> tuple[list[tuple[int, ...]], list[int]] | None:
    """The clauses with ``lit`` set true (satisfied clauses dropped,
    ``-lit`` cut from the rest) and the literals of the unit clauses the
    cut made; None when a clause loses its last literal."""
    out = []
    units = []
    neg = -lit
    for clause in clauses:
        if lit in clause:
            continue
        if neg in clause:
            if len(clause) == 1:
                return None
            clause = tuple([x for x in clause if x != neg])
            if len(clause) == 1:
                units.append(clause[0])
        out.append(clause)
    return out, units


# -- the DIMACS reader as it was before the bulk pass ----------------------
# ``cnf.parse_dimacs`` must return the same formula, warn the same texts in
# the same order and raise the same error on the same line.  Both functions
# are kept verbatim from the version that read the text line by line.


def reference_ints_are_dimacs(text: str) -> bool:
    # Whether int() of each word of text is a DIMACS integer (an optional
    # sign, then ASCII digits) or fails: int() also takes "_" separators and
    # any Unicode decimal digit, which ASCII text without "_" cannot hold.
    return text.isascii() and "_" not in text


def reference_parse_dimacs(source: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text into a formula over universe {1..nvars}.

    Comment lines start with 'c' and may hold any bytes; elsewhere a byte
    that is not UTF-8 is a bad token.  A single ``p cnf <nvars> <nclauses>``
    header precedes the clauses; clauses are 0-terminated signed integers
    (an optional ``+`` or ``-``, then ASCII digits) and may span lines.
    Lines end at LF only (a CR before it is dropped), so a form feed or
    U+2028 inside a comment does not end the comment.
    Normalization (dropped tautologies or duplicates) and a clause count
    differing from the header produce warnings, not errors.  A header of
    more than 2**20 variables is an error on its line.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8", errors="replace")

    num_vars = None
    num_clauses_declared = 0
    raw_clauses: list[list[int]] = []
    current: list[int] = []
    current_start_line = 0

    for lineno, line in enumerate(source.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsParseError("duplicate header", lineno)
            parts = stripped.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not reference_ints_are_dimacs(stripped)):
                raise DimacsParseError(f"malformed header {stripped!r}", lineno)
            try:
                num_vars = int(parts[2])
                num_clauses_declared = int(parts[3])
            except ValueError:
                raise DimacsParseError(f"malformed header {stripped!r}", lineno) from None
            if num_vars < 0 or num_clauses_declared < 0:
                raise DimacsParseError("negative counts in header", lineno)
            if num_vars > 1 << 20:
                raise DimacsParseError(
                    f"header declares {num_vars} variables, capped at 2**20",
                    lineno)
            continue
        if num_vars is None:
            raise DimacsParseError("clause before header", lineno)
        checked = reference_ints_are_dimacs(stripped)
        for token in stripped.split():
            try:
                if not (checked or reference_ints_are_dimacs(token)):
                    raise ValueError(token)
                value = int(token)
            except ValueError:
                raise DimacsParseError(f"bad token {token!r}", lineno) from None
            if value == 0:
                if not current:
                    raise DimacsParseError("empty clause", lineno)
                raw_clauses.append(current)
                current = []
                continue
            if abs(value) > num_vars:
                raise DimacsParseError(
                    f"literal {value} out of range 1..{num_vars}", lineno)
            if not current:
                current_start_line = lineno
            current.append(value)

    if num_vars is None:
        raise DimacsParseError("missing 'p cnf' header", 1)
    if current:
        raise DimacsParseError("unterminated clause", current_start_line)
    if len(raw_clauses) != num_clauses_declared:
        warnings.warn(
            f"header declares {num_clauses_declared} clauses, found {len(raw_clauses)}",
            NormalizationWarning, stacklevel=2)

    formula = CnfFormula(raw_clauses, universe=range(1, num_vars + 1))
    if len(formula._clauses) != len(raw_clauses):
        warnings.warn(
            f"normalization reduced {len(raw_clauses)} clauses to "
            f"{len(formula._clauses)}", NormalizationWarning, stacklevel=2)
    return formula


# -- the printed tree as it was before the per-call text caches -------------
# ``DecompositionTree.serialize`` and ``--format json`` ``--mode decompose``
# must write exactly these bytes.  Both functions are kept from the version
# that built each node's line from a list of parts, and handed the JSON
# ``tree`` array to ``json.dumps`` as a list of dicts.


def reference_serialize(tree) -> str:
    """The text form of a ``DecompositionTree``, one node per line."""
    lines = []
    texts: dict[tuple[int, ...], str] = {}  # leaves share clause tuples
    for node in tree.nodes:
        item = node.item
        parts = [str(node.node_id), str(node.parent), str(item.depth),
                 node.status, "q", *map(str, item.prefix.to_literals()),
                 "0"]
        if node.status in ("solvable", "trivial"):
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


def reference_tree_json(tree) -> list[dict]:
    """The node objects of the ``tree`` array of ``--format json``."""
    out = []
    for node in tree.nodes:
        entry = {
            "id": node.node_id,
            "parent": node.parent,
            "depth": node.item.depth,
            "status": node.status,
            "prefix": node.item.prefix.to_literals(),
        }
        if node.status in ("solvable", "trivial"):
            entry["universe"] = node.item.formula.universe
            entry["clauses"] = node.item.formula.to_ints()
        out.append(entry)
    return out
