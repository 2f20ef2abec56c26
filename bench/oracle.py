"""Reference answers for the benchmark, computed without cofsat.

The solver here works on plain signed-int clauses and imports nothing from
the package under test, so a defect in cofsat cannot hide in its own
checker.  ``Expected`` holds what every mode must print for one instance;
``check_output`` compares one call's exit status and output against it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

Clauses = Sequence[Sequence[int]]

LIVE_STATUSES = ("solvable", "trivial")
NODE_STATUSES = ("internal", "solvable", "trivial", "unsat")


def reduce_clauses(clauses: Clauses, literals: Sequence[int]):
    """Clauses left after making every given literal true.

    Satisfied clauses are dropped and falsified literals removed; returns
    None when a clause loses all its literals.
    """
    true = set(literals)
    false = {-lit for lit in literals}
    out = []
    for clause in clauses:
        if any(lit in true for lit in clause):
            continue
        rest = tuple(lit for lit in clause if lit not in false)
        if not rest:
            return None
        out.append(rest)
    return out


def model_cubes(clauses: Clauses) -> list[tuple[int, ...]]:
    """Disjoint cubes covering every model, by DPLL with unit propagation.

    A cube is the tuple of literals a branch bound; variables it leaves out
    are free.  Branches differ in one bound literal, so cubes never overlap.
    """
    cubes: list[tuple[int, ...]] = []

    def search(rest, bound: tuple[int, ...]) -> None:
        while True:
            unit = next((c for c in rest if len(c) == 1), None)
            if unit is None:
                break
            bound += unit
            rest = reduce_clauses(rest, unit)
            if rest is None:
                return
        if not rest:
            cubes.append(bound)
            return
        var = abs(rest[0][0])
        for lit in (-var, var):
            reduced = reduce_clauses(rest, (lit,))
            if reduced is not None:
                search(reduced, bound + (lit,))

    search([tuple(c) for c in clauses], ())
    return cubes


def count_models(clauses: Clauses, num_vars: int) -> int:
    """Models over ``num_vars`` variables (every clause variable included)."""
    return sum(1 << (num_vars - len(cube)) for cube in model_cubes(clauses))


def cube_rows(cube: Sequence[int], num_vars: int) -> list[int]:
    """Every row over variables 1..num_vars that sets the cube's literals;
    bit j is var j+1."""
    bound = {abs(lit) for lit in cube}
    rows = [sum(1 << (lit - 1) for lit in cube if lit > 0)]
    for var in range(1, num_vars + 1):
        if var not in bound:
            rows += [row | 1 << (var - 1) for row in rows]
    return rows


def model_rows(clauses: Clauses, num_vars: int) -> list[int]:
    """Every model over variables 1..num_vars, ascending."""
    return sorted(row for cube in model_cubes(clauses)
                  for row in cube_rows(cube, num_vars))


def row_line(row: int, num_vars: int) -> str:
    """Canonical text of a row: signed literals 1..n, then `` 0``."""
    return " ".join(str(v if row >> (v - 1) & 1 else -v)
                    for v in range(1, num_vars + 1)) + " 0\n"


def text_digest(rows: Sequence[int], num_vars: int) -> str:
    text = "".join(row_line(row, num_vars) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Expected:
    """What a correct run prints for one instance."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    count: int
    min_row: int | None  # the documented sat witness: the smallest row
    allsat_sha256: str
    rows: frozenset[int]  # every model, for checking a tree's coverage

    @property
    def exit_status(self) -> int:
        return 10 if self.count else 20

    def witness(self) -> list[int]:
        return [v if self.min_row >> (v - 1) & 1 else -v
                for v in range(1, self.num_vars + 1)]


def solve(clauses: Clauses, num_vars: int) -> Expected:
    rows = model_rows(clauses, num_vars)
    return Expected(num_vars, tuple(tuple(c) for c in clauses), len(rows),
                    rows[0] if rows else None, text_digest(rows, num_vars),
                    frozenset(rows))


def _canonical_block(clauses) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(c, key=abs)) for c in clauses)


def check_tree(nodes: list[dict], expected: Expected, disjoint: bool,
               pivot_clause: int = 0) -> str | None:
    """Check a decomposition tree given as node dicts (see parse_tree_text).

    Every live leaf's clause block must equal this module's reduction of the
    input under the leaf's prefix, over the unbound rest of the universe.
    On clause-pivot trees a dead leaf must falsify a clause outright.
    Together the live leaves must cover every model, so that no branch is
    missing; on variable-partition trees (``disjoint``) they partition the
    models, so their counts must also add up to the model count.  Clause
    branches overlap, so on clause-pivot trees the leaves must also be one
    per nonempty subset of the pivot clause's literals, set true.
    """
    if not nodes or nodes[0]["parent"] != -1:
        return "tree has no root"
    if not disjoint:
        pivot = expected.clauses[pivot_clause]
        want = {frozenset(c) for size in range(1, len(pivot) + 1)
                for c in combinations(pivot, size)}
        got = [frozenset(n["prefix"]) for n in nodes if n["status"] != "internal"]
        if len(got) != len(want) or set(got) != want:
            return (f"leaves are not the {len(want)} branches of pivot "
                    f"clause {pivot_clause}")
    universe = set(range(1, expected.num_vars + 1))
    total = 0
    covered: set[int] = set()
    for node in nodes:
        if node["status"] not in NODE_STATUSES:
            return f"node {node['id']}: unknown status {node['status']!r}"
        if node["status"] == "internal":
            continue
        prefix = node["prefix"]
        reduced = reduce_clauses(expected.clauses, prefix)
        if node["status"] == "unsat" and not disjoint and reduced is not None:
            return f"leaf {node['id']}: branch {prefix} marked dead but is not"
        if node["status"] not in LIVE_STATUSES:
            continue
        if reduced is None:
            return f"leaf {node['id']}: prefix {prefix} falsifies a clause"
        if _canonical_block(node["clauses"]) != sorted(set(_canonical_block(reduced))):
            return f"leaf {node['id']}: clause block differs from the reduction"
        rest = universe - {abs(lit) for lit in prefix}
        if sorted(node["universe"]) != sorted(rest):
            return f"leaf {node['id']}: universe is not the unbound variables"
        for cube in model_cubes(node["clauses"]):
            rows = cube_rows(tuple(prefix) + cube, expected.num_vars)
            total += len(rows)
            covered.update(rows)
    if covered != expected.rows:
        return (f"live leaves cover {len(covered & expected.rows)} of "
                f"{expected.count} models")
    if disjoint and total != expected.count:
        return f"leaf counts add to {total}, expected {expected.count} models"
    return None


def parse_tree_text(text: str) -> list[dict]:
    """Parse the ``--mode decompose`` text grammar into node dicts."""
    nodes = []
    for line in text.splitlines():
        tok = line.split()
        node = {"id": int(tok[0]), "parent": int(tok[1]), "status": tok[3]}
        if tok[4] != "q":
            raise ValueError(f"expected 'q' in {line!r}")
        end = tok.index("0", 5)
        node["prefix"] = [int(t) for t in tok[5:end]]
        pos = end + 1
        if pos < len(tok):
            if tok[pos] != "u":
                raise ValueError(f"expected 'u' in {line!r}")
            end = tok.index("0", pos + 1)
            node["universe"] = [int(t) for t in tok[pos + 1:end]]
            if tok[end + 1] != "c":
                raise ValueError(f"expected 'c' in {line!r}")
            clauses, current = [], []
            for t in tok[end + 3:]:
                if t == "0":
                    clauses.append(current)
                    current = []
                else:
                    current.append(int(t))
            if current or len(clauses) != int(tok[end + 2]):
                raise ValueError(f"clause block does not match its count in {line!r}")
            node["clauses"] = clauses
        nodes.append(node)
    return nodes


def check_output(mode: str, fmt: str, pivot: str, status: int, out: str,
                 expected: Expected, pivot_clause: int = 0) -> str | None:
    """None when one call's exit status and output are correct, else why not."""
    want_status = 0 if mode == "decompose" else expected.exit_status
    if status != want_status:
        return f"exit status {status}, expected {want_status}"
    if mode == "decompose":
        if fmt == "json":
            payload = json.loads(out)
            if payload.get("status") != "OK":
                return f"decompose status {payload.get('status')!r}"
            nodes = payload["tree"]
        else:
            nodes = parse_tree_text(out)
        return check_tree(nodes, expected, disjoint=pivot == "vars",
                          pivot_clause=pivot_clause)
    sat = expected.count > 0
    if fmt == "json":
        payload = json.loads(out)
        if payload.get("status") != ("SATISFIABLE" if sat else "UNSATISFIABLE"):
            return f"status {payload.get('status')!r}"
        if payload.get("count") != expected.count:
            return f"count {payload.get('count')}, expected {expected.count}"
        if mode == "sat":
            want = [expected.witness()] if sat else None
            if payload.get("solutions") != want:
                return "sat witness is not the smallest model"
        elif mode == "allsat":
            rows = payload.get("solutions", [])
            text = "".join(" ".join(map(str, r)) + " 0\n" for r in rows)
            if hashlib.sha256(text.encode()).hexdigest() != expected.allsat_sha256:
                return "allsat rows differ from the reference"
        return None
    if mode == "sat":
        want = "SATISFIABLE\n" + " ".join(map(str, expected.witness())) + " 0\n" \
            if sat else "UNSATISFIABLE\n"
    elif mode == "count":
        want = f"{expected.count}\n"
    else:
        if hashlib.sha256(out.encode()).hexdigest() != expected.allsat_sha256:
            return "allsat text differs from the reference"
        return None
    if out != want:
        return f"output {out[:60]!r} differs from {want[:60]!r}"
    return None
