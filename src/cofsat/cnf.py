"""Symbolic CNF formulas: DIMACS I/O, clause SAT sets, and reduction.

Variables are positive integers as in DIMACS.  A clause is a set of
literals; a formula is an ordered, duplicate-free list of clauses together
with its variable universe.  Every clause is a tuple of signed ints
(DIMACS literals) in variable order.  ``Clause`` is the one view of such a
tuple: it iterates the ints and is built only when ``CnfFormula.clauses``
is read.  Formulas and assignments are immutable values: ``substitute``
returns a new formula, so everything here is safe to share across threads.

The key operations mirror the decomposition machinery: ``sat_set`` gives the
assignment making every literal of a clause true, ``partial_assignments``
enumerates its 2**k - 1 nonempty subsets in a fixed order, and
``substitute`` reduces a formula under a partial assignment, returning the
``UNSAT`` marker when a clause is falsified outright.  ``_models`` is the
one backtracking search over int clauses.  It yields cubes, not rows: a
cube ``(bits, fixed)`` is the values the search fixed on one branch and
the mask of which variables it fixed, and it stands for every row that
agrees with it.  The cubes are disjoint, so callers count them without
building rows, take the least row of a cube (its free bits 0), or expand
them with ``_model_rows``: leaf solving, ``SolutionSet.complete`` and the
X1 enumeration of variable-partition decomposition.  Each search frame
propagates the unit clauses that its one-literal step ``_reduce``
reports, then branches on the variable in the most 2-literal clauses.
``_reduce`` also does the work of ``substitute``.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import combinations

from .boolfn import MAX_VARS, CapacityError, TruthTable

__all__ = [
    "MAX_ENUM_VARS",
    "NormalizationWarning",
    "DimacsParseError",
    "Clause",
    "CnfFormula",
    "PartialAssignment",
    "SolutionSet",
    "UNSAT",
    "UnsatMarker",
    "parse_dimacs",
    "emit_dimacs",
    "sat_set",
    "partial_assignments",
    "substitute",
    "to_truth_table",
    "formula_vars",
]

# Largest variable list whose rows are expanded (2**20 rows at most): by
# ``_model_rows`` for one formula, and by ``allsat.gather`` for a tree.
MAX_ENUM_VARS = 20


class NormalizationWarning(UserWarning):
    """A formula was silently normalized (tautology or duplicate dropped)."""


class DimacsParseError(ValueError):
    """Malformed DIMACS input; carries the 1-based source line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _normalize(literals: Iterable[int]) -> tuple[int, ...]:
    """A clause's literals deduplicated and sorted by variable, negative
    first; 0 is rejected."""
    ints = set(literals)
    if 0 in ints:
        raise ValueError("0 is not a literal")
    return tuple(sorted(ints, key=lambda x: (abs(x), x)))


def _is_tautology(ints: tuple[int, ...]) -> bool:
    """Whether a normalized clause holds some variable in both polarities."""
    return len({abs(x) for x in ints}) != len(ints)


class Clause:
    """A disjunction of literals: a view of a signed-int tuple in variable
    order, deduplicated."""

    __slots__ = ("_ints",)

    def __init__(self, literals: Iterable[int]):
        self._ints = _normalize(literals)

    @classmethod
    def _view(cls, ints: tuple[int, ...]) -> "Clause":
        clause = cls.__new__(cls)
        clause._ints = ints
        return clause

    @property
    def is_empty(self) -> bool:
        return not self._ints

    @property
    def is_tautology(self) -> bool:
        return _is_tautology(self._ints)

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(sorted({abs(x) for x in self._ints}))

    def to_ints(self) -> tuple[int, ...]:
        return self._ints

    def satisfied_by(self, bindings: Mapping[int, bool]) -> bool:
        return any(
            abs(x) in bindings and bindings[abs(x)] == (x > 0)
            for x in self._ints)

    def __len__(self) -> int:
        return len(self._ints)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self._ints)

    def __str__(self) -> str:
        return "(" + " + ".join(
            f"x{x}" if x > 0 else f"x{-x}'" for x in self._ints) + ")"

    def __repr__(self) -> str:
        return f"Clause({list(self._ints)!r})"


class UnsatMarker:
    """Sentinel result of a substitution that falsified a clause."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSAT"


UNSAT = UnsatMarker()


class CnfFormula:
    """An ordered list of clauses over an explicit variable universe.

    Construction normalizes: tautological clauses and exact duplicates are
    dropped (with a NormalizationWarning), empty clauses are rejected.  The
    universe defaults to the variables that occur, and may be widened, by
    positive variables only, but never narrowed.  Clauses are stored as
    signed-int tuples (``to_ints``); ``clauses`` builds ``Clause`` views of
    them on each read.
    """

    __slots__ = ("_clauses", "_universe")

    def __init__(
        self,
        clauses: Iterable[Iterable[int]],
        universe: Iterable[int] | None = None,
    ):
        normalized: dict[tuple[int, ...], None] = {}
        for clause in clauses:
            ints = _normalize(clause)
            if not ints:
                raise ValueError("formulas cannot contain the empty clause")
            if _is_tautology(ints):
                warnings.warn(
                    f"dropped tautological clause {Clause._view(ints)}",
                    NormalizationWarning, stacklevel=2)
                continue
            if ints in normalized:
                warnings.warn(
                    f"dropped duplicate clause {Clause._view(ints)}",
                    NormalizationWarning, stacklevel=2)
                continue
            normalized[ints] = None
        self._clauses = tuple(normalized)

        occurring = {abs(x) for c in self._clauses for x in c}
        if universe is None:
            self._universe = tuple(sorted(occurring))
        else:
            universe_set = set(universe)
            nonpositive = sorted(v for v in universe_set if v < 1)
            if nonpositive:
                raise ValueError(
                    f"universe variables are positive integers, got {nonpositive}")
            missing = occurring - universe_set
            if missing:
                raise ValueError(
                    f"universe is missing occurring variables {sorted(missing)}")
            self._universe = tuple(sorted(universe_set))

    @classmethod
    def _normalized(cls, clauses: tuple, universe: tuple) -> "CnfFormula":
        """Wrap int clauses and a universe already in normal form, unchecked."""
        formula = cls.__new__(cls)
        formula._clauses = clauses
        formula._universe = universe
        return formula

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return tuple(map(Clause._view, self._clauses))

    def to_ints(self) -> tuple[tuple[int, ...], ...]:
        """The clauses as signed-int tuples, each in variable order."""
        return self._clauses

    @property
    def universe(self) -> tuple[int, ...]:
        return self._universe

    @property
    def num_vars(self) -> int:
        return len(self._universe)

    @property
    def is_empty(self) -> bool:
        return not self._clauses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self._clauses == other._clauses and self._universe == other._universe

    def __hash__(self) -> int:
        return hash((self._clauses, self._universe))

    def __str__(self) -> str:
        if not self._clauses:
            return "(empty)"
        return "".join(str(c) for c in self.clauses)

    def __repr__(self) -> str:
        return (f"CnfFormula({[list(c) for c in self._clauses]!r}, "
                f"universe={list(self._universe)!r})")


class PartialAssignment(Mapping):
    """An immutable finite mapping from variables to truth values, kept in
    ascending variable order."""

    __slots__ = ("_bindings",)

    def __init__(
        self,
        bindings: Mapping[int, bool] | Iterable[tuple[int, bool]] = (),
    ):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        mapping: dict[int, bool] = {}
        for var, value in items:
            if var < 1:
                raise ValueError("variables are positive integers")
            value = bool(value)
            if mapping.get(var, value) != value:
                raise ValueError(f"conflicting bindings for variable {var}")
            mapping[var] = value
        self._bindings = dict(sorted(mapping.items()))

    @classmethod
    def _sorted(cls, bindings: dict[int, bool]) -> "PartialAssignment":
        """Wrap a dict of bool values over positive variables, already in
        ascending variable order, unchecked."""
        assignment = cls.__new__(cls)
        assignment._bindings = bindings
        return assignment

    @classmethod
    def from_literals(cls, literals: Iterable[int]) -> "PartialAssignment":
        return cls((abs(v), v > 0) for v in literals)

    def to_literals(self) -> tuple[int, ...]:
        return tuple(
            var if value else -var for var, value in self._bindings.items())

    def __getitem__(self, var: int) -> bool:
        return self._bindings[var]

    def __contains__(self, var: object) -> bool:
        return var in self._bindings

    def keys(self):
        return self._bindings.keys()

    def items(self):
        return self._bindings.items()

    def __iter__(self) -> Iterator[int]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __hash__(self) -> int:
        return hash(tuple(self._bindings.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PartialAssignment):
            return self._bindings == other._bindings
        if isinstance(other, Mapping):
            return self._bindings == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={int(b)}" for v, b in self._bindings.items())
        return f"PartialAssignment({{{inner}}})"


class SolutionSet:
    """Full assignments over an ordered variable list, canonically stored.

    Rows are bit-encoded integers (bit j is the value of ``over[j]``), kept
    sorted and duplicate-free.
    """

    __slots__ = ("_over", "_rows")

    def __init__(self, over: Iterable[int], rows: Iterable[int] = ()):
        self._over = tuple(sorted(set(over)))
        limit = 1 << len(self._over)
        unique = sorted(set(rows))
        for row in unique:
            if not 0 <= row < limit:
                raise ValueError(f"row {row} out of range for {len(self._over)} variables")
        self._rows = tuple(unique)

    @classmethod
    def from_assignments(
        cls, over: Iterable[int], assignments: Iterable[Mapping[int, bool]]
    ) -> "SolutionSet":
        over = tuple(sorted(set(over)))
        position = {v: j for j, v in enumerate(over)}
        rows = []
        for assignment in assignments:
            if set(assignment) != set(over):
                raise ValueError("assignment does not match the variable list")
            row = 0
            for v, value in assignment.items():
                if value:
                    row |= 1 << position[v]
            rows.append(row)
        return cls(over, rows)

    @classmethod
    def complete(cls, over: Iterable[int]) -> "SolutionSet":
        """All assignments over the variable list."""
        over = tuple(sorted(set(over)))
        return cls(over, _model_rows((), over))

    @property
    def over(self) -> tuple[int, ...]:
        return self._over

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    @property
    def count(self) -> int:
        return len(self._rows)

    def row_to_literals(self, row: int) -> tuple[int, ...]:
        return tuple(
            v if row >> j & 1 else -v for j, v in enumerate(self._over))

    def assignments(self) -> Iterator[PartialAssignment]:
        for row in self._rows:
            yield PartialAssignment(
                (v, bool(row >> j & 1)) for j, v in enumerate(self._over))

    def to_text(self) -> str:
        """One row per line as 0-terminated signed literals."""
        return "".join(
            " ".join([*(str(lit) for lit in self.row_to_literals(row)), "0"])
            + "\n"
            for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __contains__(self, row: int) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionSet):
            return NotImplemented
        return self._over == other._over and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._over, self._rows))

    def __repr__(self) -> str:
        return f"SolutionSet(over={self._over!r}, rows={len(self._rows)})"


# -- DIMACS ---------------------------------------------------------------


def _ints_are_dimacs(text: str) -> bool:
    # Whether int() of each word of text is a DIMACS integer (an optional
    # sign, then ASCII digits) or fails: int() also takes "_" separators and
    # any Unicode decimal digit, which ASCII text without "_" cannot hold.
    return text.isascii() and "_" not in text


def parse_dimacs(source: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text into a formula over universe {1..nvars}.

    Comment lines start with 'c' and may hold any bytes; elsewhere a byte
    that is not UTF-8 is a bad token.  A single ``p cnf <nvars> <nclauses>``
    header precedes the clauses; clauses are 0-terminated signed integers
    (an optional ``+`` or ``-``, then ASCII digits) and may span lines.
    Lines end at LF only (a CR before it is dropped), so a form feed or
    U+2028 inside a comment does not end the comment.
    Normalization (dropped tautologies or duplicates) and a clause count
    differing from the header produce warnings, not errors.
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
                    or not _ints_are_dimacs(stripped)):
                raise DimacsParseError(f"malformed header {stripped!r}", lineno)
            try:
                num_vars = int(parts[2])
                num_clauses_declared = int(parts[3])
            except ValueError:
                raise DimacsParseError(f"malformed header {stripped!r}", lineno) from None
            if num_vars < 0 or num_clauses_declared < 0:
                raise DimacsParseError("negative counts in header", lineno)
            continue
        if num_vars is None:
            raise DimacsParseError("clause before header", lineno)
        checked = _ints_are_dimacs(stripped)
        for token in stripped.split():
            try:
                if not (checked or _ints_are_dimacs(token)):
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


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS text: LF newlines, one clause per line.

    Round-trips exactly through parse_dimacs for normalized formulas, i.e.
    those whose universe is {1..nvars}.
    """
    num_vars = max(formula.universe, default=0)
    lines = [f"p cnf {num_vars} {len(formula._clauses)}"]
    for clause in formula._clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


# -- clause-level operations ----------------------------------------------


def sat_set(clause: Clause) -> PartialAssignment:
    """The assignment making every literal of the clause true."""
    if clause.is_empty:
        raise ValueError("the empty clause has no SAT set")
    return PartialAssignment.from_literals(clause.to_ints())


def partial_assignments(clause: Clause) -> list[PartialAssignment]:
    """All 2**k - 1 nonempty subsets of the clause's SAT set.

    Emitted in canonical order: ascending subset size, then lexicographic by
    literal position within the variable-sorted clause.
    """
    if clause.is_empty:
        raise ValueError("the empty clause defines no partial assignments")
    literals = clause.to_ints()
    return [PartialAssignment.from_literals(combo)
            for size in range(1, len(literals) + 1)
            for combo in combinations(literals, size)]


def substitute(
    formula: CnfFormula, bindings: Mapping[int, bool]
) -> CnfFormula | UnsatMarker:
    """Reduce a formula under a partial assignment.

    Each bound literal is set in turn by the search's ``_reduce``:
    satisfied clauses are dropped, falsified literals removed.  Surviving
    duplicates are then merged, first occurrence kept.  A clause losing all
    its literals means the reduced formula is unsatisfiable: the UNSAT
    marker is returned.  The universe of the result is the unbound remainder
    of the input universe.
    """
    clauses = formula._clauses
    for var, value in bindings.items():
        reduced = _reduce(clauses, var if value else -var)
        if reduced is None:
            return UNSAT
        clauses = reduced[0]
    remaining = tuple(v for v in formula._universe if v not in bindings)
    return CnfFormula._normalized(tuple(dict.fromkeys(clauses)), remaining)


def _models(clauses: Iterable[tuple[int, ...]], over: Sequence[int]
            ) -> list[tuple[int, int]]:
    """Cubes ``(bits, fixed)`` covering every assignment over ``over`` that
    satisfies the int clauses, in search order.

    Bit j of ``fixed`` is set when the search bound ``over[j]``, and bit j
    of ``bits`` then holds its value; every row that agrees with ``bits``
    on ``fixed`` is a model, whatever its free bits.  The cubes are
    pairwise disjoint (two of them differ in some branch variable), so a
    model count is the sum of ``2**(len(over) - popcount(fixed))``.

    Backtracking search over an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  Each frame sets the literals of
    the unit clauses that ``_reduce`` reported, until none is left or a
    clause is falsified.  It then branches, False first, on the variable
    occurring in the most 2-literal clauses (ties to the first such
    variable in clause order), or, with no 2-literal clause left, on the
    smallest occurring variable.  A frame with every clause satisfied
    yields its cube.  No rows are built: ``_model_rows`` expands the cubes.
    """
    position = {v: j for j, v in enumerate(over)}
    cubes: list[tuple[int, int]] = []
    clauses = list(clauses)
    if not all(clauses):
        return cubes
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
            reduced = _reduce(clauses, unit)
            if reduced is None:
                break
            clauses, new = reduced
            units += new
            fixed |= bit
            if unit > 0:
                bits |= bit
        else:  # no unit clause was falsified
            if not clauses:
                cubes.append((bits, fixed))
                continue
            binary = Counter([abs(x) for c in clauses if len(c) == 2
                              for x in c])
            var = (max(binary, key=binary.__getitem__) if binary
                   else min(abs(c[0]) for c in clauses))
            bit = 1 << position[var]
            # Pushed True first, so the False branch is searched first.
            for lit, value in ((var, bit), (-var, 0)):
                reduced = _reduce(clauses, lit)
                if reduced is not None:
                    stack.append((*reduced, bits | value, fixed | bit))
    return cubes


def _model_rows(clauses: Iterable[tuple[int, ...]], over: Sequence[int]
                ) -> list[int]:
    """Rows (bit j = value of ``over[j]``) of every assignment over
    ``over`` satisfying the int clauses, each once: the cubes of
    ``_models`` expanded over their free bits, in search order.

    More than ``MAX_ENUM_VARS`` variables raise ``CapacityError`` before
    the search starts.
    """
    if len(over) > MAX_ENUM_VARS:
        raise CapacityError(
            f"enumeration capped at {MAX_ENUM_VARS} variables, "
            f"formula has {len(over)}")
    width = range(len(over))
    rows: list[int] = []
    for bits, fixed in _models(clauses, over):
        free = [j for j in width if not fixed >> j & 1]
        rows.extend(_scatter((0,), (), free, bits))
    return rows


def _reduce(clauses: Sequence[tuple[int, ...]], lit: int
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


def _scatter(rows: Iterable[int], targets: Sequence[int],
             free: Sequence[int] = (), base: int = 0) -> list[int]:
    """Move bit j of each row to bit ``targets[j]``, OR in ``base``, and
    expand over every combination of the ``free`` bit positions."""
    fills = [base]
    for pos in free:
        fills += [fill | 1 << pos for fill in fills]
    out: list[int] = []
    for row in rows:
        placed = 0
        for j, target in enumerate(targets):
            if row >> j & 1:
                placed |= 1 << target
        out.extend([placed | fill for fill in fills])
    return out


def to_truth_table(formula: CnfFormula) -> TruthTable:
    """Dense truth table of the formula over its sorted universe.

    Variable at universe position j maps to table variable j.  This is the
    independent evaluation path used to cross-check the enumerating solver.
    """
    n = len(formula.universe)
    if n > MAX_VARS:
        raise CapacityError(
            f"truth tables support at most {MAX_VARS} variables, formula has {n}")
    full = TruthTable.constant(n, True).bits
    projection = {
        v: TruthTable.variable(n, j).bits for j, v in enumerate(formula.universe)}
    bits = full
    for clause in formula._clauses:
        acc = 0
        for x in clause:
            acc |= projection[x] if x > 0 else full ^ projection[-x]
        bits &= acc
    return TruthTable(n, bits)


def formula_vars(formula: CnfFormula) -> tuple[int, ...]:
    """Sorted distinct variables occurring in the formula's clauses."""
    return tuple(sorted({abs(x) for c in formula._clauses for x in c}))
