"""Symbolic CNF formulas: DIMACS I/O, clause SAT sets, and reduction.

Variables are positive integers as in DIMACS.  A clause is a set of
literals; a formula is an ordered, duplicate-free list of clauses together
with its variable universe.  Every clause is a tuple of signed ints
(DIMACS literals) in variable order.  ``Clause`` is the one view of such a
tuple: it iterates the ints and is built only when ``CnfFormula.clauses``
is read.  Formulas and assignments are immutable values: ``substitute``
returns a new formula, so everything here is safe to share across threads.
``parse_dimacs`` reads valid DIMACS text in one bulk pass over its tokens,
keeps clauses already in normal form as read, and walks the text line by
line only to locate the first error of invalid text.

The key operations mirror the decomposition machinery: ``sat_set`` gives the
assignment making every literal of a clause true, ``partial_assignments``
enumerates its 2**k - 1 nonempty subsets in a fixed order, and
``substitute`` reduces a formula under a partial assignment, returning
``None`` when a clause is falsified outright.  ``_search`` is the one
backtracking search over int clauses.  ``_models`` takes its cubes, not
rows: a cube ``(bits, fixed)`` is the values the search fixed on one
branch and the mask of which variables it fixed, and it stands for every
row that agrees with it.  The cubes are disjoint, so callers count them
without building rows, take the least row of a cube (its free bits 0), or
expand them with ``_cube_rows``, which stops once they hold more than
``2**MAX_ENUM_VARS`` rows: ``_model_rows`` for leaf solving and the X1
enumeration of the decomposition tree that ``--mode decompose`` prints,
``--mode allsat --pivot clause`` for the root, and ``allsat.gather`` for
the cubes of a tree's leaves.  One rule stops a branch: no clause left
holds an unset variable of its block, no block being the block of every
variable.  Restricted to a block, the search hands back the clauses left:
the children of the variable-partition tree that ``--mode allsat --pivot
vars`` solves.  Given a rule for the next block, it goes on from each such
branch with clauses left, so one search runs a whole decomposition and
solves each leaf in the frame that made it: ``--mode count``, ``--mode
sat`` and ``--mode allsat --pivot clause``.  It indexes the clauses by
literal, so each unit, the root's unit clauses included, touches only the
clauses that hold its variable.  A frame is its slots (each clause as its
bindings leave it), its units, its values and its block; it branches on
the held variable in the most 2-literal slots.  Asked for the least model
only (text ``--mode sat``, over a sorted universe), it branches on the
highest held variable, False first, and its first stopped frame is the
least model.
After a refuted frame, it probes the next frame, unless the last model
found keeps that frame's values: the probe is the counting search run
from that frame over the same literal index.
"""

from __future__ import annotations

import operator
import warnings
from collections import _count_elements  # Counter's C counting loop
from collections.abc import (Callable, Collection, Hashable, Iterable,
                             Iterator, Mapping, Sequence)
from itertools import chain, combinations, islice

from .limits import MAX_HEADER_VARS, MAX_VARS, CapacityError

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: to_truth_table loads boolfn on use
    from .boolfn import TruthTable

__all__ = [
    "MAX_ENUM_VARS",
    "NormalizationWarning",
    "DimacsParseError",
    "Clause",
    "CnfFormula",
    "PartialAssignment",
    "SolutionSet",
    "parse_dimacs",
    "emit_dimacs",
    "sat_set",
    "partial_assignments",
    "substitute",
    "to_truth_table",
]

# Most rows expanded are 2**MAX_ENUM_VARS, by ``_cube_rows``: from the
# cubes of one search, or of a tree's leaves in ``allsat.gather``.  It also
# caps the 2**k - 1 branches of a clause pivot that ``--mode decompose``
# prints (``decompose._pivot_lattice``).
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
    def vars(self) -> tuple[int, ...]:
        return tuple(sorted({abs(x) for x in self._ints}))

    def to_ints(self) -> tuple[int, ...]:
        return self._ints

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

    def __reduce__(self) -> tuple:
        return type(self), (self._ints,)


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

    def __reduce__(self) -> tuple:
        return type(self), (self._clauses, self._universe)


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

    def __reduce__(self) -> tuple:
        return type(self), (self._bindings,)


class SolutionSet:
    """Full assignments over an ordered variable list, canonically stored.

    Rows are bit-encoded integers (bit j is the value of ``over[j]``), kept
    sorted and duplicate-free.  A tuple ``over`` already strictly ascending,
    such as a formula's universe, is kept as given.
    """

    __slots__ = ("_over", "_rows")

    def __init__(self, over: Iterable[int], rows: Iterable[int] = ()):
        if not (isinstance(over, tuple)
                and all(map(operator.lt, over, islice(over, 1, None)))):
            over = tuple(sorted(set(over)))
        self._over = over
        limit = 1 << len(self._over)
        unique = sorted(set(rows))
        # Sorted, so the ends bound every row; only a failure scans them.
        if unique and (unique[0] < 0 or unique[-1] >= limit):
            row = next(r for r in unique if not 0 <= r < limit)
            raise ValueError(f"row {row} out of range for {len(self._over)} variables")
        self._rows = tuple(unique)

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
        # One string of bits, bit 0 first: a shift per bit is quadratic.
        bits = format(row, f"0{len(self._over)}b")[::-1]
        return tuple(v if bit == "1" else -v for v, bit in zip(self._over, bits))

    def to_text(self) -> str:
        """One row per line as 0-terminated signed literals."""
        # A row is read a byte at a time: key ``k << 8 | byte`` is the text
        # of ``over[8k:8k + 8]`` under ``byte``, each literal followed by a
        # space, made the first time a row holds that byte there.
        over = self._over

        def text(key: int) -> str:
            start = key >> 8 << 3
            return "".join([f"{v} " if key >> j & 1 else f"-{v} "
                            for j, v in enumerate(over[start:start + 8])])

        size = (len(over) + 7) // 8
        texts = _Texts(text).__getitem__
        keys = range(0, size << 8, 256)
        return "".join([
            "".join(map(texts, map(operator.or_, keys,
                                   row.to_bytes(size, "little")))) + "0\n"
            for row in self._rows])

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

    def __reduce__(self) -> tuple:
        return type(self), (self._over, self._rows)


class _Texts(dict):
    """The text of each key, made by ``text`` the first time it is read."""

    __slots__ = ("text",)

    def __init__(self, text: Callable[[Hashable], str]):
        self.text = text

    def __missing__(self, key: Hashable) -> str:
        value = self[key] = self.text(key)
        return value


# -- DIMACS ---------------------------------------------------------------


def _ints_are_dimacs(text: str) -> bool:
    # Whether int() of each word of text is a DIMACS integer (an optional
    # sign, then ASCII digits) or fails: int() also takes "_" separators and
    # any Unicode decimal digit, which ASCII text without "_" cannot hold.
    return text.isascii() and "_" not in text


def _header_counts(line: str) -> tuple[int, int]:
    """``nvars`` and ``nclauses`` of a stripped header line; ValueError
    unless it is ``cnf`` and two integers after its first word."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "cnf" or not _ints_are_dimacs(line):
        raise ValueError(line)
    return int(parts[2]), int(parts[3])


def parse_dimacs(source: str | bytes) -> CnfFormula:
    """Parse DIMACS CNF text into a formula over universe {1..nvars}.

    Comment lines start with 'c' and may hold any bytes; elsewhere a byte
    that is not UTF-8 is a bad token.  Bytes that open with a UTF-8 byte
    order mark read as the same bytes without it.  A single ``p cnf
    <nvars> <nclauses>`` header precedes the clauses; clauses are
    0-terminated signed integers (an optional ``+`` or ``-``, then ASCII
    digits) and may span lines.
    Lines end at LF only (a CR before it is dropped), so a form feed or
    U+2028 inside a comment does not end the comment.
    Normalization (dropped tautologies or duplicates) and a clause count
    differing from the header produce warnings, not errors.  A header of
    more than ``MAX_HEADER_VARS`` (2**20) variables is an error on its
    line, raised before the universe is built.

    Valid text is read in one pass over all its tokens, and clauses in
    normal form (strictly ascending by variable, no two alike) are kept as
    read.  Only invalid text is walked line by line, to find its error.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig", errors="replace")
    header, _, body = source.lstrip().partition("\n")
    # Drop the comment lines.  One before the header leaves the header's
    # "cnf" in the body, so the body holds a "c" whenever there is one.
    if "c" in body:
        header, _, body = "\n".join([
            line for line in source.split("\n")
            if not line.lstrip().startswith("c")]).lstrip().partition("\n")
    tokens = body.split()
    try:
        if not (header.startswith("p") and _ints_are_dimacs("".join(tokens))):
            raise ValueError(header)
        num_vars, num_clauses_declared = _header_counts(header.strip())
        if num_vars > MAX_HEADER_VARS:
            raise ValueError(header)
        ints = list(map(int, tokens))
    except ValueError:
        raise _first_error(source) from None
    variables = list(map(abs, ints))
    # A negative nvars fails the range check.
    if (num_clauses_declared < 0 or ints and ints[-1]
            or max(variables, default=0) > num_vars):
        raise _first_error(source)
    raw_clauses = []
    start = 0
    for _ in range(ints.count(0)):
        end = ints.index(0, start)
        raw_clauses.append(tuple(ints[start:end]))
        start = end + 1
    if not all(raw_clauses):
        raise _first_error(source)
    if len(raw_clauses) != num_clauses_declared:
        warnings.warn(
            f"header declares {num_clauses_declared} clauses, found {len(raw_clauses)}",
            NormalizationWarning, stacklevel=2)
    # The variables stop rising once at each clause's terminating 0, and
    # again inside any clause out of normal form.
    if sum(map(operator.ge, variables, variables[1:])) == len(raw_clauses):
        clauses = tuple(dict.fromkeys(raw_clauses))
        if len(clauses) == len(raw_clauses):
            return CnfFormula._normalized(clauses, tuple(range(1, num_vars + 1)))
    formula = CnfFormula(raw_clauses, universe=range(1, num_vars + 1))
    if len(formula._clauses) != len(raw_clauses):
        warnings.warn(
            f"normalization reduced {len(raw_clauses)} clauses to "
            f"{len(formula._clauses)}", NormalizationWarning, stacklevel=2)
    return formula


def _first_error(text: str) -> DimacsParseError:
    """The first error, with its line, of DIMACS text that the bulk pass of
    ``parse_dimacs`` found invalid."""
    num_vars = None
    start = 0  # the line of the open clause's first literal; 0 if none
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                return DimacsParseError("duplicate header", lineno)
            try:
                num_vars, num_clauses = _header_counts(stripped)
            except ValueError:
                return DimacsParseError(f"malformed header {stripped!r}", lineno)
            if min(num_vars, num_clauses) < 0:
                return DimacsParseError("negative counts in header", lineno)
            if num_vars > MAX_HEADER_VARS:
                return DimacsParseError(
                    f"header declares {num_vars} variables, capped at "
                    f"2**{MAX_HEADER_VARS.bit_length() - 1}", lineno)
            continue
        if num_vars is None:
            return DimacsParseError("clause before header", lineno)
        for token in stripped.split():
            try:
                if not _ints_are_dimacs(token):
                    raise ValueError(token)
                value = int(token)
            except ValueError:
                return DimacsParseError(f"bad token {token!r}", lineno)
            if abs(value) > num_vars:
                return DimacsParseError(
                    f"literal {value} out of range 1..{num_vars}", lineno)
            if value == 0 and not start:
                return DimacsParseError("empty clause", lineno)
            start = 0 if value == 0 else start or lineno
    if num_vars is None:
        return DimacsParseError("missing 'p cnf' header", 1)
    # Of the faults the bulk pass finds, only an open last clause is left.
    return DimacsParseError("unterminated clause", start)


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS text: LF newlines, one clause per line.

    Round-trips exactly through parse_dimacs for normalized formulas, i.e.
    those whose universe is {1..nvars}.
    """
    num_vars = max(formula.universe, default=0)
    lines = [f"p cnf {num_vars} {len(formula._clauses)}\n"]
    lines += [f"{' '.join(map(str, c))} 0\n" for c in formula._clauses]
    return "".join(lines)  # joined once: the text is held once


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
) -> CnfFormula | None:
    """Reduce a formula under a partial assignment.

    Each bound literal is set in turn, one pass over the clauses left:
    satisfied clauses are dropped, falsified literals removed.  Surviving
    duplicates are then merged, first occurrence kept.  A clause losing
    all its literals means the reduced formula is unsatisfiable: ``None``
    is returned.  The universe of the result is the unbound remainder of
    the input universe.
    """
    clauses = formula._clauses
    for var, value in bindings.items():
        lit = var if value else -var
        neg = -lit
        kept = []
        for clause in clauses:
            if lit in clause:
                continue
            if neg in clause:
                if len(clause) == 1:
                    return None
                clause = tuple([x for x in clause if x != neg])
            kept.append(clause)
        clauses = kept
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
    They are the stopped frames of ``_search`` over the whole of ``over``,
    each of which has every clause satisfied.
    """
    return [(bits, fixed) for bits, fixed, _ in _search(clauses, over)]


def _search(clauses: Iterable[tuple[int, ...]], over: Sequence[int],
            block: Collection[int] | None = None,
            next_block: Callable[[int, int, list[tuple[int, ...]]],
                                 Collection[int] | None] | None = None,
            least: bool = False,
            ) -> Iterator[tuple[int, int, list[tuple[int, ...]]]]:
    """The stopped frames ``(bits, fixed, slots)`` of the one backtracking
    search, in search order: each binds the variables of ``fixed`` (bit j
    for ``over[j]``) to the values in ``bits``.

    The search branches only on a variable of its frame's block that some
    clause left holds, and propagates unit clauses through every clause.
    No block (None) is the block of every variable.  One rule stops a
    frame: its block has run out, no clause left holding an unset block
    variable, which may leave block variables free.  ``slots`` then holds,
    one slot per clause in clause order, the clause reduced by the
    frame's bindings, or ``()`` once it is satisfied.  The stopped frames
    are disjoint and cover every model over ``over``; a refuted branch
    stops no frame.  The caller owns each ``slots`` list.

    With ``next_block``, a frame whose block runs out with clauses left
    goes on instead, over ``next_block(bits, fixed, slots)`` (None for
    every variable); the block must hold a variable of some slot.
    ``next_block`` may empty a slot whose clause another slot holds.  An
    empty ``block`` runs out at the root, after its unit clauses are set,
    so ``next_block`` picks the root's first block too.

    With ``least`` (no block, and ``over`` sorted, as every formula
    universe is), the search stops one frame, the least model, or none.
    Each frame branches on its highest held variable x, False first:
    every variable above x is set or held by no clause, so the least
    model lies in f|x' whenever f|x' is satisfiable, and the first frame
    to stop (free bits 0) is the least model.  A frame popped after a
    refuted one is first probed, unless the last model found keeps its
    values.  The probe is the counting search run from a copy of that
    frame, over the same literal index and bit map (``_frames`` without
    ``least``): it refutes the frame if it stops no frame, else its first
    stopped frame is a model of it.  So a refuted subtree costs at most
    one counting search per frame the search backs up to.

    Backtracking search over an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit: ``_search`` sets it up and one
    frame loop, ``_frames``, runs it.  When ``over`` is 1..n, as every
    parsed root universe is, bit j is variable j + 1 and no map of the
    universe is built.  The clauses are indexed by literal once.  A frame
    owns a list of them, one slot per clause: a satisfied clause is an
    empty slot, and setting a literal touches only the clauses that hold
    it or its negation.  Each frame sets its unit literals until none is
    left or a clause is falsified; the root's are those of its unit
    clauses, and a contradiction among them falsifies one of their slots.
    Without ``least``, it then branches, False first, on the held block
    variable occurring in the most 2-literal clauses (ties to the first
    such variable in clause order), or, with none in a 2-literal clause,
    on the smallest held one.  It reads the counts from the slots, in one
    pass over those of two literals into a plain dict: a clause of two
    literals and a longer one that cuts left with two count alike, and no
    side list of them is kept.  A frame is thus its slots, its units, its
    values and its block, and one branch takes a copy of the slots.  A
    cut of a 3-literal slot, the common cut of 3-CNF, unpacks it rather
    than filtering it, which is faster.
    """
    width = len(over)
    # None: bit j is variable j + 1.
    position = (None if width and over[-1] == width
                and all(map(operator.eq, over, range(1, width + 1)))
                else {v: j for j, v in enumerate(over)})
    if block is not None:
        block = _both_literals(block)
    clauses = list(clauses)
    if not all(clauses):
        return
    # A slot keeps each of its literals until the clause is satisfied or
    # the literal's variable is set, so one index serves every frame.
    occurs: dict[int, list[int]] = {}
    for i, clause in enumerate(clauses):
        for x in clause:
            if x in occurs:
                occurs[x].append(i)
            else:
                occurs[x] = [i]
    # The root's unit clauses are its first units, set as a cut's are.
    yield from _frames([(clauses, [c[0] for c in clauses if len(c) == 1],
                         0, 0, block)],
                       least, occurs, position, next_block)


def _frames(stack: list, least: bool, occurs: dict[int, list[int]],
            position: dict[int, int] | None, next_block: Callable | None
            ) -> Iterator[tuple[int, int, list[tuple[int, ...]]]]:
    """The frame loop of ``_search``: the stopped frames of the search
    from the frames on ``stack`` (popped last first), over the literal
    index ``occurs`` and the bit map ``position`` (None: bit j is
    variable j + 1).  A frame is ``(slots, units, bits, fixed, block)``,
    ``block`` a set of literals or None."""
    # Least mode: the last model's row (free bits 0), and whether the last
    # frame was refuted.
    row = None
    refuted = False
    while stack:
        clauses, units, bits, fixed, block = stack.pop()
        while units:
            lit = units.pop()
            var = abs(lit)
            bit = 1 << (var - 1 if position is None else position[var])
            if fixed & bit:
                # Set already, and to this value: the other value would
                # have falsified the clause that made this unit.
                continue
            fixed |= bit
            if lit > 0:
                bits |= bit
            for i in occurs.get(lit, ()):
                clauses[i] = ()
            neg = -lit
            for i in occurs.get(neg, ()):
                clause = clauses[i]
                if not clause:
                    continue
                n = len(clause)
                if n == 1:
                    break
                if n == 2:
                    other = clause[1] if clause[0] == neg else clause[0]
                    units.append(other)
                    clauses[i] = (other,)
                elif n == 3:
                    a, b, c = clause
                    clauses[i] = ((b, c) if a == neg else (a, c) if b == neg
                                  else (a, b))
                else:
                    clauses[i] = tuple([x for x in clause if x != neg])
            else:
                continue
            refuted = True
            break  # a clause was falsified
        else:  # no clause was falsified
            # Slot literals are unset; no block runs out with the clauses.
            left = any(clauses)
            if not left or block is not None and block.isdisjoint(
                    chain.from_iterable(clauses)):
                if not left or next_block is None:
                    yield bits, fixed, clauses
                    if least:
                        return
                    continue
                block = next_block(bits, fixed, clauses)
                if block is not None:
                    block = _both_literals(block)
            if least:
                if refuted and (row is None or (bits ^ row) & fixed):
                    # No model found keeps the frame's values: the first
                    # frame of the counting search from it is one.
                    model = next(_frames(
                        [(clauses.copy(), [], bits, fixed, None)],
                        False, occurs, position, None), None)
                    if model is None:
                        continue  # no model: the frame is refuted
                    row = model[0]
                refuted = False
                # Slots keep variable order: c[-1] is highest.
                var = abs(max(map(operator.itemgetter(-1),
                                  filter(None, clauses)), key=abs))
                stack.append((clauses.copy(), [var], bits, fixed, None))
                stack.append((clauses, [-var], bits, fixed, None))
                continue
            # In clause order, so ties go to the first variable there.
            counts: dict[int, int] = {}
            _count_elements(counts, map(abs, chain.from_iterable(
                [c for c in clauses if len(c) == 2])))
            var = max(counts if block is None
                      else filter(block.__contains__, counts),
                      key=counts.__getitem__, default=None)
            if var is None:  # no 2-literal clause is left
                var = (min(abs(c[0]) for c in clauses if c)
                       if block is None
                       else min(map(abs, filter(
                           block.__contains__,
                           chain.from_iterable(clauses)))))
            # Pushed True first, so the False branch is searched first.
            stack.append((clauses.copy(), [var], bits, fixed, block))
            stack.append((clauses, [-var], bits, fixed, block))


def _both_literals(block: Collection[int]) -> set[int]:
    """Both literals of each variable of a block."""
    return {x for v in block for x in (v, -v)}


def _model_rows(clauses: Iterable[tuple[int, ...]], over: Sequence[int]
                ) -> list[int]:
    """Rows (bit j = value of ``over[j]``) of every assignment over
    ``over`` satisfying the int clauses, each once: the cubes of
    ``_search`` expanded by ``_cube_rows``, in search order, capped as
    ``enumeration capped at ...``."""
    return _cube_rows(((bits, fixed) for bits, fixed, _ in _search(
        clauses, over)), len(over), "enumeration")


def _cube_rows(cubes: Iterable[tuple[int, int]], width: int, what: str
               ) -> list[int]:
    """The rows over ``width`` variables of the disjoint cubes ``(bits,
    fixed)``, each cube expanded over its free bits, in cube order.

    The rows are counted cube by cube as they come: once the count passes
    ``2**MAX_ENUM_VARS``, ``CapacityError`` (``"<what> capped at ..."``)
    is raised, stated as powers of two, before that cube is expanded or
    a later one drawn.  So the cap bounds the rows, not the width: a
    formula of any width with few models expands, and a search that
    makes the cubes stops at the first one past the cap.
    """
    rows: list[int] = []
    for bits, fixed in cubes:
        count = len(rows) + (1 << width - fixed.bit_count())
        if count > 1 << MAX_ENUM_VARS:
            raise CapacityError(
                f"{what} capped at 2**{MAX_ENUM_VARS} rows, formula has at "
                f"least 2**{count.bit_length() - 1} models")
        # Double the fills over each of the (at most MAX_ENUM_VARS) free
        # bits, lowest first: shifting a wide ``fixed`` once per variable
        # is quadratic.
        unfixed = ~fixed & (1 << width) - 1
        fills = [bits]
        while unfixed:
            low = unfixed & -unfixed
            fills += [fill | low for fill in fills]
            unfixed ^= low
        rows += fills
    return rows


def to_truth_table(formula: CnfFormula) -> TruthTable:
    """Dense truth table of the formula over its sorted universe.

    Variable at universe position j maps to table variable j.  This is the
    independent evaluation path used to cross-check the enumerating solver.
    It loads ``boolfn``, which no solving path needs, on its first call.
    """
    from .boolfn import TruthTable
    n = len(formula.universe)
    if n > MAX_VARS:
        raise CapacityError(
            f"truth tables support at most {MAX_VARS} variables, formula has {n}")
    full = TruthTable.constant(n, True).bits
    # Both literals of each variable, each projection built once.
    projection = {}
    for j, v in enumerate(formula.universe):
        projection[v] = TruthTable.variable(n, j).bits
        projection[-v] = full ^ projection[v]
    bits = full
    for clause in formula._clauses:
        acc = 0
        for x in clause:
            acc |= projection[x]
        bits &= acc
    return TruthTable(n, bits)
