"""Dense truth-table algebra for Boolean functions over small variable counts.

A function of ``n`` variables is stored as a ``2**n``-bit integer: bit ``p``
of the mask is the value of the function at the assignment encoded by ``p``,
where bit ``j`` of ``p`` is the value of variable ``j`` (least significant
bit first).  The module provides the plain Boolean algebra plus the cofactor
machinery built on top of it: cofactor intervals, expansion over a base set
of functions, orthonormal term expansions, and the consistency checks that
reduce satisfiability of ``f = 1`` to per-member conditions.

Everything here is exhaustive-by-construction and meant for verification at
small sizes; the variable count is hard-capped at ``MAX_VARS``.  All values
are immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import and_, or_, xor

MAX_VARS = 16

__all__ = [
    "MAX_VARS",
    "CapacityError",
    "TruthTable",
    "CofactorInterval",
    "BaseSet",
    "Verdict",
    "OnVerdict",
    "cofactor_interval",
    "is_cofactor",
    "cofactor_sample",
    "expand",
    "is_orthonormal",
    "term_expansions",
    "expansion_identity",
    "compose",
    "compose_via_expansion",
    "consistency_over_base",
    "consistency_over_on",
]


class CapacityError(ValueError):
    """Raised when an operation would exceed a hard size cap."""


class TruthTable:
    """Immutable Boolean function represented by its full truth table.

    ``TruthTable(2, 0b0110)`` is XOR of two variables: bits are read from
    position 0 upward, so assignment ``p = 1`` (variable 0 true, variable 1
    false) maps to bit 1 of the mask.
    """

    __slots__ = ("_num_vars", "_bits")

    def __init__(self, num_vars: int, bits: int):
        if not 0 <= num_vars <= MAX_VARS:
            raise CapacityError(
                f"num_vars must be in [0, {MAX_VARS}], got {num_vars}")
        if bits < 0 or bits >> (1 << num_vars):
            raise ValueError(f"bits out of range for {num_vars} variables")
        self._num_vars = num_vars
        self._bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: bool) -> "TruthTable":
        bits = (1 << (1 << num_vars)) - 1 if value else 0
        return cls(num_vars, bits)

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "TruthTable":
        """The projection function returning variable ``index``."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range")
        half = 1 << index
        bits = ((1 << half) - 1) << half
        width = half << 1
        while width < 1 << num_vars:
            bits |= bits << width
            width <<= 1
        return cls(num_vars, bits)

    @classmethod
    def minterm(cls, num_vars: int, point: int) -> "TruthTable":
        """The function that is 1 exactly at ``point``."""
        if not 0 <= point < (1 << num_vars):
            raise ValueError(f"point {point} out of range")
        return cls(num_vars, 1 << point)

    @classmethod
    def from_values(cls, values: Sequence[bool]) -> "TruthTable":
        """Build from the full value list, position 0 first."""
        n = max(len(values), 1).bit_length() - 1
        if len(values) != 1 << n:
            raise ValueError("value list length must be a power of two")
        bits = 0
        for p, v in enumerate(values):
            if v:
                bits |= 1 << p
        return cls(n, bits)

    # -- basic queries -----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def is_zero(self) -> bool:
        return self._bits == 0

    @property
    def is_one(self) -> bool:
        return self._bits == (1 << (1 << self._num_vars)) - 1

    @property
    def support_size(self) -> int:
        """Number of assignments at which the function is 1."""
        return bin(self._bits).count("1")

    def support(self) -> Iterator[int]:
        """Yield the encoded assignments at which the function is 1, in
        ascending order."""
        # One pass over the binary text, least significant digit first:
        # peeling the low bit off a big int copies it each time.
        digits = bin(self._bits)[:1:-1]
        point = digits.find("1")
        while point >= 0:
            yield point
            point = digits.find("1", point + 1)

    def evaluate(self, point: int) -> bool:
        if not 0 <= point < (1 << self._num_vars):
            raise ValueError(f"point {point} out of range")
        return bool(self._bits >> point & 1)

    def values(self) -> list[bool]:
        return [bool(self._bits >> p & 1) for p in range(1 << self._num_vars)]

    # -- algebra -----------------------------------------------------------

    def _check_same_universe(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other._num_vars != self._num_vars:
            raise ValueError(
                f"universe mismatch: {self._num_vars} vs {other._num_vars} variables")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_universe(other)
        return TruthTable(self._num_vars, self._bits & other._bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_universe(other)
        return TruthTable(self._num_vars, self._bits | other._bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_universe(other)
        return TruthTable(self._num_vars, self._bits ^ other._bits)

    def __invert__(self) -> "TruthTable":
        full = (1 << (1 << self._num_vars)) - 1
        return TruthTable(self._num_vars, self._bits ^ full)

    def __le__(self, other: "TruthTable") -> bool:
        """Pointwise ordering: true iff self(x) <= other(x) everywhere."""
        self._check_same_universe(other)
        return self._bits & ~other._bits == 0

    def __ge__(self, other: "TruthTable") -> bool:
        self._check_same_universe(other)
        return other._bits & ~self._bits == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self._num_vars == other._num_vars and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._num_vars, self._bits))

    def __repr__(self) -> str:
        width = max(1, (1 << self._num_vars) // 4)
        return f"TruthTable({self._num_vars}, 0x{self._bits:0{width}x})"

    # -- substitution ------------------------------------------------------

    def _pin(self, bindings: Mapping[int, bool]) -> tuple[int, int]:
        """(mask, values): bit masks of the pinned variables and their values."""
        mask = values = 0
        for j, v in bindings.items():
            if not 0 <= j < self._num_vars:
                raise ValueError(f"variable index {j} out of range")
            mask |= 1 << j
            if v:
                values |= 1 << j
        return mask, values

    def substitute(self, bindings: Mapping[int, bool]) -> "TruthTable":
        """Pin some variables to constants, keeping the universe width.

        The result no longer depends on the pinned variables.
        """
        if not bindings:
            return self
        mask, values = self._pin(bindings)
        bits = 0
        for p in range(1 << self._num_vars):
            q = (p & ~mask) | values
            if self._bits >> q & 1:
                bits |= 1 << p
        return TruthTable(self._num_vars, bits)

    def restrict(self, bindings: Mapping[int, bool]) -> "TruthTable":
        """Pin some variables and drop them from the universe.

        Surviving variables keep their relative order and are renumbered
        from 0.
        """
        if not bindings:
            return self
        mask, values = self._pin(bindings)
        free = [j for j in range(self._num_vars) if not mask >> j & 1]
        bits = 0
        for q in range(1 << len(free)):
            p = values
            for k, j in enumerate(free):
                if q >> k & 1:
                    p |= 1 << j
            if self._bits >> p & 1:
                bits |= 1 << q
        return TruthTable(len(free), bits)

    # -- product terms -----------------------------------------------------

    def _subcube(self) -> tuple[int, int]:
        """(lo, free): the AND of the support's points and the positions
        where they differ; the support is a subcube iff it has 2**|free|
        points.  Needs a nonempty support."""
        lo = hi = None
        for p in self.support():
            lo = p if lo is None else lo & p
            hi = p if hi is None else hi | p
        return lo, hi & ~lo

    @property
    def is_term(self) -> bool:
        """True iff the function is a product of literals (support is a subcube).

        The constant 1 counts as the empty product; the constant 0 is not a
        term.
        """
        if self.is_zero:
            return False
        _, free = self._subcube()
        return self.support_size == 1 << bin(free).count("1")

    def term_bindings(self) -> dict[int, bool]:
        """The partial assignment forced by requiring this product term to be 1.

        For x0*x2' over three variables this is ``{0: True, 2: False}``.
        """
        if not self.is_term:
            raise ValueError("not a product term")
        lo, free = self._subcube()
        return {
            j: bool(lo >> j & 1)
            for j in range(self._num_vars)
            if not free >> j & 1
        }


class CofactorInterval(namedtuple("CofactorInterval", "lower upper")):
    """The interval [f*g, f+g'] of all functions agreeing with f on supp(g)."""

    __slots__ = ()
    lower: TruthTable
    upper: TruthTable

    def __new__(cls, lower: TruthTable, upper: TruthTable) -> CofactorInterval:
        if not lower <= upper:
            raise ValueError("interval endpoints out of order")
        return tuple.__new__(cls, (lower, upper))

    def contains(self, alpha: TruthTable) -> bool:
        return self.lower <= alpha and alpha <= self.upper


class BaseSet(namedtuple("BaseSet", "members cover")):
    """A nonempty family of nonzero functions over one universe.

    ``cover``, the OR of all members, is stored on construction; expansion
    of ``f`` over the base requires ``f <= cover``.  Orthonormality is a
    property, not a requirement.  ``cover`` follows from ``members``, so
    only they are compared, printed by repr and pickled.
    """

    __slots__ = ()
    members: tuple[TruthTable, ...]
    cover: TruthTable

    def __new__(cls, members: Iterable[TruthTable]) -> BaseSet:
        members = tuple(members)
        if not members:
            raise ValueError("base set must be nonempty")
        n = members[0].num_vars
        cover = 0
        for g in members:
            if g.num_vars != n:
                raise ValueError("base set members must share one universe")
            if g.is_zero:
                raise ValueError("base set members must be nonzero")
            cover |= g.bits
        return tuple.__new__(cls, (members, TruthTable(n, cover)))

    def __repr__(self) -> str:
        return f"BaseSet(members={self.members!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.members,)

    @classmethod
    def pair(cls, g: TruthTable) -> "BaseSet":
        """The orthonormal pair {g, g'} of a non-constant function."""
        return cls((g, ~g))

    @classmethod
    def minterms(cls, num_vars: int) -> "BaseSet":
        return cls(
            TruthTable.minterm(num_vars, p) for p in range(1 << num_vars))

    @classmethod
    def shannon(cls, num_vars: int, index: int) -> "BaseSet":
        """The classic base {x_index, x_index'}."""
        return cls.pair(TruthTable.variable(num_vars, index))

    @property
    def num_vars(self) -> int:
        return self.members[0].num_vars

    def __iter__(self) -> Iterator[TruthTable]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> TruthTable:
        return self.members[i]


class Verdict(namedtuple("Verdict", "sat witness_index witness_point")):
    """Outcome of a consistency check for ``f = 1`` over a base set.

    ``witness_index`` is the 0-based position of a base member whose paired
    system is consistent; ``witness_point`` is an encoded assignment
    witnessing it.  Both are None when unsatisfiable.
    """

    __slots__ = ()
    sat: bool
    witness_index: int | None
    witness_point: int | None


class OnVerdict(namedtuple(
        "OnVerdict", "sat witness_index witness_point exactly_one")):
    """Consistency verdict over an orthonormal base.

    ``exactly_one`` reports whether precisely one member is 1 at the witness
    point; it is vacuously True on unsatisfiable input.
    """

    __slots__ = ()
    sat: bool
    witness_index: int | None
    witness_point: int | None
    exactly_one: bool


def _check_nonzero(g: TruthTable) -> None:
    if g.is_zero:
        raise ValueError("cofactors are undefined relative to the zero function")


def cofactor_interval(f: TruthTable, g: TruthTable) -> CofactorInterval:
    """The set of cofactors of f relative to a nonzero g, as an interval.

    Every alpha with ``lower <= alpha <= upper`` satisfies
    ``alpha & g == f & g``, and conversely.
    """
    _check_nonzero(g)
    return CofactorInterval(lower=f & g, upper=f | ~g)


def is_cofactor(alpha: TruthTable, f: TruthTable, g: TruthTable) -> bool:
    """True iff alpha agrees with f everywhere g is 1."""
    _check_nonzero(g)
    return (alpha & g) == (f & g)


def cofactor_sample(f: TruthTable, g: TruthTable, p: TruthTable) -> TruthTable:
    """The cofactor f*g + p*g' selected by the free parameter p.

    Ranges over the whole cofactor set as p ranges over all functions:
    p = 0 gives the lower endpoint, p = 1 the upper.
    """
    _check_nonzero(g)
    return (f & g) | (p & ~g)


def expand(
    f: TruthTable,
    base: BaseSet,
    alphas: Sequence[TruthTable],
    *,
    require_cover: bool = True,
) -> TruthTable:
    """Sum of alpha_i * g_i for per-member cofactors alpha_i of f.

    With ``f <= cover`` the sum reconstructs f exactly, for every choice of
    cofactors.  Passing ``require_cover=False`` skips the cover check and
    returns the raw sum, which equals ``f & cover``.
    """
    if len(alphas) != len(base):
        raise ValueError(
            f"need {len(base)} cofactors, got {len(alphas)}")
    for i, (alpha, g) in enumerate(zip(alphas, base)):
        if not is_cofactor(alpha, f, g):
            raise ValueError(f"alphas[{i}] is not a cofactor of f relative to base[{i}]")
    if require_cover and not f <= base.cover:
        raise ValueError("f is not dominated by the cover of the base set")
    bits = 0
    for alpha, g in zip(alphas, base):
        bits |= alpha.bits & g.bits
    return TruthTable(f.num_vars, bits)


def is_orthonormal(base: BaseSet) -> bool:
    """True iff members are pairwise disjoint and OR to the constant 1."""
    seen = 0
    for g in base:
        if seen & g.bits:
            return False
        seen |= g.bits
    return base.cover.is_one


def term_expansions(
    f: TruthTable, terms: BaseSet
) -> tuple[TruthTable, TruthTable]:
    """Dual sum and product expansions of f over an orthonormal term set.

    Each member must be a product term t; the coefficient of t is f with the
    variable bindings forced by t = 1 substituted in.  Both returned forms
    equal f.
    """
    if not is_orthonormal(terms):
        raise ValueError("term set is not orthonormal")
    for t in terms:
        if not t.is_term:
            raise ValueError("term set members must be product terms")
    sum_bits = 0
    product_bits = full = (1 << (1 << f.num_vars)) - 1
    for t in terms:
        quotient = f.substitute(t.term_bindings())
        sum_bits |= (quotient & t).bits
        product_bits &= quotient.bits | (full ^ t.bits)
    return TruthTable(f.num_vars, sum_bits), TruthTable(f.num_vars, product_bits)


def expansion_identity(
    f: TruthTable,
    base: BaseSet,
    op: str,
    h: TruthTable | None = None,
) -> TruthTable:
    """Evaluate the right-hand side of a combine-then-expand identity.

    For op in {"sum", "product", "xor"} this is the sum over the base of
    (alpha_i OP beta_i) * g_i built from the lower-endpoint cofactors of f
    and h; the result equals f OP h whenever both operands are dominated by
    the cover.  For op = "complement" (h unused) the base must cover the
    whole space, and the result equals f'.
    """
    if op == "complement":
        if h is not None:
            raise ValueError("complement takes a single operand")
        if not base.cover.is_one:
            raise ValueError("complement identity needs a base covering the whole space")
        fb = (f & base.cover).bits  # the universe check; the cover is 1
        bits = 0
        for g in base:
            bits |= ~(fb & g.bits) & g.bits
        return TruthTable(f.num_vars, bits)

    combine = {"sum": or_, "product": and_, "xor": xor}.get(op)
    if combine is None:
        raise ValueError(f"unknown identity {op!r}")
    if h is None:
        raise ValueError(f"{op} identity needs two operands")
    if not f <= base.cover or not h <= base.cover:
        raise ValueError("operands must be dominated by the cover of the base set")
    bits = 0
    for g in base:
        bits |= combine(f.bits & g.bits, h.bits & g.bits) & g.bits
    return TruthTable(f.num_vars, bits)


def compose(f: TruthTable, inner: Sequence[TruthTable]) -> TruthTable:
    """Direct composition f(h_1(x), ..., h_n(x)), evaluated pointwise."""
    if len(inner) != f.num_vars:
        raise ValueError(
            f"f takes {f.num_vars} arguments, got {len(inner)} inner functions")
    if not inner:
        return TruthTable(0, f.bits)
    m = inner[0].num_vars
    for h in inner:
        if h.num_vars != m:
            raise ValueError("inner functions must share one universe")
    bits = 0
    for x in range(1 << m):
        p = 0
        for i, h in enumerate(inner):
            if h.bits >> x & 1:
                p |= 1 << i
        if f.bits >> p & 1:
            bits |= 1 << x
    return TruthTable(m, bits)


def compose_via_expansion(
    f: TruthTable, inner: Sequence[TruthTable], base: BaseSet
) -> TruthTable:
    """Composition computed through cofactor expansions over an ON base.

    Expands every inner function over the base with lower-endpoint
    coefficients beta_ij, then sums f(beta_1j, ..., beta_nj) * phi_j.  Equals
    the direct composition.
    """
    if not is_orthonormal(base):
        raise ValueError("composition expansion needs an orthonormal base")
    if len(inner) != f.num_vars:
        raise ValueError(
            f"f takes {f.num_vars} arguments, got {len(inner)} inner functions")
    m = base.num_vars
    for h in inner:
        if h.num_vars != m:
            raise ValueError("inner functions must live on the base universe")
    bits = 0
    for phi in base:
        betas = [h & phi for h in inner]
        bits |= (compose(f, betas) & phi).bits
    return TruthTable(m, bits)


def consistency_over_base(f: TruthTable, base: BaseSet) -> Verdict:
    """Decide satisfiability of f = 1 through per-member cofactor systems.

    Requires ``f <= cover``.  f = 1 is consistent iff for some member g_i the
    system alpha_i = 1, g_i = 1 is consistent, where alpha_i is any cofactor
    of f relative to g_i (the check uses the lower endpoint; the outcome does
    not depend on the choice).
    """
    if f.num_vars != base.num_vars:
        raise ValueError("f and base set live on different universes")
    if not f <= base.cover:
        raise ValueError("f is not dominated by the cover of the base set")
    for i, g in enumerate(base):
        hit = f.bits & g.bits
        if hit:
            return Verdict(True, i, (hit & -hit).bit_length() - 1)
    return Verdict(False, None, None)


def consistency_over_on(f: TruthTable, base: BaseSet) -> OnVerdict:
    """Consistency of f = 1 over an orthonormal base.

    At any satisfying point exactly one member is 1; the verdict carries that
    unique member index for the returned witness point.
    """
    if f.num_vars != base.num_vars:
        raise ValueError("f and base set live on different universes")
    if not is_orthonormal(base):
        raise ValueError("base set is not orthonormal")
    # an orthonormal base covers every point, so the cover check passes
    sat, i, point = consistency_over_base(f, base)
    ones = sum(g.bits >> point & 1 for g in base) if sat else 1
    return OnVerdict(sat, i, point, ones == 1)
