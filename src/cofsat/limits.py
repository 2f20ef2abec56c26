"""The size caps on input and truth tables, and the error every size cap
raises.

They live here, not in ``boolfn``, so that ``cnf``, ``allsat`` and ``cli``
can use them without loading the truth-table layer; ``boolfn`` re-exports
both.
"""

__all__ = ["MAX_VARS", "MAX_HEADER_VARS", "CapacityError"]

# Most variables a truth table holds (2**16 bits).
MAX_VARS = 16

# Most variables a DIMACS header may declare: the universe 1..nvars is
# built from it, so a 20-byte file could otherwise ask for gigabytes.
MAX_HEADER_VARS = 1 << 20


class CapacityError(ValueError):
    """Raised when an operation would exceed a hard size cap."""

