"""The truth-table size cap and the error every size cap raises.

They live here, not in ``boolfn``, so that ``cnf``, ``allsat`` and ``cli``
can use them without loading the truth-table layer; ``boolfn`` re-exports
both.
"""

__all__ = ["MAX_VARS", "CapacityError"]

# Most variables a truth table holds (2**16 bits).
MAX_VARS = 16


class CapacityError(ValueError):
    """Raised when an operation would exceed a hard size cap."""

