"""A fixed CPU-bound kernel whose time reads the host's current speed.

It counts the models of a fixed random 3-CNF formula by DPLL: pure Python
over tuples of ints, like cofsat, and independent of cofsat's code, so a
change to cofsat never moves it.  The module imports nothing, so the set-up
probe can time it in a fresh interpreter without loading anything that
``import cofsat.cli`` would load.
"""

NUM_VARS = 22
NUM_CLAUSES = 90


def _formula() -> list[tuple[int, ...]]:
    """A fixed formula from a linear congruential generator."""
    state = 12345
    clauses: list[tuple[int, ...]] = []
    while len(clauses) < NUM_CLAUSES:
        picked: list[int] = []
        while len(picked) < 3:
            state = (state * 1103515245 + 12345) % 2 ** 31
            var = state % NUM_VARS + 1
            if var not in picked:
                picked.append(var)
        state = (state * 1103515245 + 12345) % 2 ** 31
        clauses.append(tuple(v if state >> (16 + k) & 1 else -v
                             for k, v in enumerate(sorted(picked))))
    return clauses


CLAUSES = _formula()


def _reduce(clauses, lit):
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = tuple(x for x in clause if x != -lit)
            if not clause:
                return None
        out.append(clause)
    return out


def _count(clauses, free: int) -> int:
    unit = next((c[0] for c in clauses if len(c) == 1), None)
    if unit is not None:
        rest = _reduce(clauses, unit)
        return 0 if rest is None else _count(rest, free - 1)
    if not clauses:
        return 1 << free
    var = abs(clauses[0][0])
    total = 0
    for lit in (-var, var):
        rest = _reduce(clauses, lit)
        if rest is not None:
            total += _count(rest, free - 1)
    return total


def kernel() -> int:
    """One unit of reference work; returns the model count."""
    return _count(CLAUSES, NUM_VARS)


def kernel_seconds(repeats: int, clock) -> float:
    """Median time of ``repeats`` kernel runs, read with ``clock()``."""
    times = []
    for _ in range(repeats):
        start = clock()
        kernel()
        times.append(clock() - start)
    times.sort()
    return times[len(times) // 2]
