"""Seeded random 3-CNF instances, written as DIMACS files.

The recipe is the distinct-clause one of ``tests/helpers.random_3cnf_clauses``,
restated here so that later edits to the tests cannot shift the benchmark's
inputs.  cofsat sees only the files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path


def random_3cnf_clauses(rng: random.Random, num_vars: int,
                        num_clauses: int) -> list[list[int]]:
    """Distinct 3-literal clauses over distinct variables (no tautologies,
    no duplicate clauses), literals ordered by variable."""
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


def dimacs_text(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    index: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    path: Path
    sha256: str

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def generate(workload: str, seed: int, shapes: list[tuple[int, int]],
             count: int, directory: Path) -> list[Instance]:
    """``count`` instances cycling through ``shapes`` of (n, m).

    Instance i draws from its own generator keyed by workload, seed and i,
    so the same seed always yields the same files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(count):
        n, m = shapes[i % len(shapes)]
        rng = random.Random(f"{workload}/{seed}/{i}")
        clauses = random_3cnf_clauses(rng, n, m)
        data = dimacs_text(n, clauses).encode()
        path = directory / f"{i:03d}-n{n}-m{len(clauses)}.cnf"
        path.write_bytes(data)
        out.append(Instance(i, n, tuple(map(tuple, clauses)), path,
                            hashlib.sha256(data).hexdigest()))
    return out
