"""Command-line driver: parse DIMACS, decompose, solve the leaves, gather.

Solving reads the tree's disjoint leaves (``disjoint_leaves``): on a
clause pivot, the k orthonormal branches rather than the 2**k - 1
overlapping ones that ``--mode decompose`` prints.  The mode alone picks
the solver: ``--mode count`` and ``--mode sat`` read their cubes through
``allsat.count_and_witness`` and build no rows; ``--mode allsat`` solves
them to rows and gathers them.  ``--verify`` checks what the run prints
(the count, the least model or every row) against the truth table.

The leaves are independent work items, solved one after another on the
calling thread: a thread pool measured slower, because the pure-Python leaf
search holds the GIL.  ``--jobs`` is still accepted and validated, but
selects nothing.  Exit status follows common solver conventions: 10 for
satisfiable, 20 for unsatisfiable, 0 for a decomposition-only run, 1 for
an error in the input or an option value the run rejects (``--n0 0``), and
2 for a usage error that argparse reports (``--mode prove``, ``--n0 x``).
``run`` writes every message it makes (``error:``, ``warning:`` and
``note:`` lines) to its ``err`` stream, and nothing else to stderr.

Start-up is part of every run: importing this module loads none of
``dataclasses``, ``typing``, ``json``, ``argparse`` or ``re``.  ``main``
imports ``argparse``, and ``--format json`` imports ``json``, when they run.
"""

from __future__ import annotations

import sys
import warnings
from itertools import islice

from .allsat import LeafResult, count_and_witness, gather, solve_leaf
from .boolfn import MAX_VARS
from .cnf import (DimacsParseError, NormalizationWarning, SolutionSet,
                  parse_dimacs, to_truth_table)
from .decompose import (
    SOLVABLE,
    TRIVIAL,
    DecompositionTree,
    clause_pivot_tree,
    var_partition_decompose,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: a run loads neither module
    import argparse
    from typing import IO

__all__ = [
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_SAT",
    "EXIT_UNSAT",
    "RunConfig",
    "run",
    "parallel_leaf_solve",
    "main",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SAT = 10
EXIT_UNSAT = 20

MODES = ("sat", "allsat", "count", "decompose")
PIVOTS = ("clause", "vars")
FORMATS = ("text", "json")


class RunConfig:
    """One solver invocation: a mutable value, equal field by field.  The
    class attributes are the option defaults that argparse reads."""

    mode = "sat"
    pivot_strategy = "vars"
    pivot_clause = 0
    n0 = 8
    jobs = 1
    output_format = "text"
    verify = False

    def __init__(self, input_path: str, mode: str = mode,
                 pivot_strategy: str = pivot_strategy,
                 pivot_clause: int = pivot_clause, n0: int = n0,
                 jobs: int = jobs, output_format: str = output_format,
                 verify: bool = verify) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if pivot_strategy not in PIVOTS:
            raise ValueError(f"pivot strategy must be one of {PIVOTS}")
        if output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if n0 < 1:
            raise ValueError("n0 must be at least 1")
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.input_path = input_path
        self.mode = mode
        self.pivot_strategy = pivot_strategy
        self.pivot_clause = pivot_clause
        self.n0 = n0
        self.jobs = jobs
        self.output_format = output_format
        self.verify = verify

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


def parallel_leaf_solve(tree: DecompositionTree, jobs: int) -> list[LeafResult]:
    """Solve every solvable node of ``tree.disjoint_leaves()``, in order,
    on the calling thread: the results ``gather`` needs.

    ``jobs`` is validated but selects nothing (see the module docstring).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return [solve_leaf(n.item) for n in tree.disjoint_leaves()
            if n.status == SOLVABLE]


def _tree_as_json(tree: DecompositionTree) -> list[dict]:
    out = []
    for node in tree.nodes:
        entry = {
            "id": node.node_id,
            "parent": node.parent,
            "depth": node.item.depth,
            "status": node.status,
            "prefix": node.item.prefix.to_literals(),
        }
        if node.status in (SOLVABLE, TRIVIAL):
            entry["universe"] = node.item.formula.universe
            entry["clauses"] = node.item.formula.to_ints()
        out.append(entry)
    return out


def run(config: RunConfig, out: IO[str] | None = None,
        err: IO[str] | None = None) -> int:
    """Execute one configured invocation; returns the process exit status.

    Parse warnings are captured process-wide and printed on ``err``, so
    ``run`` is not for concurrent use from several threads.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with open(config.input_path, "rb") as handle:
            source = handle.read()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NormalizationWarning)
            formula = parse_dimacs(source)
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR
    except DimacsParseError as exc:
        print(f"error: {config.input_path}: {exc}", file=err)
        return EXIT_ERROR
    for warning in caught:
        print(f"warning: {config.input_path}: {warning.message}", file=err)

    try:
        if config.pivot_strategy == "clause":
            tree = clause_pivot_tree(formula, config.pivot_clause)
        else:
            tree = var_partition_decompose(formula, config.n0)
        if config.mode == "decompose":
            if config.verify:
                print("note: --verify skipped: decompose mode solves nothing",
                      file=err)
            if config.output_format == "json":
                import json
                print(json.dumps({"status": "OK", "tree": _tree_as_json(tree)}),
                      file=out)
            else:
                out.write(tree.serialize())
            return EXIT_OK

        # ``solutions`` holds the rows the mode prints: every row for
        # allsat, the least model for sat (and count, which prints none).
        if config.mode == "allsat":
            solutions = gather(tree, parallel_leaf_solve(tree, config.jobs))
            count = solutions.count
        else:  # count and sat read the leaves' cubes and build no rows
            count, least = count_and_witness(tree)
            solutions = SolutionSet(formula.universe,
                                    () if least is None else (least,))
    except ValueError as exc:  # includes capacity errors
        print(f"error: {exc}", file=err)
        return EXIT_ERROR

    if config.verify and formula.num_vars > MAX_VARS:
        print(f"note: --verify skipped: {formula.num_vars} variables > "
              f"{MAX_VARS}", file=err)
    elif config.verify:
        table = to_truth_table(formula)
        if (count != table.support_size or solutions.rows
                != tuple(islice(table.support(), len(solutions.rows)))):
            print(f"error: verification mismatch: solver found {count} "
                  f"solutions, oracle found {table.support_size}", file=err)
            return EXIT_ERROR

    sat = count > 0
    status = "SATISFIABLE" if sat else "UNSATISFIABLE"
    if config.output_format == "json" or config.mode == "count":
        try:
            count_text = str(count)
        except ValueError:
            # The interpreter writes no int of more than
            # sys.get_int_max_str_digits() decimal digits; 2**14284 has 4300.
            print(f"error: model count has more than "
                  f"{sys.get_int_max_str_digits()} decimal digits", file=err)
            return EXIT_ERROR
    if config.output_format == "json":
        import json
        payload: dict = {"status": status, "count": count}
        if config.mode == "allsat" or (config.mode == "sat" and sat):
            payload["solutions"] = [
                solutions.row_to_literals(row) for row in solutions.rows]
        print(json.dumps(payload), file=out)
    elif config.mode == "count":
        print(count_text, file=out)
    else:
        if config.mode == "sat":
            print(status, file=out)
        out.write(solutions.to_text())
    return EXIT_SAT if sat else EXIT_UNSAT


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="cofsat",
        description="CNF satisfiability and all-solutions toolkit based on "
                    "cofactor decomposition.")
    parser.add_argument("--input", required=True, dest="input_path",
                        metavar="INPUT", help="DIMACS CNF file")
    parser.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    parser.add_argument("--pivot", choices=PIVOTS,
                        default=RunConfig.pivot_strategy, dest="pivot_strategy",
                        help="decomposition strategy (default: %(default)s)")
    parser.add_argument("--pivot-clause", type=int,
                        default=RunConfig.pivot_clause,
                        help="clause index for --pivot clause "
                             "(default: %(default)s)")
    parser.add_argument("--n0", type=int, default=RunConfig.n0,
                        help="leaf size threshold for --pivot vars "
                             "(default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=RunConfig.jobs,
                        help="accepted for compatibility; leaves are always "
                             "solved serially (default: %(default)s)")
    parser.add_argument("--format", choices=FORMATS,
                        default=RunConfig.output_format, dest="output_format")
    parser.add_argument("--verify", action="store_true",
                        help="cross-check results against the truth-table "
                             f"oracle (formulas up to {MAX_VARS} variables)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
