"""Command-line driver: parse DIMACS, decompose, solve, gather.

``--mode count``, ``--mode sat`` and ``--mode allsat --pivot clause``
build no tree: one search of the root (``cnf._search``) takes the pivot's
base as its first branchings, solves each leaf in the frame that made
it, and hands back cubes over the root universe.  ``count``, and ``sat``
with ``--format json`` or a ``--verify`` that checks (at most
``MAX_VARS`` variables), read their count and least model
(``allsat._count_and_least``); only ``sat`` and ``allsat``, which print
rows, build a ``SolutionSet``.  On a clause pivot the base is the k
orthonormal branches of the pivot clause
(``decompose._clause_branch_cubes``), on ``--pivot vars`` the blocks of
the propagated variable-partition tree
(``decompose._var_partition_cubes``).  Text ``sat`` otherwise prints no
count and checks none, so on either pivot it takes the first model of a
search from the root that branches on the highest held variable, False
first: the least model (``_search(..., least=True)``), which does not
depend on the base; after a refuted frame it probes by the counting search.
``--mode allsat --pivot vars`` still builds that tree
(``var_partition_decompose(..., propagate=True)``), and
``parallel_leaf_solve`` hands each live leaf on as a work item;
``gather`` joins the leaves' rows to their prefixes as cubes over the
root universe.  On either pivot, allsat expands its cubes to rows as they
come (``cnf._cube_rows``) and refuses an output of more than
``2**cnf.MAX_ENUM_VARS`` rows at the first cube past the cap, stating the
running total there.
``--mode decompose`` prints, and nothing solves, the 2**k - 1
overlapping branches of the pivot clause (``clause_pivot_tree`` hands the
edges of ``decompose._pivot_lattice``, the rule ``clause_pivot_decompose``
reads too, to the tree builder; a pivot of more than ``MAX_ENUM_VARS``
literals is refused before any branch is built), or the tree with one
child per allowed block row, as text or as JSON that ``_tree_as_json``
writes itself.  ``--verify`` checks what the run prints (the count, the
least model or every row) against the truth table.

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
``dataclasses``, ``typing``, ``json``, ``argparse`` or ``re``, nor the
truth-table layer ``boolfn`` or ``expr``.  ``main`` imports ``argparse``,
a solving mode's ``--format json`` imports ``json``, and ``--verify``
loads ``boolfn`` for a truth table (at most ``MAX_VARS`` variables).
"""

from __future__ import annotations

import sys
import warnings
from itertools import islice

from .allsat import LeafResult, _count_and_least, gather, solve_leaf
from .cnf import (CnfFormula, DimacsParseError, NormalizationWarning,
                  SolutionSet, _cube_rows, _search, parse_dimacs,
                  to_truth_table)
from .decompose import (
    SOLVABLE,
    TRIVIAL,
    DecompositionTree,
    _Texts,
    _clause_branch_cubes,
    _grow,
    _pivot_clause,
    _pivot_lattice,
    _var_partition_cubes,
    var_partition_decompose,
)
from .limits import MAX_VARS

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
    """Solve every solvable node of ``tree.leaves()``, in order, on the
    calling thread: the results ``gather`` needs.

    ``jobs`` is validated but selects nothing (see the module docstring).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return [solve_leaf(n.item) for n in tree.leaves()
            if n.status == SOLVABLE]


def clause_pivot_tree(formula: CnfFormula,
                      pivot_index: int) -> DecompositionTree:
    """The tree that ``--mode decompose --pivot clause`` prints: the root
    and one leaf per branch of ``clause_pivot_decompose``, from the same
    split rule.

    Every live branch is a terminal leaf regardless of size, so leaves are
    flagged solvable (or trivial/dead) with no variable bound.  The
    branches overlap, so nothing solves this tree.  A formula with no
    clauses has no pivot: its tree is the root alone, a trivial leaf,
    whatever ``pivot_index`` says.
    """
    return _grow(formula, lambda f, depth: None if depth else
                 _pivot_lattice(f, pivot_index))


def _tree_as_json(tree: DecompositionTree) -> str:
    """The ``--format json`` line of ``--mode decompose``, as ``json.dumps``
    writes it: each distinct binding, universe and clause written once per
    call, and the parts joined once."""
    lits = _Texts(lambda vb: str(vb[0] if vb[1] else -vb[0]))
    lists = _Texts(lambda ints: str(list(ints)))  # as json.dumps writes
    parts = ['{"status": "OK", "tree": [']
    for node_id, parent, (prefix, f, depth), status in tree.nodes:
        leaf = "" if status not in (SOLVABLE, TRIVIAL) else (
            f', "universe": {lists[f.universe]}, "clauses": '
            f'[{", ".join(map(lists.__getitem__, f.to_ints()))}]')
        parts += (
            f'{{"id": {node_id}, "parent": {parent}, "depth": {depth}, '
            f'"status": "{status}", "prefix": '
            f'[{", ".join(map(lits.__getitem__, prefix.items()))}]{leaf}}}',
            ", ")
    parts[-1] = "]}\n"  # the root is always there
    return "".join(parts)


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

    # The truth table reaches at most MAX_VARS variables.
    checks = config.verify and formula.num_vars <= MAX_VARS
    try:
        vars_pivot = config.pivot_strategy == "vars"
        if config.mode == "decompose":
            tree = (var_partition_decompose(formula, config.n0) if vars_pivot
                    else clause_pivot_tree(formula, config.pivot_clause))
            if config.verify:
                print("note: --verify skipped: decompose mode solves nothing",
                      file=err)
            out.write(_tree_as_json(tree) if config.output_format == "json"
                      else tree.serialize())
            return EXIT_OK

        # ``rows`` holds the rows the mode prints: every row for allsat,
        # the least model for sat (and count, which prints none).  Only
        # the modes that print rows build a ``SolutionSet`` of them.
        if config.mode == "allsat":
            if vars_pivot:
                # Its spans: bench/test_bench.py::test_tracer_spans_a_real_run
                tree = var_partition_decompose(formula, config.n0,
                                               propagate=True)
                solutions = gather(tree, parallel_leaf_solve(tree,
                                                             config.jobs))
            else:  # the cubes of one search: no tree
                solutions = SolutionSet(formula.universe, _cube_rows(
                    _clause_branch_cubes(formula, config.pivot_clause),
                    formula.num_vars, "output"))
            rows = solutions.rows
            count = len(rows)
        elif (config.mode == "sat" and config.output_format == "text"
              and not checks):
            # No count is printed or checked: the least model alone, from
            # the root on either pivot.  The pivot index is still checked.
            if not vars_pivot and not formula.is_empty:
                _pivot_clause(formula, config.pivot_clause)
            count = None
            rows = next(_search(formula.to_ints(), formula.universe,
                                least=True), ())[:1]
            solutions = SolutionSet(formula.universe, rows)
        else:  # the cubes of one search, no tree and no rows but the least
            cubes = (_var_partition_cubes(formula, config.n0) if vars_pivot
                     else _clause_branch_cubes(formula, config.pivot_clause))
            count, least = _count_and_least(cubes, formula.num_vars)
            rows = () if least is None else (least,)
            if config.mode == "sat":
                solutions = SolutionSet(formula.universe, rows)
    except ValueError as exc:  # includes capacity errors
        print(f"error: {exc}", file=err)
        return EXIT_ERROR

    if config.verify and not checks:
        print(f"note: --verify skipped: {formula.num_vars} variables > "
              f"{MAX_VARS}", file=err)
    elif checks:
        table = to_truth_table(formula)
        if (count != table.support_size
                or rows != tuple(islice(table.support(), len(rows)))):
            print(f"error: verification mismatch: solver found {count} "
                  f"solutions, oracle found {table.support_size}", file=err)
            return EXIT_ERROR

    sat = bool(rows)
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
