"""Spans and counters recorded around cofsat's layer functions.

Nothing inside the package changes: ``install`` rebinds the module-level
names that callers look up (``cofsat.cli.solve_leaf``,
``cofsat.decompose.substitute``, ...) to wrappers that time the original.
A span carries a name, start, end, the span that was open when it started,
and the id of the ``cli.run`` call it belongs to.  Spans stay in memory
until ``write_spans``.  Fine-grained functions (``substitute``) are counted
rather than spanned, to keep the overhead and the span list small.

A name that no longer exists is skipped with a warning; the metrics it
feeds are reported as missing instead of crashing the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Per-layer metrics, each with its unit.  Times are seconds per cli.run call;
# counts are per call as well.
LAYER_METRICS = {
    "cli.run_s": "s",
    "cli.self_s": "s",
    "cli.leaf_solve_s": "s",
    "cli.leaf_busy_ratio": "ratio",
    "cnf.parse_s": "s",
    "cnf.substitute_calls.decompose": "count",
    "cnf.substitute_s.decompose": "s",
    "cnf.substitute_calls.allsat": "count",
    "cnf.substitute_s.allsat": "s",
    "cnf.substitute_unsat_ratio": "ratio",
    "decompose.tree_s": "s",
    "decompose.choose_var_subset_s": "s",
    "decompose.enumerate_c1_s": "s",
    "decompose.c1_tried": "count",
    "decompose.c1_allowed": "count",
    "decompose.c1_yield": "ratio",
    "decompose.nodes": "count",
    "decompose.leaves_solvable": "count",
    "decompose.leaves_trivial": "count",
    "decompose.leaves_dead": "count",
    "decompose.live_leaf_ratio": "ratio",
    "decompose.serialize_s": "s",
    "allsat.solve_leaf_s": "s",
    "allsat.solve_leaf_calls": "count",
    "allsat.gather_s": "s",
    "allsat.rows_gathered": "count",
    "allsat.rows_out": "count",
    "allsat.dedup_ratio": "ratio",
    "boolfn.truth_table_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.call_id = 0
        self.missing: dict[str, str] = {}  # metric name -> why it is missing
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._tallies: list[defaultdict] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tally(self) -> defaultdict:
        """This thread's counters; merged by ``totals``."""
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = defaultdict(float)
            self._tallies.append(tally)
        return tally

    def totals(self) -> defaultdict:
        merged: defaultdict = defaultdict(float)
        for tally in self._tallies:
            for key, value in tally.items():
                merged[key] += value
        return merged

    def _lookup(self, owner, attr: str, feeds: tuple[str, ...]):
        original = getattr(owner, attr, None)
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None and feeds[0] not in self.missing:
            print(f"warning: {where} not found; reporting {', '.join(feeds)} "
                  "as missing", file=sys.stderr)
            for metric in feeds:
                self.missing[metric] = f"{where} not found"
        return original

    def span(self, owner, attr: str, name: str, feeds: tuple[str, ...],
             after=None, derived: tuple[str, ...] = (),
             new_call: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        ``feeds`` are the metrics read from the spans; ``after(tracer, args,
        kwargs, result, elapsed)`` may add counters for the ``derived`` ones.
        Worker threads have no open span of their own, so their spans hang
        off the span open on the installing thread.
        """
        original = self._lookup(owner, attr, feeds + derived)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if new_call:
                tracer.call_id += 1
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer.call_id))
            if after is not None:
                tracer._after(after, derived, args, kwargs, result, end - start)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, owner, attr: str, key: str, feeds: tuple[str, ...],
              after=None, derived: tuple[str, ...] = ()) -> None:
        """Count calls of ``owner.attr`` and their time under ``key``."""
        original = self._lookup(owner, attr, feeds + derived)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            elapsed = perf_counter() - start
            tally = tracer.tally()
            tally[key + ".calls"] += 1
            tally[key + ".s"] += elapsed
            if after is not None:
                tracer._after(after, derived, args, kwargs, result, elapsed)
            return result

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def _after(self, hook, derived, args, kwargs, result, elapsed) -> None:
        # Hooks read cofsat's data structures, which refactors may change;
        # a hook that no longer fits marks its metrics missing.
        try:
            hook(self, args, kwargs, result, elapsed)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            for metric in derived:
                if metric not in self.missing:
                    print(f"warning: cannot compute {metric}: {exc!r}",
                          file=sys.stderr)
                    self.missing[metric] = repr(exc)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value, per traced ``cli.run`` call."""
        calls = max(self.call_id, 1)
        busy: defaultdict = defaultdict(float)
        spans: defaultdict = defaultdict(int)
        child_time: defaultdict = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            spans[name] += 1
            child_time[parent] += end - start
        run_self = sum(end - start - child_time[span_id]
                       for span_id, name, start, end, _, _ in self.spans
                       if name == "cli.run")
        t = self.totals()
        sub_calls = t["sub.decompose.calls"] + t["sub.allsat.calls"]
        leaves = t["leaves.solvable"] + t["leaves.trivial"] + t["leaves.dead"]
        values = {
            "cli.run_s": busy["cli.run"],
            "cli.self_s": run_self,
            "cli.leaf_solve_s": busy["cli.leaf_solve"],
            "cnf.parse_s": busy["cnf.parse"],
            "cnf.substitute_calls.decompose": t["sub.decompose.calls"],
            "cnf.substitute_s.decompose": t["sub.decompose.s"],
            "cnf.substitute_calls.allsat": t["sub.allsat.calls"],
            "cnf.substitute_s.allsat": t["sub.allsat.s"],
            "decompose.tree_s": busy["decompose.tree"],
            "decompose.choose_var_subset_s": busy["decompose.choose_var_subset"],
            "decompose.enumerate_c1_s": busy["decompose.enumerate_c1"],
            "decompose.c1_tried": t["c1.tried"],
            "decompose.c1_allowed": t["c1.allowed"],
            "decompose.nodes": t["nodes"],
            "decompose.leaves_solvable": t["leaves.solvable"],
            "decompose.leaves_trivial": t["leaves.trivial"],
            "decompose.leaves_dead": t["leaves.dead"],
            "decompose.serialize_s": busy["decompose.serialize"],
            "allsat.solve_leaf_s": busy["allsat.solve_leaf"],
            "allsat.solve_leaf_calls": spans["allsat.solve_leaf"],
            "allsat.gather_s": busy["allsat.gather"],
            "allsat.rows_gathered": t["rows.gathered"],
            "allsat.rows_out": t["rows.out"],
            "boolfn.truth_table_s": busy["boolfn.truth_table"],
        }
        values = {k: v / calls for k, v in values.items()}
        values["cli.leaf_busy_ratio"] = _ratio(busy["allsat.solve_leaf"],
                                               t["leaf.capacity_s"])
        values["cnf.substitute_unsat_ratio"] = _ratio(t["sub.unsat"], sub_calls)
        values["decompose.c1_yield"] = _ratio(t["c1.allowed"], t["c1.tried"])
        values["decompose.live_leaf_ratio"] = _ratio(
            t["leaves.solvable"] + t["leaves.trivial"], leaves)
        values["allsat.dedup_ratio"] = _ratio(t["rows.out"], t["rows.gathered"])
        return {k: values[k] for k in LAYER_METRICS}


# -- hooks that derive counts from results ---------------------------------


def _bump(key: str, amount):
    def hook(tracer, args, kwargs, result, elapsed):
        tracer.tally()[key] += amount(result)
    return hook


def _tree_shape(var_partition: bool):
    def hook(tracer, args, kwargs, tree, elapsed):
        tally = tracer.tally()
        tally["nodes"] += len(tree.nodes)
        for leaf in tree.leaves():
            status = "dead" if leaf.status == "unsat" else leaf.status
            tally["leaves." + status] += 1
        if var_partition:
            # Every non-root node is one allowed assignment of its parent's block.
            tally["c1.allowed"] += len(tree.nodes) - 1
    return hook


def _rows_gathered(tracer, args, kwargs, result, elapsed) -> None:
    """Rows gather produces before deduplication, from the tree and leaves."""
    tree, results = args[0], args[1]
    by_item = {r.item: r.solutions.count for r in results}
    root = len(tree.root_universe)
    rows = 0
    for leaf in tree.leaves():
        if leaf.status == "unsat":
            continue
        item = leaf.item
        if leaf.status == "solvable":
            rows += by_item[item] << (root - len(item.prefix)
                                      - len(item.formula.universe))
        else:
            rows += 1 << (root - len(item.prefix))
    tally = tracer.tally()
    tally["rows.gathered"] += rows
    tally["rows.out"] += result.count


def _leaf_capacity(tracer, args, kwargs, result, elapsed) -> None:
    jobs = kwargs["jobs"] if "jobs" in kwargs else args[1]
    tracer.tally()["leaf.capacity_s"] += jobs * elapsed


def install(tracer: Tracer, cofsat) -> None:
    """Wrap the public functions of every layer that a CLI run reaches.

    ``cofsat`` is the imported package; ``expr`` is on no CLI path and
    stays unwrapped.
    """
    cli, dec = cofsat.cli, cofsat.decompose
    unsat = getattr(cofsat.cnf, "UNSAT", None)
    is_unsat = _bump("sub.unsat", lambda result: result is unsat)
    tracer.span(cli, "run", "cli.run", ("cli.run_s", "cli.self_s"),
                new_call=True)
    tracer.span(cli, "parse_dimacs", "cnf.parse", ("cnf.parse_s",))
    shape = ("decompose.nodes", "decompose.leaves_solvable",
             "decompose.leaves_trivial", "decompose.leaves_dead",
             "decompose.live_leaf_ratio")
    tracer.span(cli, "var_partition_decompose", "decompose.tree",
                ("decompose.tree_s",), after=_tree_shape(var_partition=True),
                derived=shape + ("decompose.c1_allowed", "decompose.c1_yield"))
    tracer.span(cli, "clause_pivot_tree", "decompose.tree",
                ("decompose.tree_s",), after=_tree_shape(var_partition=False),
                derived=shape)
    tracer.span(dec, "choose_var_subset", "decompose.choose_var_subset",
                ("decompose.choose_var_subset_s",),
                after=_bump("c1.tried", lambda x1: 1 << len(x1)),
                derived=("decompose.c1_tried", "decompose.c1_yield"))
    tracer.span(dec, "enumerate_c1_assignments", "decompose.enumerate_c1",
                ("decompose.enumerate_c1_s",))
    tracer.span(getattr(dec, "DecompositionTree", None), "serialize",
                "decompose.serialize", ("decompose.serialize_s",))
    tracer.span(cli, "_tree_as_json", "decompose.serialize",
                ("decompose.serialize_s",))
    tracer.count(dec, "substitute", "sub.decompose",
                 ("cnf.substitute_calls.decompose", "cnf.substitute_s.decompose"),
                 after=is_unsat, derived=("cnf.substitute_unsat_ratio",))
    tracer.count(cofsat.allsat, "substitute", "sub.allsat",
                 ("cnf.substitute_calls.allsat", "cnf.substitute_s.allsat"),
                 after=is_unsat, derived=("cnf.substitute_unsat_ratio",))
    tracer.span(cli, "parallel_leaf_solve", "cli.leaf_solve",
                ("cli.leaf_solve_s",), after=_leaf_capacity,
                derived=("cli.leaf_busy_ratio",))
    tracer.span(cli, "solve_leaf", "allsat.solve_leaf",
                ("allsat.solve_leaf_s", "allsat.solve_leaf_calls",
                 "cli.leaf_busy_ratio"))
    tracer.span(cli, "gather", "allsat.gather", ("allsat.gather_s",),
                after=_rows_gathered,
                derived=("allsat.rows_gathered", "allsat.rows_out",
                         "allsat.dedup_ratio"))
    tracer.span(cli, "to_truth_table", "boolfn.truth_table",
                ("boolfn.truth_table_s",))
