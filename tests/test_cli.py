"""Command-line driver: exit statuses, output formats, parallel solving."""

import io
import json
import random
import threading
from pathlib import Path

import pytest

from cofsat import (SolutionSet, all_solutions, clause_branch_tree,
                    decompose, emit_dimacs, gather)
from cofsat.allsat import _count_and_least
from cofsat.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SAT,
    EXIT_UNSAT,
    RunConfig,
    build_arg_parser,
    main,
    parallel_leaf_solve,
    run,
)

from helpers import brute_force_rows, example2_formula, random_formula

GOLDEN = Path(__file__).parent / "golden"


def run_capture(config):
    out, err = io.StringIO(), io.StringIO()
    status = run(config, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(input_path="x.cnf")
        assert config.mode == "sat"
        assert config.n0 == 8 and config.jobs == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="^mode must be one of "):
            RunConfig(input_path="x", mode="prove")
        with pytest.raises(ValueError, match="^n0 must be at least 1$"):
            RunConfig(input_path="x", n0=0)
        with pytest.raises(ValueError, match="^jobs must be at least 1$"):
            RunConfig(input_path="x", jobs=0)
        with pytest.raises(ValueError,
                           match="^pivot strategy must be one of "):
            RunConfig(input_path="x", pivot_strategy="magic")
        with pytest.raises(ValueError, match="^format must be one of "):
            RunConfig(input_path="x", output_format="xml")


class TestExitStatuses:
    def test_sat_file(self):
        status, out, _ = run_capture(RunConfig(str(GOLDEN / "sat.cnf")))
        assert status == EXIT_SAT
        assert out.startswith("SATISFIABLE\n")

    def test_unsat_file(self):
        status, out, _ = run_capture(RunConfig(str(GOLDEN / "unsat.cnf")))
        assert status == EXIT_UNSAT
        assert out == "UNSATISFIABLE\n"

    def test_parse_error_files(self):
        for name in ("bad_range.cnf", "bad_header.cnf"):
            status, out, err = run_capture(RunConfig(str(GOLDEN / name)))
            assert status == EXIT_ERROR
            assert out == ""
            assert "line" in err

    def test_missing_file(self):
        status, _, err = run_capture(RunConfig("/does/not/exist.cnf"))
        assert status == EXIT_ERROR
        assert "error" in err

    def test_decompose_mode_exits_zero(self):
        status, _, _ = run_capture(
            RunConfig(str(GOLDEN / "example2.cnf"), mode="decompose"))
        assert status == EXIT_OK

    def test_zero_variable_formula(self, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        status, out, _ = run_capture(RunConfig(str(path), mode="sat"))
        assert status == EXIT_SAT
        assert out == "SATISFIABLE\n0\n"  # the empty assignment
        status, out, _ = run_capture(RunConfig(str(path), mode="count"))
        assert (status, out) == (EXIT_SAT, "1\n")


class TestModes:
    def test_sat_witness_satisfies_formula(self):
        status, out, _ = run_capture(
            RunConfig(str(GOLDEN / "example2.cnf"), mode="sat"))
        assert status == EXIT_SAT
        lines = out.splitlines()
        assert lines[0] == "SATISFIABLE"
        witness = [int(v) for v in lines[1].split()[:-1]]
        assignment = {abs(v): v > 0 for v in witness}
        for clause in example2_formula().clauses:
            assert any(assignment[abs(x)] == (x > 0) for x in clause)

    def test_count_example2(self):
        status, out, _ = run_capture(
            RunConfig(str(GOLDEN / "example2.cnf"), mode="count"))
        assert status == EXIT_SAT
        assert out == "9\n"

    def test_allsat_streams_canonical_set(self):
        status, out, _ = run_capture(
            RunConfig(str(GOLDEN / "example2.cnf"), mode="allsat"))
        assert status == EXIT_SAT
        expected = all_solutions(example2_formula()).to_text()
        assert out == expected
        assert len(out.splitlines()) == 9

    def test_decompose_clause_pivot_golden(self):
        status, out, _ = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="decompose",
            pivot_strategy="clause", pivot_clause=0))
        assert status == EXIT_OK
        assert out == (GOLDEN / "example2_pivot_tree.txt").read_text()

    # Branches whose prefix falsifies a clause print as dead leaves with
    # no formula: the literal 1 falsifies the unit clause -1.
    @pytest.mark.parametrize("output_format, golden", [
        ("text", "dead_branch_pivot_tree.txt"),
        ("json", "dead_branch_pivot_tree.json"),
    ])
    def test_decompose_clause_pivot_dead_branches_golden(
            self, output_format, golden):
        status, out, err = run_capture(RunConfig(
            str(GOLDEN / "dead_branch.cnf"), mode="decompose",
            pivot_strategy="clause", output_format=output_format))
        assert (status, err) == (EXIT_OK, "")
        assert out == (GOLDEN / golden).read_text()

    # Trees of a random 3-CNF (n=11, m=44), written by the implementation
    # that built every child prefix through the checked constructor.  At
    # n0=1 and n0=3 each child below depth 1 extends a nonempty prefix.
    @pytest.mark.parametrize("n0, output_format, golden", [
        (1, "text", "random3_n11_vars_n0_1_tree.txt"),
        (3, "text", "random3_n11_vars_n0_3_tree.txt"),
        (3, "json", "random3_n11_vars_n0_3_tree.json"),
    ])
    def test_decompose_var_partition_golden(self, n0, output_format, golden):
        status, out, err = run_capture(RunConfig(
            str(GOLDEN / "random3_n11.cnf"), mode="decompose", n0=n0,
            output_format=output_format))
        assert (status, err) == (EXIT_OK, "")
        assert out == (GOLDEN / golden).read_text()

    def test_clause_pivot_solving(self):
        status, out, _ = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="count",
            pivot_strategy="clause", pivot_clause=2))
        assert status == EXIT_SAT
        assert out == "9\n"

    def test_bad_pivot_index_is_an_error(self):
        status, _, err = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="count",
            pivot_strategy="clause", pivot_clause=9))
        assert status == EXIT_ERROR
        assert "pivot" in err


class TestJsonFormat:
    def test_sat_payload(self):
        status, out, _ = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="sat", output_format="json"))
        payload = json.loads(out)
        assert status == EXIT_SAT
        assert payload["status"] == "SATISFIABLE"
        assert payload["count"] == 9
        assert len(payload["solutions"]) == 1

    def test_allsat_payload(self):
        _, out, _ = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="allsat", output_format="json"))
        payload = json.loads(out)
        assert payload["count"] == 9
        assert len(payload["solutions"]) == 9
        assert [-1, -2, -3, -4] in payload["solutions"]

    def test_unsat_payload(self):
        status, out, _ = run_capture(RunConfig(
            str(GOLDEN / "unsat.cnf"), mode="count", output_format="json"))
        payload = json.loads(out)
        assert status == EXIT_UNSAT
        assert payload == {"status": "UNSATISFIABLE", "count": 0}

    def test_decompose_payload(self):
        _, out, _ = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="decompose",
            pivot_strategy="clause", output_format="json"))
        payload = json.loads(out)
        assert payload["status"] == "OK"
        nodes = payload["tree"]
        assert nodes[0]["status"] == "internal"
        assert len(nodes) == 8
        assert nodes[1]["prefix"] == [-1]
        assert nodes[1]["clauses"] == [[-2, 3, -4], [3, -4], [-3, -4]]


class TestParallelism:
    def test_jobs_invariance_byte_identical(self, tmp_path):
        rng = random.Random(83)
        for i in range(6):
            f = random_formula(rng, rng.randint(6, 11), rng.randint(12, 30))
            path = tmp_path / f"f{i}.cnf"
            path.write_text(emit_dimacs(f))
            for mode in ("sat", "allsat", "count"):
                for pivot in ("clause", "vars"):
                    outputs = set()
                    statuses = set()
                    for jobs in (1, 2, 8):
                        status, out, _ = run_capture(RunConfig(
                            str(path), mode=mode, pivot_strategy=pivot,
                            n0=4, jobs=jobs))
                        outputs.add(out.encode())
                        statuses.add(status)
                    assert len(outputs) == 1
                    assert len(statuses) == 1

    def test_parallel_leaf_solve_matches_serial(self):
        rng = random.Random(89)
        f = random_formula(rng, 10, 24)
        tree = clause_branch_tree(f, 0)
        serial = parallel_leaf_solve(tree, 1)
        parallel = parallel_leaf_solve(tree, 4)
        assert gather(tree, serial) == gather(tree, parallel)

    def test_single_leaf_any_jobs(self):
        # The pivot (x1' + x2 + x4) prints 7 branches.  Its 3 orthonormal
        # branches are what gets solved, and x1 x2' x4 leaves no clause.
        tree = clause_branch_tree(example2_formula(), 0)
        assert [n.status for n in tree.leaves()] == [
            "solvable", "solvable", "trivial"]
        for jobs in (1, 8):
            results = parallel_leaf_solve(tree, jobs)
            assert len(results) == 2

    def test_bad_jobs_rejected(self):
        tree = clause_branch_tree(example2_formula(), 0)
        with pytest.raises(ValueError):
            parallel_leaf_solve(tree, 0)

    def test_leaves_solved_in_order_on_calling_thread(self, monkeypatch):
        tree = clause_branch_tree(random_formula(random.Random(101), 10, 24), 0)
        calls = []

        def recorder(item):
            calls.append((threading.get_ident(), item))
            return item

        monkeypatch.setattr("cofsat.cli.solve_leaf", recorder)
        expected = [n.item for n in tree.leaves()
                    if n.status == "solvable"]
        assert len(expected) == 3
        assert parallel_leaf_solve(tree, 8) == expected
        assert calls == [(threading.get_ident(), item) for item in expected]


class TestClausePivotSubstitutes:
    """Solving a k-literal pivot builds its k orthonormal branches straight
    from the root: one ``substitute`` each, none for the 2**k - 1
    overlapping branches that only ``--mode decompose`` prints."""

    CLAUSES = [[1, 2, 3, 4, 5, 6, 7, 8], [-1, 9], [-2, -9, 10], [-8, -10]]

    def _run_counting(self, tmp_path, monkeypatch, mode):
        path = tmp_path / "clause8.cnf"
        path.write_text("p cnf 10 4\n" + "".join(
            " ".join(map(str, c)) + " 0\n" for c in self.CLAUSES))
        calls = []
        original = decompose.substitute
        monkeypatch.setattr(decompose, "substitute",
                            lambda f, q: calls.append(q) or original(f, q))
        result = run_capture(RunConfig(str(path), mode=mode,
                                       pivot_strategy="clause"))
        return result, len(calls)

    @pytest.mark.parametrize("mode", ["count", "sat", "allsat"])
    def test_at_most_one_call_per_literal(self, tmp_path, monkeypatch, mode):
        (status, out, err), calls = self._run_counting(
            tmp_path, monkeypatch, mode)
        rows = brute_force_rows(self.CLAUSES, range(1, 11))
        assert (status, err) == (EXIT_SAT, "")
        assert calls <= 8
        if mode == "count":
            assert out == f"{len(rows)}\n"
        else:
            assert len(out.splitlines()) == (2 if mode == "sat" else len(rows))

    def test_decompose_builds_only_the_printed_branches(self, tmp_path,
                                                         monkeypatch):
        (status, out, err), calls = self._run_counting(
            tmp_path, monkeypatch, "decompose")
        assert (status, err) == (EXIT_OK, "")
        assert calls == 255 == len(out.splitlines()) - 1


class TestVerify:
    def test_verify_passes_on_oracle_match(self, tmp_path):
        rng = random.Random(97)
        for i in range(5):
            f = random_formula(rng, 8, 18)
            path = tmp_path / f"v{i}.cnf"
            path.write_text(emit_dimacs(f))
            status, _, err = run_capture(RunConfig(
                str(path), mode="count", n0=3, verify=True))
            assert status in (EXIT_SAT, EXIT_UNSAT)
            assert "mismatch" not in err

    def test_verify_flag_through_main(self, capsys):
        status = main(["--input", str(GOLDEN / "example2.cnf"),
                       "--mode", "count", "--verify"])
        assert status == EXIT_SAT
        assert capsys.readouterr().out == "9\n"

    @staticmethod
    def _forbid(monkeypatch, *names):
        """Make each name fail when called: a dotted name is a path, any
        other a name of ``cofsat.cli``."""
        def refuse(*args, **kwargs):
            raise AssertionError("this mode must not call that solver")
        for name in names:
            monkeypatch.setattr(
                name if "." in name else f"cofsat.cli.{name}", refuse)

    @pytest.mark.parametrize("mode", ["count", "sat"])
    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_count_and_sat_verify_the_cube_path(self, monkeypatch, mode,
                                                output_format):
        # One search of the root: no tree is built, no leaf solved.
        self._forbid(monkeypatch, "gather", "parallel_leaf_solve",
                     "var_partition_decompose", "clause_pivot_tree",
                     "cofsat.decompose.clause_branch_tree")
        path = str(GOLDEN / "example2.cnf")
        for pivot in ("vars", "clause"):
            plain = run_capture(RunConfig(path, mode=mode, pivot_strategy=pivot,
                                          n0=2, output_format=output_format))
            assert plain[0] == EXIT_SAT
            assert run_capture(RunConfig(
                path, mode=mode, pivot_strategy=pivot, n0=2, verify=True,
                output_format=output_format)) == plain

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_clause_allsat_verifies_the_cube_path(self, monkeypatch,
                                                  output_format):
        # The rows come from the cubes of one search of the root: no tree
        # is built, no leaf solved, nothing gathered.
        self._forbid(monkeypatch, "gather", "parallel_leaf_solve",
                     "solve_leaf", "var_partition_decompose",
                     "clause_pivot_tree",
                     "cofsat.decompose.clause_branch_tree")
        path = str(GOLDEN / "example2.cnf")
        want = all_solutions(example2_formula())
        plain = run_capture(RunConfig(path, mode="allsat",
                                      pivot_strategy="clause",
                                      output_format=output_format))
        if output_format == "text":
            assert plain == (EXIT_SAT, want.to_text(), "")
        else:
            assert json.loads(plain[1])["count"] == want.count == 9
        assert run_capture(RunConfig(
            path, mode="allsat", pivot_strategy="clause", verify=True,
            output_format=output_format)) == plain

    @pytest.mark.parametrize("mode", ["count", "sat"])
    @pytest.mark.parametrize("wrong", ["count", "least"])
    def test_cube_mismatch_fails_the_run(self, monkeypatch, mode, wrong):
        self._forbid(monkeypatch, "gather", "parallel_leaf_solve")
        last = all_solutions(example2_formula()).rows[-1]

        def wrong_answer(cubes, width):
            count, least = _count_and_least(cubes, width)
            return (count + 1, least) if wrong == "count" else (count, last)

        monkeypatch.setattr("cofsat.cli._count_and_least", wrong_answer)
        found = 10 if wrong == "count" else 9
        for pivot in ("vars", "clause"):
            assert run_capture(RunConfig(
                str(GOLDEN / "example2.cnf"), mode=mode, pivot_strategy=pivot,
                n0=2, verify=True)) == (
                EXIT_ERROR, "", f"error: verification mismatch: solver found "
                                f"{found} solutions, oracle found 9\n")

    def test_allsat_mismatch_fails_the_run(self, monkeypatch):
        self._forbid(monkeypatch, "_count_and_least")

        def drop_a_row(tree, results):
            solutions = gather(tree, results)
            return SolutionSet(solutions.over, solutions.rows[1:])

        monkeypatch.setattr("cofsat.cli.gather", drop_a_row)
        assert run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="allsat", verify=True)) == (
            EXIT_ERROR, "", "error: verification mismatch: solver found "
                            "8 solutions, oracle found 9\n")


class TestMain:
    def test_main_count(self, capsys):
        status = main(["--input", str(GOLDEN / "example2.cnf"),
                       "--mode", "count", "--pivot", "vars", "--n0", "2",
                       "--jobs", "2"])
        assert status == EXIT_SAT
        assert capsys.readouterr().out == "9\n"

    def test_main_rejects_bad_n0(self, capsys):
        status = main(["--input", str(GOLDEN / "example2.cnf"), "--n0", "0"])
        assert status == EXIT_ERROR

    @pytest.mark.parametrize("bad", [["--mode", "prove"], ["--n0", "x"]])
    def test_usage_error_exits_2(self, bad):
        with pytest.raises(SystemExit) as exc:
            main(["--input", str(GOLDEN / "example2.cnf"), *bad])
        assert exc.value.code == 2

    def test_non_utf8_byte_is_a_clean_error(self, tmp_path, capsys):
        good = tmp_path / "comment.cnf"
        good.write_bytes(b"c caf\xe9\np cnf 2 1\n1 2 0\n")
        assert main(["--input", str(good), "--mode", "count"]) == EXIT_SAT
        assert capsys.readouterr().out == "3\n"
        bad = tmp_path / "token.cnf"
        bad.write_bytes(b"p cnf 2 1\n1 \xe9 0\n")
        assert main(["--input", str(bad)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line 2: ")
        assert "Traceback" not in captured.err

    def test_underscore_in_a_literal_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "underscore.cnf"
        path.write_bytes(b"p cnf 10 1\n1_0 0\n")
        assert main(["--input", str(path)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: line 2: bad token '1_0'\n"

    def test_config_is_the_parsed_namespace(self):
        args = build_arg_parser().parse_args(["--input", "f.cnf"])
        assert RunConfig(**vars(args)) == RunConfig("f.cnf")

    def test_main_json(self, capsys):
        status = main(["--input", str(GOLDEN / "unsat.cnf"),
                       "--mode", "sat", "--format", "json"])
        assert status == EXIT_UNSAT
        assert json.loads(capsys.readouterr().out)["status"] == "UNSATISFIABLE"


class TestVerifySkipped:
    def test_skip_is_reported_on_stderr_only(self, tmp_path):
        path = tmp_path / "wide.cnf"
        path.write_text(
            "p cnf 17 17\n" + "".join(f"{v} 0\n" for v in range(1, 18)))
        plain = run_capture(RunConfig(str(path), mode="count"))
        status, out, err = run_capture(RunConfig(
            str(path), mode="count", verify=True))
        assert (status, out) == plain[:2] == (EXIT_SAT, "1\n")
        assert err == "note: --verify skipped: 17 variables > 16\n"

    def test_skip_in_decompose_mode(self):
        path = str(GOLDEN / "example2.cnf")
        plain = run_capture(RunConfig(path, mode="decompose"))
        status, out, err = run_capture(RunConfig(
            path, mode="decompose", verify=True))
        assert (status, out) == plain[:2] and status == EXIT_OK
        assert err == "note: --verify skipped: decompose mode solves nothing\n"

    def test_no_note_when_verify_runs(self):
        status, out, err = run_capture(RunConfig(
            str(GOLDEN / "example2.cnf"), mode="count", verify=True))
        assert (status, out, err) == (EXIT_SAT, "9\n", "")


# Parsing drops a tautology and a duplicate.  Python's warning display shows
# a warning once per process, so the tests run twice and read err each time.
NORMALIZING = "p cnf 3 3\n1 -1 0\n2 3 0\n3 2 0\n"


def normalizing_warnings(path):
    return (f"warning: {path}: dropped tautological clause (x1' + x1)\n"
            f"warning: {path}: dropped duplicate clause (x2 + x3)\n"
            f"warning: {path}: normalization reduced 3 clauses to 1\n")


class TestParseWarnings:
    def test_every_run_reports_its_warnings_on_err(self, tmp_path, capsys):
        path = tmp_path / "normalizing.cnf"
        path.write_text(NORMALIZING)
        for _ in range(2):
            status, out, err = run_capture(RunConfig(str(path), mode="count"))
            assert (status, out) == (EXIT_SAT, "6\n")
            assert err == normalizing_warnings(path)
            assert capsys.readouterr().err == ""

    def test_main_prints_warnings_without_source_lines(self, tmp_path, capsys):
        path = tmp_path / "normalizing.cnf"
        path.write_text(NORMALIZING)
        assert main(["--input", str(path), "--mode", "count"]) == EXIT_SAT
        captured = capsys.readouterr()
        assert captured.out == "6\n"
        assert captured.err == normalizing_warnings(path)
        for text in ("NormalizationWarning", "Traceback", ".py:"):
            assert text not in captured.err
