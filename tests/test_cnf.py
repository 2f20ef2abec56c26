"""CNF data model, DIMACS I/O, partial assignments, and reduction."""

import random
import warnings
from pathlib import Path

import pytest

from cofsat import (
    CapacityError,
    Clause,
    CnfFormula,
    DimacsParseError,
    NormalizationWarning,
    PartialAssignment,
    SolutionSet,
    emit_dimacs,
    parse_dimacs,
    partial_assignments,
    sat_set,
    substitute,
    to_truth_table,
)

from helpers import brute_force_rows, example2_formula, random_formula

GOLDEN = Path(__file__).parent / "golden"


class TestClause:
    def test_dedupes_and_sorts(self):
        c = Clause([3, -1, 3])
        assert c.to_ints() == (-1, 3)

    def test_vars(self):
        assert Clause([-7, 2]).vars == (2, 7)

    def test_iterates_its_ints(self):
        assert list(Clause([3, -1])) == [-1, 3]
        assert Clause(Clause([3, -1])) == Clause([-1, 3])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Clause([1, 0])


class TestCnfFormula:
    def test_universe_defaults_to_occurring_vars(self):
        f = CnfFormula([[1, -3]])
        assert f.universe == (1, 3)

    def test_universe_can_be_widened(self):
        f = CnfFormula([[1]], universe=[1, 2, 3])
        assert f.universe == (1, 2, 3)

    def test_universe_cannot_be_narrowed(self):
        with pytest.raises(ValueError):
            CnfFormula([[1, 2]], universe=[1])

    @pytest.mark.parametrize("universe", [[0, 1, 2], [-3, 1, 2]])
    def test_universe_variables_are_positive(self, universe):
        with pytest.raises(ValueError, match="positive"):
            CnfFormula([[1, 2]], universe=universe)

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula([[]])

    def test_tautologies_dropped_with_warning(self):
        with pytest.warns(NormalizationWarning):
            f = CnfFormula([[1, -1], [2]])
        assert len(f.clauses) == 1

    def test_duplicates_dropped_with_warning(self):
        with pytest.warns(NormalizationWarning):
            f = CnfFormula([[1, 2], [2, 1]])
        assert len(f.clauses) == 1

    def test_normalization_warning_texts(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CnfFormula([[1, -1], [2, -3], [-3, 2], [3]])
        assert [(w.category, str(w.message)) for w in caught] == [
            (NormalizationWarning, "dropped tautological clause (x1' + x1)"),
            (NormalizationWarning, "dropped duplicate clause (x2 + x3')"),
        ]

    def test_renders_as_product_of_sums(self):
        assert str(CnfFormula([[-1, 3], [2]])) == "(x1' + x3)(x2)"
        assert str(CnfFormula([], universe=[1])) == "(empty)"


class TestDimacs:
    def test_basic_parse(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.universe == (1, 2)
        assert f.clauses == (Clause([1, -2]),)

    def test_example2_parse(self):
        f = parse_dimacs((GOLDEN / "example2.cnf").read_bytes())
        assert f == example2_formula()

    def test_tautology_normalized_with_warning(self):
        with pytest.warns(NormalizationWarning):
            f = parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert f.clauses == ()
        assert f.universe == (1,)

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c hello\np cnf 3 1\n1\n2 3 0\n")
        assert f.clauses == (Clause([1, 2, 3]),)

    def test_comment_may_hold_any_bytes(self):
        f = parse_dimacs(b"c caf\xe9\np cnf 2 1\n1 2 0\n")
        assert f == parse_dimacs(b"p cnf 2 1\n1 2 0\n")

    def test_non_utf8_byte_outside_a_comment_is_a_parse_error(self):
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs(b"p cnf 2 1\n1 \xe9 0\n")
        assert err.value.line == 2

    def test_lines_end_at_lf_only(self):
        # str.splitlines() would also end the comment at these characters
        # and read "-1 -2 0" as a second clause.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = parse_dimacs(b"p cnf 2 1\nc see\x0c -1 -2 0\n1 0\n")
            assert f.to_ints() == ((1,),)
            for sep in "\x0b\x1c\x1d\x1e\x85\u2028\u2029":
                f = parse_dimacs(f"p cnf 2 1\nc see{sep} -1 -2 0\n1 0\n")
                assert f.to_ints() == ((1,),)

    def test_crlf_lines(self):
        f = parse_dimacs(b"c crlf\r\np cnf 2 2\r\n1 -2 0\r\n2\r\n0\r\n")
        assert f == CnfFormula([[1, -2], [2]], universe=[1, 2])

    def test_line_numbers_after_a_form_feed_comment(self):
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs("p cnf 2 1\nc a\x0c\u2028c\n1 -3 0\n")
        assert str(err.value) == "line 3: literal -3 out of range 1..2"

    # int() also takes "_" separators and any Unicode decimal digit.
    @pytest.mark.parametrize("source, line, message", [
        (b"p cnf 10 1\n1_0 0\n", 2, "bad token '1_0'"),
        ("p cnf 2 1\n\u0661 2 0\n", 2, "bad token '\u0661'"),
        ("p cnf 1_0 1\n1 0\n", 1, "malformed header 'p cnf 1_0 1'"),
    ], ids=["underscore", "arabic-indic-digit", "header-underscore"])
    def test_integers_are_a_sign_and_ascii_digits(self, source, line, message):
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs(source)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_plus_sign_is_accepted(self):
        assert parse_dimacs(b"p cnf 2 1\n+1 2 0\n").to_ints() == ((1, 2),)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs("1 -2 0\n")
        assert err.value.line == 1
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs("p cnf 2 1\n1 -3 0\n")
        assert err.value.line == 2
        with pytest.raises(DimacsParseError) as err:
            parse_dimacs("p cnf 2 1\n1 -2\n")
        assert err.value.line == 2
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf x y\n")
        with pytest.raises(DimacsParseError):
            parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")
        with pytest.raises(DimacsParseError):
            parse_dimacs("")

    def test_clause_count_mismatch_warns(self):
        with pytest.warns(NormalizationWarning):
            f = parse_dimacs("p cnf 2 5\n1 0\n")
        assert len(f.clauses) == 1

    def test_emit_empty_formula(self):
        f = CnfFormula([], universe=[1, 2, 3])
        assert emit_dimacs(f) == "p cnf 3 0\n"

    def test_emit_unit(self):
        f = CnfFormula([[1]])
        assert emit_dimacs(f) == "p cnf 1 1\n1 0\n"

    def test_emit_example2_bytes(self):
        expected = (
            "p cnf 4 4\n-1 2 4 0\n-2 3 -4 0\n1 3 -4 0\n1 -3 -4 0\n")
        assert emit_dimacs(example2_formula()) == expected

    def test_round_trip_identity(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(3, 10)
            f = random_formula(rng, n, rng.randint(0, 3 * n))
            assert parse_dimacs(emit_dimacs(f)) == f


class TestPartialAssignment:
    def test_mapping_protocol(self):
        q = PartialAssignment({3: True, 1: False})
        assert dict(q) == {1: False, 3: True}
        assert q == {1: False, 3: True}
        assert list(q) == [1, 3]
        assert q[3] is True
        assert len(q) == 2

    def test_from_to_literals(self):
        q = PartialAssignment.from_literals([-1, 4])
        assert q.to_literals() == (-1, 4)

    def test_conflict_rejected(self):
        with pytest.raises(ValueError):
            PartialAssignment([(1, True), (1, False)])

    def test_hashable(self):
        assert hash(PartialAssignment({1: True})) == hash(
            PartialAssignment([(1, True)]))


class TestSatSet:
    def test_mixed_polarity_clause(self):
        # x1' + x2 + x3' is made true by x1=0, x2=1, x3=0
        q = sat_set(Clause([-1, 2, -3]))
        assert dict(q) == {1: False, 2: True, 3: False}

    def test_unit(self):
        assert dict(sat_set(Clause([5]))) == {5: True}

    def test_example2_golden(self):
        f = example2_formula()
        got = "".join(
            " ".join(str(v) for v in sat_set(c).to_literals()) + " 0\n"
            for c in f.clauses)
        assert got == (GOLDEN / "example2_satsets.txt").read_text()

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            sat_set(Clause([]))


class TestPartialAssignments:
    def test_unit_clause_single_element(self):
        qs = partial_assignments(Clause([3]))
        assert [q.to_literals() for q in qs] == [(3,)]

    def test_count_is_2k_minus_1(self):
        for k in range(1, 6):
            clause = Clause(range(1, k + 1))
            assert len(partial_assignments(clause)) == 2 ** k - 1

    def test_order_matches_indexed_table(self):
        # columns: singletons by position, then pairs, then the full set
        qs = partial_assignments(Clause([-1, 2, -3]))
        assert [q.to_literals() for q in qs] == [
            (-1,), (2,), (-3,), (-1, 2), (-1, -3), (2, -3), (-1, 2, -3)]
        assert qs[3].to_literals() == (-1, 2)  # column 4 = {x1=0, x2=1}

    def test_example2_qc1_golden(self):
        f = example2_formula()
        qs = partial_assignments(f.clauses[0])
        got = "".join(
            " ".join(str(v) for v in q.to_literals()) + " 0\n" for q in qs)
        assert got == (GOLDEN / "example2_qc1.txt").read_text()
        assert qs[4].to_literals() == (-1, 4)  # column 5 = {x=0, w=1}


class TestSubstitute:
    def test_example2_rows(self):
        f = example2_formula()
        row1 = substitute(f, {1: False})
        assert row1 == CnfFormula(
            [[-2, 3, -4], [3, -4], [-3, -4]], universe=[2, 3, 4])
        row5 = substitute(f, {1: False, 4: True})
        assert row5 == CnfFormula([[-2, 3], [3], [-3]], universe=[2, 3])
        row7 = substitute(f, {1: False, 2: True, 4: True})
        assert row7 == CnfFormula([[3], [-3]], universe=[3])  # (z) deduplicated

    def test_row4_merges_duplicates(self):
        f = example2_formula()
        row4 = substitute(f, {1: False, 2: True})
        assert row4 == CnfFormula([[3, -4], [-3, -4]], universe=[3, 4])

    def test_unsat_marker(self):
        f = CnfFormula([[1], [-1, 2]])
        assert substitute(f, {1: False}) is None
        assert substitute(f, {1: True, 2: False}) is None

    def test_all_clauses_vanish(self):
        f = CnfFormula([[1, 2]], universe=[1, 2, 3])
        reduced = substitute(f, {1: True})
        assert reduced.is_empty
        assert reduced.universe == (2, 3)

    def test_universe_shrinks_to_unbound(self):
        f = example2_formula()
        assert substitute(f, {1: False}).universe == (2, 3, 4)

    def test_monotonicity(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_formula(rng, 8, 12)
            vars_ = rng.sample(range(1, 9), 4)
            first = [(v, rng.random() < 0.5) for v in vars_[:2]]
            rest = [(v, rng.random() < 0.5) for v in vars_[2:]]
            q = PartialAssignment(first)
            q_full = PartialAssignment(first + rest)
            one_step = substitute(f, q_full)
            partial = substitute(f, q)
            if partial is None:
                assert one_step is None
                continue
            two_step = substitute(partial, PartialAssignment(rest))
            assert one_step == two_step

    def test_soundness_against_restriction(self):
        rng = random.Random(19)
        for _ in range(40):
            f = random_formula(rng, 8, 14)
            table = to_truth_table(f)
            bound = {v: rng.random() < 0.5
                     for v in rng.sample(range(1, 9), 3)}
            reduced = substitute(f, bound)
            positions = {
                j: bound[v] for j, v in enumerate(f.universe) if v in bound}
            restricted = table.restrict(positions)
            if reduced is None:
                assert restricted.is_zero
            else:
                assert to_truth_table(reduced) == restricted

    def test_unsat_marker_iff_restriction_is_zero(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(200):
            f = random_formula(rng, 6, 16)
            bound = {v: rng.random() < 0.5
                     for v in rng.sample(range(1, 7), 4)}
            reduced = substitute(f, bound)
            positions = {
                j: bound[v] for j, v in enumerate(f.universe) if v in bound}
            restricted = to_truth_table(f).restrict(positions)
            if reduced is None:
                hits += 1
                assert restricted.is_zero
            elif restricted.is_zero:
                # reduction may be unsatisfiable without an immediate empty
                # clause; it just must not be a trivially true formula
                assert not reduced.is_empty
        assert hits > 0  # the sample actually exercised the marker


class TestToTruthTable:
    def test_empty_formula_is_one(self):
        f = CnfFormula([], universe=[1, 2])
        assert to_truth_table(f).is_one

    def test_single_positive_unit(self):
        f = CnfFormula([[1]])
        assert to_truth_table(f).values() == [False, True]

    def test_example2_has_nine_ones(self):
        f = example2_formula()
        table = to_truth_table(f)
        assert table.support_size == 9
        assert sorted(table.support()) == brute_force_rows(
            [list(c.to_ints()) for c in f.clauses], f.universe)

    def test_capacity(self):
        f = CnfFormula([], universe=range(1, 18))
        with pytest.raises(CapacityError):
            to_truth_table(f)


class TestSolutionSet:
    def test_canonicalizes(self):
        s = SolutionSet([3, 1], [2, 0, 2])
        assert s.over == (1, 3)
        assert s.rows == (0, 2)
        assert s.count == 2

    def test_row_out_of_range(self):
        with pytest.raises(ValueError):
            SolutionSet([1], [2])
        with pytest.raises(ValueError, match="^row -1 out of range"):
            SolutionSet([1], [-1])
        with pytest.raises(ValueError, match="^row 5 out of range"):
            SolutionSet([1, 2], [1, 9, 5])

    def test_literals_and_text(self):
        s = SolutionSet([2, 5], [1, 2])
        assert s.row_to_literals(1) == (2, -5)
        assert s.to_text() == "2 -5 0\n-2 5 0\n"

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 30])
    def test_text_across_byte_boundaries(self, width):
        # to_text reads a row a byte at a time; each line must still be
        # the row's literals, read bit by bit.
        rng = random.Random(width)
        for over in (range(1, width + 1),
                     sorted(rng.sample(range(1, 1000), width))):
            rows = [0, (1 << width) - 1,
                    *(rng.getrandbits(width) for _ in range(40))]
            s = SolutionSet(over, rows)
            assert s.to_text() == "".join(
                " ".join(map(str, [*s.row_to_literals(row), 0])) + "\n"
                for row in s.rows)

    def test_empty_universe_row_text(self):
        # the empty assignment is a real row, printed as a bare terminator
        s = SolutionSet([], [0])
        assert s.count == 1
        assert s.to_text() == "0\n"


class TestZeroVariableFormula:
    def test_parse_and_count(self):
        f = parse_dimacs("p cnf 0 0\n")
        assert f.universe == ()
        assert to_truth_table(f).is_one
        assert emit_dimacs(f) == "p cnf 0 0\n"
