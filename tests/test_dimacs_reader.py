"""The bulk DIMACS reader against the line-by-line one it replaced.

``cnf.parse_dimacs`` reads valid text in one pass over all its tokens and
walks the lines only to locate an error.  On any input it must return the
formula that ``helpers.reference_parse_dimacs`` returns, warn the same
texts in the same order, and raise the same error on the same line.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cofsat import DimacsParseError, parse_dimacs

from helpers import reference_parse_dimacs


def outcome(parse, source):
    """What a reader makes of the source: its formula's clauses and
    universe or its error's message and line, and the warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            formula = parse(source)
        except DimacsParseError as exc:
            result = ("error", str(exc), exc.line)
        else:
            result = ("formula", formula.to_ints(), formula.universe)
    return result, [str(w.message) for w in caught]


def assert_same_as_reference(source):
    assert outcome(parse_dimacs, source) == outcome(
        reference_parse_dimacs, source)


# Each lone surrogate becomes one byte that is not UTF-8 (surrogateescape).
COMMENT_PIECES = ["x", " ", "0", "1 -2 0", "p cnf 1 1", "c", "_", "\t",
                  "\x0c", "\u2028", "\x85", "\r", "\xe9", "\udce9", "\udcff"]
# int() takes these, but DIMACS integers are a sign and ASCII digits.
INT_TOKENS = ["0_1", "-0_2", "\u0661", "+\u0662", "-\u0661", "1_0"]
BAD_TOKENS = ["1-2", "1" * 5000, "x", "p", "c", "--1", "+-1", "1.0", "0x1",
              "\udce9"]
BAD_HEADERS = ["p cnf 3", "p dnf 3 1", "p cnf x 1", "p cnf -1 0",
               "p cnf 3 -2", "p cnf 1_0 1", "pcnf 3 1", "p cnf 3 1 1",
               "p cnf \u0663 1", "p cnf\u2028 3 1", "p", "pq cnf 3 1",
               "p cnf 1048577 1"]
FAULTS = st.lists(st.sampled_from([
    "int-token", "bad-token", "out-of-range", "empty-clause", "unterminated",
    "clause-first", "second-header", "bad-header", "bad-header",
    "no-header"]), max_size=2)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\u2028", "\x0c", "\x85"])
INDENTS = st.sampled_from(["", " ", "\t", "\u2028", "\x0c"])
# Blank and comment lines, some indented.
JUNK_LINES = st.lists(st.tuples(INDENTS, st.just("") | st.lists(
    st.sampled_from(COMMENT_PIECES), max_size=4).map(
        lambda pieces: "c" + "".join(pieces))).map("".join), max_size=2)


@st.composite
def clause_lists(draw, num_vars):
    """Clauses over 1..num_vars: mostly in normal form, some with
    literals out of order, repeated, in both polarities or repeated as a
    whole."""
    if num_vars == 0:
        return []
    variables = st.integers(1, num_vars)
    signs = st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5)
    normal = st.sets(variables, min_size=1, max_size=4)
    loose = st.lists(variables, min_size=1, max_size=5)
    clauses = []
    for _ in range(draw(st.integers(0, 6))):
        vars_ = sorted(draw(normal)) if draw(st.integers(0, 3)) else draw(loose)
        clauses.append([v * s for v, s in zip(vars_, draw(signs))])
        if not draw(st.integers(0, 7)):
            clauses.append(draw(st.sampled_from(clauses)))
    return clauses


@st.composite
def dimacs_sources(draw):
    """DIMACS text, as str or bytes: a header and clauses laid out over
    lines among blank and comment lines, with up to two faults."""
    num_vars = draw(st.integers(0, 6))
    clauses = draw(clause_lists(num_vars))
    declared = draw(st.sampled_from([len(clauses)] * 4 + [0, 7, -1]))
    plus = draw(st.sampled_from(["", "", "+"]))
    tokens = [f"{plus if x > 0 else ''}{x}"
              for clause in clauses for x in [*clause, 0]]
    faults = draw(FAULTS)
    header = f"p cnf {num_vars} {declared}"
    before: list[str] = []
    for fault in faults:
        at = draw(st.integers(0, len(tokens)))
        if fault == "int-token":  # in place of a literal, if there is one
            token = draw(st.sampled_from(INT_TOKENS))
            spots = [i for i, t in enumerate(tokens) if t != "0"]
            if spots:
                tokens[draw(st.sampled_from(spots))] = token
            else:
                tokens.insert(at, token)
        elif fault == "bad-token":
            tokens.insert(at, draw(st.sampled_from(BAD_TOKENS)))
        elif fault == "out-of-range":
            tokens.insert(at, str(draw(st.sampled_from([1, -1]))
                                  * (num_vars + draw(st.integers(1, 3)))))
        elif fault == "empty-clause":
            tokens.insert(draw(st.sampled_from(
                [0] + [i + 1 for i, t in enumerate(tokens) if t == "0"])), "0")
        elif fault == "unterminated":
            if tokens and tokens[-1] == "0":
                tokens.pop()
            else:
                tokens.append("1")
        elif fault == "clause-first":
            before.append(draw(st.sampled_from(["1 0", "-1", "0", "x"])))
        elif fault == "second-header":
            tokens.insert(at, "\n" + draw(st.sampled_from(
                [header, "p cnf 2 1", "p x"])) + "\n")
        elif fault == "bad-header":
            header = draw(st.sampled_from(BAD_HEADERS))
        else:  # no header, or a line that is one but for its first word
            header = draw(st.sampled_from(["", "x cnf 3 1", "1 cnf 2 1"]))

    lines = [*draw(JUNK_LINES), *before, *draw(JUNK_LINES),
             draw(INDENTS) + header + draw(INDENTS)]
    # Line ends after some tokens, each followed by blank or comment lines.
    ends = draw(st.sets(st.integers(0, len(tokens)), max_size=5))
    line: list[str] = []
    for i, token in enumerate(tokens):
        if token.startswith("\n"):  # a whole header line
            lines += [" ".join(line), token.strip()]
            line = []
            continue
        line.append(token)
        if i in ends:
            lines += [draw(SEPARATORS).join(line), *draw(JUNK_LINES)]
            line = []
    lines.append(" ".join(line))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    source = text.encode("utf-8", "surrogateescape")
    if draw(st.booleans()) and "\udce9" not in text and "\udcff" not in text:
        return text
    return source


@settings(max_examples=400, deadline=None)
@given(dimacs_sources())
def test_bulk_reader_matches_the_line_reader(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize("source", [
    # Valid: comments anywhere, blank lines, CRLF, tabs, U+2028 and form
    # feeds between tokens, + signs, several clauses on one line, clauses
    # spanning lines, header counts that differ from the clauses found.
    b"p cnf 0 0\n",
    b"p cnf 64 0\n",
    b"p cnf 3 2\n1 -2 0 2 3 0\n",
    b"c a\nc b\n\n  p cnf 3 2  \r\n1\r\nc inside a clause\r\n-2 0\r\n\r\n3 0",
    b"p cnf 3 2\n1 c-like comment? no\n",
    "p cnf 3 2\n1\u2028-2\x0c0\t+3 0\n",
    b"c caf\xe9\np cnf 2 1\nc \xff\xfe\n1 2 0\nc\x0c 1 0\n",
    "p cnf 2 1\nc see\u2028 -1 -2 0\n1 0\n",
    b"p cnf 2 5\n1 0\n",
    b"p cnf 3 1\n1 0 2 0 3 0\n",
    # Out of normal form: unsorted and repeated literals, tautologies and
    # duplicate clauses, each warned as before.
    b"p cnf 3 1\n3 -1 0\n",
    b"p cnf 3 1\n2 2 -1 0\n",
    b"p cnf 3 3\n1 -1 0\n2 3 0\n2 3 0\n",
    b"p cnf 3 3\n1 2 0\n2 1 0\n1 2 1 0\n",
    b"p cnf 3 2\n-1 1 0\n1 -1 0\n",
    # Errors, each with its line.
    b"p cnf 10 1\n1_0 0\n",
    "p cnf 2 1\n\u0661 2 0\n",
    b"p cnf 2 1\n1-2 0\n",
    b"p cnf 2 1\n" + b"1" * 5000 + b" 0\n",
    b"p cnf " + b"9" * 5000 + b" 1\n1 0\n",
    b"p cnf 2 1\n1 \xe9 0\n",
    b"p cnf 2 1\n1 -3 0\n",
    b"p cnf 2 1\n1\n3 0\n",
    b"p cnf 2 2\n0\n1 0\n",
    b"p cnf 2 2\n1 0 0\n",
    b"p cnf 2 2\n1 0\n\n0 2 0\n",
    b"p cnf 2 1\n1 -2\n",
    b"p cnf 2 1\n1 0\n2\nc end\n\n",
    b"1 -2 0\np cnf 2 1\n",
    b"c only\n\n1 0\n",
    b"p cnf 2 1\np cnf 2 1\n1 0\n",
    b"p cnf 2 1\n1 0\np cnf 2 1\n",
    b"p cnf 2 1\n1 0 p\n",
    b"p cnf x y\n",
    b"p cnf 2\n1 0\n",
    b"p dnf 2 1\n1 0\n",
    b"p cnf -1 1\n",
    b"p cnf 2 -1\n1 0\n",
    b"p cnf 1_0 1\n1 0\n",
    "p cnf\u2028 2 1\n1 0\n",
    b"pfoo cnf 2 1\n1 0\n",
    b"",
    b"\n\n  \n",
    b"c nothing but comments\n",
], ids=lambda source: repr(source)[:48])
def test_named_inputs_match_the_line_reader(source):
    assert_same_as_reference(source)


@pytest.mark.parametrize("source", [
    b"p cnf 1 1\n1 0\n",
    b"c comment\np cnf 3 2\n1 -2 0\n3 0\n",
    b"p cnf 2 2\n2 1 0\n1 2 0\n",
    b"p cnf 2 1\n1 -3 0\n",
    b"1 0\np cnf 1 1\n",
], ids=lambda source: repr(source)[:48])
def test_a_byte_order_mark_reads_as_the_text_without_it(source):
    assert outcome(parse_dimacs, b"\xef\xbb\xbf" + source) == outcome(
        parse_dimacs, source)
