"""Algebraic invariants, exhaustive at tiny sizes and randomized above.

The full interval/closure/cardinality sweeps use the defining equation
``alpha & g == f & g`` directly on bit masks where complete enumeration
through the object API would be too slow; the API is held to the same
predicate exhaustively at n = 2 and on samples at n = 3 and 4.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from cofsat import (
    BaseSet,
    Clause,
    CnfFormula,
    TruthTable,
    cofactor_interval,
    cofactor_sample,
    consistency_over_base,
    consistency_over_on,
    emit_dimacs,
    expand,
    is_cofactor,
    is_orthonormal,
    parse_dimacs,
    partial_assignments,
    term_expansions,
)

from helpers import random_base, random_table


def tables(num_vars):
    return st.builds(
        lambda bits: TruthTable(num_vars, bits),
        st.integers(0, (1 << (1 << num_vars)) - 1))


def nonzero_tables(num_vars):
    return st.builds(
        lambda bits: TruthTable(num_vars, bits),
        st.integers(1, (1 << (1 << num_vars)) - 1))


def submasks(mask):
    """All submasks of an int bit mask, ascending."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == mask:
            return out
        sub = (sub - mask) & mask


class TestIntervalCharacterization:
    def test_exhaustive_n2_through_api(self):
        for f_bits in range(16):
            f = TruthTable(2, f_bits)
            for g_bits in range(1, 16):
                g = TruthTable(2, g_bits)
                interval = cofactor_interval(f, g)
                for a_bits in range(16):
                    alpha = TruthTable(2, a_bits)
                    member = (alpha & g) == (f & g)
                    assert is_cofactor(alpha, f, g) == member
                    assert interval.contains(alpha) == member

    def test_alpha_exhaustive_sampled_pairs_n3(self):
        rng = random.Random(101)
        for _ in range(40):
            f = random_table(rng, 3)
            g = TruthTable(3, rng.randint(1, 255))
            interval = cofactor_interval(f, g)
            for a_bits in range(256):
                alpha = TruthTable(3, a_bits)
                assert is_cofactor(alpha, f, g) == interval.contains(alpha)

    @settings(max_examples=150)
    @given(tables(4), nonzero_tables(4), tables(4))
    def test_randomized_n4(self, f, g, alpha):
        interval = cofactor_interval(f, g)
        assert is_cofactor(alpha, f, g) == interval.contains(alpha)

    @settings(max_examples=150)
    @given(tables(4), nonzero_tables(4), tables(4))
    def test_parametrized_form_covers_interval(self, f, g, p):
        sample = cofactor_sample(f, g, p)
        assert cofactor_interval(f, g).contains(sample)


class TestClosure:
    def test_exhaustive_n2(self):
        for f_bits in range(16):
            f = TruthTable(2, f_bits)
            for g_bits in range(1, 16):
                g = TruthTable(2, g_bits)
                fg = f & g
                members = [fg | TruthTable(2, s)
                           for s in submasks((~g).bits)]
                assert len(members) == 1 << (4 - g.support_size)
                for alpha in members:
                    assert is_cofactor(~alpha, ~f, g)
                    for beta in members:
                        assert is_cofactor(alpha | beta, f, g)
                        assert is_cofactor(alpha & beta, f, g)

    @settings(max_examples=200)
    @given(tables(4), nonzero_tables(4), tables(4), tables(4))
    def test_randomized_n4(self, f, g, p1, p2):
        alpha = cofactor_sample(f, g, p1)
        beta = cofactor_sample(f, g, p2)
        assert is_cofactor(alpha | beta, f, g)
        assert is_cofactor(alpha & beta, f, g)
        assert is_cofactor(~alpha, ~f, g)
        # complements take the same parametrized shape over f'
        assert ~alpha == (~f & g) | (~p1 & ~g)


class TestCardinality:
    def test_counted_exhaustively_up_to_n3(self):
        # counting uses the defining equation directly on masks so the full
        # n = 3 sweep stays fast; the API is held to it in the tests above
        for n in (1, 2, 3):
            size = 1 << (1 << n)
            full = size - 1
            for f_bits in range(size):
                for g_bits in range(1, size):
                    fg = f_bits & g_bits
                    count = sum(
                        1 for a in range(size) if (a & g_bits) == fg)
                    comp = (~f_bits & full) & g_bits
                    count_comp = sum(
                        1 for a in range(size) if (a & g_bits) == comp)
                    expected = 1 << ((1 << n) - bin(g_bits).count("1"))
                    assert count == expected == count_comp

    def test_api_count_matches_n2(self):
        for f_bits in range(16):
            f = TruthTable(2, f_bits)
            for g_bits in range(1, 16):
                g = TruthTable(2, g_bits)
                count = sum(
                    1 for a in range(16)
                    if is_cofactor(TruthTable(2, a), f, g))
                assert count == 1 << (4 - g.support_size)


class TestTwoElementForm:
    def test_exhaustive_up_to_n3_on_masks(self):
        for n in (1, 2, 3):
            size = 1 << (1 << n)
            full = size - 1
            for f_bits in range(size):
                for g_bits in range(1, full):  # g non-constant
                    g_comp = ~g_bits & full
                    for alpha in submasks(g_comp):
                        a = (f_bits & g_bits) | alpha
                        for beta in submasks(g_bits):
                            b = (f_bits & g_comp) | beta
                            assert (a & g_bits) | (b & g_comp) == f_bits

    def test_exhaustive_n2_through_api(self):
        for f_bits in range(16):
            f = TruthTable(2, f_bits)
            for g_bits in range(1, 15):
                g = TruthTable(2, g_bits)
                alphas = [(f & g) | TruthTable(2, s)
                          for s in submasks((~g).bits)]
                betas = [(f & ~g) | TruthTable(2, s)
                         for s in submasks(g_bits)]
                for alpha in alphas:
                    for beta in betas:
                        assert (alpha & g) | (beta & ~g) == f

    @settings(max_examples=200)
    @given(tables(3), tables(3), tables(3), tables(3))
    def test_randomized_n3(self, f, g, p, q):
        if g.is_zero or g.is_one:
            return
        alpha = cofactor_sample(f, g, p)
        beta = cofactor_sample(f, ~g, q)
        assert (alpha & g) | (beta & ~g) == f


class TestExpansionTheorem:
    @settings(max_examples=200)
    @given(tables(3), nonzero_tables(3), nonzero_tables(3),
           nonzero_tables(3), st.tuples(tables(3), tables(3), tables(3)))
    def test_any_cofactor_choice_reconstructs(self, f, g1, g2, g3, params):
        base = BaseSet([g1, g2, g3])
        f = f & base.cover
        alphas = [cofactor_sample(f, g, p) for g, p in zip(base, params)]
        assert expand(f, base, alphas) == f

    @settings(max_examples=200)
    @given(tables(3), nonzero_tables(3), nonzero_tables(3))
    def test_sum_is_f_times_cover(self, f, g1, g2):
        base = BaseSet([g1, g2])
        alphas = [f & g for g in base]
        got = expand(f, base, alphas, require_cover=False)
        assert got == f & base.cover


class TestDualForms:
    @settings(max_examples=60)
    @given(tables(3), st.integers(0, 2))
    def test_shannon_pair(self, f, index):
        sum_form, product_form = term_expansions(f, BaseSet.shannon(3, index))
        assert sum_form == f == product_form

    @settings(max_examples=40)
    @given(tables(3))
    def test_minterms(self, f):
        sum_form, product_form = term_expansions(f, BaseSet.minterms(3))
        assert sum_form == f == product_form


class TestConsistency:
    def test_matches_nonzero_exhaustively_n2(self):
        for g1_bits in range(1, 16):
            for g2_bits in range(g1_bits + 1, 16):
                base = BaseSet([TruthTable(2, g1_bits), TruthTable(2, g2_bits)])
                cover = base.cover
                for s in submasks(cover.bits):
                    f = TruthTable(2, s)
                    verdict = consistency_over_base(f, base)
                    assert verdict.sat == (not f.is_zero)
                    if verdict.sat:
                        assert f.evaluate(verdict.witness_point)
                        assert base[verdict.witness_index].evaluate(
                            verdict.witness_point)

    def test_random_n8_both_directions(self):
        rng = random.Random(103)
        for _ in range(60):
            base = random_base(rng, 8, rng.randint(2, 4))
            f = random_table(rng, 8) & base.cover
            assert consistency_over_base(f, base).sat == (not f.is_zero)
        # forced unsat direction
        for _ in range(20):
            base = random_base(rng, 8, 2)
            zero = TruthTable.constant(8, False)
            assert not consistency_over_base(zero, base).sat

    @settings(max_examples=100)
    @given(tables(3), nonzero_tables(3))
    def test_on_uniqueness_pair_base(self, f, g):
        if g.is_one:
            return
        base = BaseSet.pair(g)
        assert is_orthonormal(base)
        for point in range(8):
            assert sum(1 for phi in base if phi.evaluate(point)) == 1
        verdict = consistency_over_on(f, base)
        assert verdict.sat == (not f.is_zero)
        assert verdict.exactly_one


class TestCnfProperties:
    clause_strategy = st.dictionaries(
        st.integers(1, 12), st.booleans(), min_size=1, max_size=8)

    @settings(max_examples=100)
    @given(clause_strategy)
    def test_partial_assignment_count(self, bindings):
        clause = Clause(
            v if positive else -v for v, positive in bindings.items())
        qs = partial_assignments(clause)
        assert len(qs) == 2 ** len(clause) - 1
        assert len(set(qs)) == len(qs)

    @settings(max_examples=100)
    @given(st.lists(st.sets(st.integers(-8, 8).filter(lambda v: v != 0),
                            min_size=1, max_size=4), max_size=10))
    def test_round_trip_normalized(self, raw_clauses):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = CnfFormula(
                [Clause(c) for c in raw_clauses
                 if not any(-x in c for x in c)],
                universe=range(1, 9))
            assert parse_dimacs(emit_dimacs(f)) == f
