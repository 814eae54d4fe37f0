"""The brute-force free-algebra oracle."""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from bchkit.freealgebra import nc_mul, oracle_bch, oracle_lanes
from bchkit.series import bch_term, bch_term_multi
from bchkit.trimatrix import SeriesSpec
from bchkit.words import MAX_WORDS, Alphabet, NCSeries
from helpers import nc_log_reference, nc_mul_reference, oracle_log_reference, series_at_letter, to_lex

A2 = Alphabet.default(2)
A3 = Alphabet.default(3)
ONE = SeriesSpec.from_coeffs([1])


def x(cap):
    return NCSeries(A2, cap, {(0,): 1})


def y(cap):
    return NCSeries(A2, cap, {(1,): 1})


def one(cap):
    return NCSeries(A2, cap, {(): 1})


def degree_slice(s, degree):
    """The words of ``s`` of length exactly ``degree``, as a degree-``degree`` series."""
    return NCSeries(s.alphabet, degree, {w: c for w, c in s.terms.items() if len(w) == degree})


class TestNcMul:
    def test_single_letters_concatenate(self):
        assert nc_mul(x(2), y(2)).terms == {(0, 1): 1}

    def test_binomial_product(self):
        got = nc_mul(one(2) + x(2), one(2) + y(2))
        assert got.terms == {(): 1, (0,): 1, (1,): 1, (0, 1): 1}

    def test_square_of_sum(self):
        s = x(2) + y(2)
        got = nc_mul(s, s)
        assert got.terms == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_eager_truncation(self):
        assert nc_mul(x(1), y(1)).terms == {}

    def test_alphabet_mismatch(self):
        other = NCSeries(A3, 2, {(0,): 1})
        with pytest.raises(ValueError):
            nc_mul(x(2), other)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            nc_mul(x(2), y(3))


coeff = st.integers(-2, 2)


def tiny_series(coeffs):
    words = [(), (0,), (1,), (0, 1), (1, 0), (0, 0, 1)]
    return NCSeries(A2, 4, dict(zip(words, coeffs)))


@given(
    st.lists(coeff, min_size=6, max_size=6),
    st.lists(coeff, min_size=6, max_size=6),
    st.lists(coeff, min_size=6, max_size=6),
)
def test_mul_associative_and_distributive(ca, cb, cc):
    a, b, c = tiny_series(ca), tiny_series(cb), tiny_series(cc)
    assert nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c))
    assert nc_mul(a, b + c) == nc_mul(a, b) + nc_mul(a, c)


class TestIntegerArithmetic:
    """The fraction-free product and power sums against Fraction references."""

    # mixed and coprime denominators; a zero numerator is a zero coefficient
    DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 11, 12)

    @staticmethod
    @st.composite
    def series(draw, cap=3):
        """(a, b): two random rational series over one alphabet of 2 or 3 letters."""
        alphabet = draw(st.sampled_from([A2, A3]))
        words = [w for k in range(cap + 1) for w in itertools.product(range(alphabet.size), repeat=k)]
        coeff = st.builds(
            Fraction, st.integers(-6, 6), st.sampled_from(TestIntegerArithmetic.DENOMINATORS)
        )

        def one():
            terms = draw(st.dictionaries(st.sampled_from(words), coeff, max_size=8))
            return NCSeries(alphabet, cap, terms)

        return one(), one()

    @staticmethod
    def assert_same(got, expected):
        assert got == expected
        # no word stored with a zero coefficient, every coefficient a Fraction
        assert all(type(c) is Fraction and c for c in got.terms.values())

    @given(series())
    def test_mul_matches_reference(self, pair):
        a, b = pair
        self.assert_same(nc_mul(a, b), nc_mul_reference(a, b))
        self.assert_same(nc_mul(b, a), nc_mul_reference(b, a))

    @pytest.mark.parametrize("alphabet", [A2, A3])
    def test_cancelled_word_is_absent(self, alphabet):
        # (1/2 + x/3)(2 - 4x/3): the x terms cancel, 1/3 * 2 - 1/2 * 4/3 = 0
        a = NCSeries(alphabet, 3, {(): Fraction(1, 2), (0,): Fraction(1, 3)})
        b = NCSeries(alphabet, 3, {(): 2, (0,): Fraction(-4, 3)})
        got = nc_mul(a, b)
        assert got.terms == {(): 1, (0, 0): Fraction(-4, 9)}
        self.assert_same(got, nc_mul_reference(a, b))
        # log(exp(-3x/7)) = -3x/7: the power sum cancels every word longer than one letter
        m = alphabet.size
        exp_t = SeriesSpec.from_coeffs([Fraction(-3, 7) ** k / factorial(k) for k in range(4)])
        assert oracle_lanes(3, m, [exp_t] + [ONE] * (m - 1)) == [
            (7, [-3] + [0] * (m - 1)), (1, [0] * m**2), (1, [0] * m**3)
        ]

    @pytest.mark.parametrize("alphabet", [A2, A3])
    def test_zero_series(self, alphabet):
        zero = NCSeries(alphabet, 3)
        a = NCSeries(alphabet, 3, {(1,): Fraction(2, 3), (0, 1): 5})
        assert nc_mul(zero, a).terms == {}
        assert nc_mul(a, zero).terms == {}
        assert nc_mul(zero, zero).terms == {}
        # log(1 1 ...) = 0
        m = alphabet.size
        assert oracle_lanes(3, m, [ONE] * m) == [(1, [0] * m**d) for d in (1, 2, 3)]


class TestExpLog:
    def test_log_exp_round_trip(self):
        # log(e^x 1) = x and log(1 e^y) = y, every longer word cancelled
        exp = SeriesSpec.exponential(4)
        zeros = [(1, [0] * 2**d) for d in (2, 3, 4)]
        assert oracle_lanes(4, 2, [exp, ONE]) == [(1, [1, 0]), *zeros]
        assert oracle_lanes(4, 2, [ONE, exp]) == [(1, [0, 1]), *zeros]

    def test_degree_two_slice_of_log_product(self):
        # x + y, then xy/2 - yx/2
        exp = SeriesSpec.exponential(2)
        assert oracle_lanes(2, 2, [exp, exp]) == [(1, [1, 1]), (2, [0, 1, -1, 0])]


class TestOracleBch:
    def test_n3_published_coefficients(self):
        exp = SeriesSpec.exponential(3)
        got = oracle_bch(3, 2, [exp, exp])
        expected = {
            "yxx": Fraction(1, 12),
            "xyx": Fraction(-1, 6),
            "xxy": Fraction(1, 12),
            "yyx": Fraction(1, 12),
            "yxy": Fraction(-1, 6),
            "xyy": Fraction(1, 12),
        }
        assert got == NCSeries(
            A2, 3, {A2.parse_word(w): c for w, c in expected.items()}
        )

    def test_three_factor_n2(self):
        exp = SeriesSpec.exponential(2)
        got = oracle_bch(2, 3, [exp] * 3)
        expected = {
            "xy": Fraction(1, 2),
            "xw": Fraction(1, 2),
            "yw": Fraction(1, 2),
            "yx": Fraction(-1, 2),
            "wx": Fraction(-1, 2),
            "wy": Fraction(-1, 2),
        }
        assert got == NCSeries(
            A3, 2, {A3.parse_word(w): c for w, c in expected.items()}
        )

    def test_one_plus_t_n2(self):
        onet = SeriesSpec.from_coeffs([1, 1])
        got = oracle_bch(2, 2, [onet, onet])
        expected = {
            "xx": Fraction(-1, 2),
            "xy": Fraction(1, 2),
            "yx": Fraction(-1, 2),
            "yy": Fraction(-1, 2),
        }
        assert got == NCSeries(
            A2, 2, {A2.parse_word(w): c for w, c in expected.items()}
        )

    def test_argument_validation(self):
        exp = SeriesSpec.exponential(2)
        with pytest.raises(ValueError):
            oracle_bch(0, 2, [exp, exp])
        with pytest.raises(ValueError):
            oracle_bch(2, 1, [exp])
        with pytest.raises(ValueError):
            oracle_bch(2, 3, [exp, exp])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_direct_series_matches_exp_log_construction(self, n):
        # oracle_bch builds f(letter) from SeriesSpec coefficients; rebuilding
        # e^x and e^y from factorials alone guards the shared coefficient table
        exp = SeriesSpec.exponential(n)
        via_coeffs = oracle_bch(n, 2, [exp, exp])
        ex, ey = (
            NCSeries(A2, n, {(k,) * j: Fraction(1, factorial(j)) for j in range(n + 1)}) for k in (0, 1)
        )
        via_exp = degree_slice(nc_log_reference(nc_mul(ex, ey)), n)
        assert via_coeffs == via_exp

    def test_series_at_letter(self):
        # the reference oracle's factor builder, from the test helpers
        f = SeriesSpec.from_coeffs([1, 0, Fraction(2, 3)])
        s = series_at_letter(f, A2, 4, 1)
        assert s.terms == {(): 1, (1, 1): Fraction(2, 3)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_agrees_with_matrix_pipeline(self, n):
        exp = SeriesSpec.exponential(n)
        assert oracle_bch(n, 2, [exp, exp]) == bch_term(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_agrees_with_matrix_pipeline_three_factors(self, n):
        exp = SeriesSpec.exponential(n)
        assert oracle_bch(n, 3, [exp] * 3) == bch_term_multi(n, 3)


def seeded_specs(m, top):
    # per factor: c_1..c_top each zero, one, or a rational of either sign
    rng = random.Random(10 * m + top)

    def coeff():
        return rng.choice((0, 1, Fraction(rng.randint(-9, 9), rng.randint(1, 12))))

    return [SeriesSpec.from_coeffs([1] + [coeff() for _ in range(top)]) for _ in range(m)]


NO_C1 = SeriesSpec.from_coeffs([1, 0, Fraction(1, 2), Fraction(1, 6)])  # shortest word a_k^2
NO_C12 = SeriesSpec.from_coeffs([1, 0, 0, Fraction(-2, 7), 3])  # shortest word a_k^3


class TestOracleLog:
    """The log truncated at N holds every lower order: each order of one run is
    the reference's slice, the top order of a run at that order, and oracle_bch.
    The log series starts at N // (the length of the product's shortest word
    past the constant) and keeps each bracket to the degrees still reachable,
    so products whose shortest word is longer than one letter, and products
    equal to 1, take paths that exp does not."""

    @pytest.mark.parametrize(
        "m,top,specs",
        [
            (2, 10, [SeriesSpec.exponential(10)] * 2),
            (3, 6, [SeriesSpec.exponential(6)] * 3),
            (4, 5, [SeriesSpec.exponential(5)] * 4),
            (2, 7, seeded_specs(2, 7)),
            (3, 5, seeded_specs(3, 5)),
            (4, 4, [seeded_specs(4, 4)[0], *[SeriesSpec.exponential(4)] * 3]),  # chain starts at 1 + 4/9 a + ...
            (2, 8, [NO_C1] * 2),
            (3, 5, [NO_C1] * 3),
            (2, 8, [NO_C12] * 2),
            (2, 7, [NO_C1, SeriesSpec.exponential(7)]),
            (3, 5, [SeriesSpec.exponential(5), NO_C12, SeriesSpec.exponential(5)]),
            (2, 6, [ONE] * 2),
            (3, 4, [ONE] * 3),
        ],
        ids=["exp-m2", "exp-m3", "exp-m4", "random-m2", "random-m3", "random-first-m4", "no-c1-m2",
             "no-c1-m3", "no-c1-c2-m2", "one-no-c1-m2", "one-no-c1-c2-m3", "unit-m2", "unit-m3"],
    )
    def test_every_order_is_a_slice_of_the_top_run(self, m, top, specs):
        lanes = oracle_lanes(top, m, specs)
        ref = oracle_log_reference(top, m, specs)
        assert len(lanes) == top
        alphabet = Alphabet.default(m)
        for n in range(1, top + 1):
            assert lanes[n - 1] == to_lex(ref, n), f"n={n}"
            assert lanes[n - 1] == oracle_lanes(n, m, specs)[-1], f"n={n}"
            assert NCSeries.from_lex(alphabet, n, *lanes[n - 1]) == oracle_bch(n, m, specs), f"n={n}"

    def test_argument_validation(self):
        exp = SeriesSpec.exponential(2)
        with pytest.raises(ValueError, match="order"):
            oracle_lanes(0, 2, [exp, exp])
        with pytest.raises(ValueError, match="^factor count must be >= 2, got 1$"):
            oracle_lanes(2, 1, [exp])
        with pytest.raises(ValueError, match="expected 3 series"):
            oracle_lanes(2, 3, [exp, exp])
        with pytest.raises(ValueError, match="alphabet has 3 letters, need 2"):
            oracle_bch(2, 2, [exp, exp], A3)


class TestFlatEngine:
    """The flat graded-lex engine against the dict and Fraction references."""

    @pytest.mark.parametrize(
        "m,top,specs",
        [
            (2, 9, [SeriesSpec.exponential(9)] * 2),
            (3, 6, [SeriesSpec.exponential(6)] * 3),
            (2, 7, seeded_specs(2, 7)),
            (3, 5, seeded_specs(3, 5)),
            (4, 4, seeded_specs(4, 4)),
        ],
        ids=["exp-m2", "exp-m3", "random-m2", "random-m3", "random-m4"],
    )
    def test_log_and_lanes_match_the_reference(self, m, top, specs):
        ref = oracle_log_reference(top, m, specs)
        assert oracle_lanes(top, m, specs) == [to_lex(ref, d) for d in range(1, top + 1)]

    @pytest.mark.parametrize("alphabet", [A2, A3])
    def test_size_guard_refuses_before_allocating(self, alphabet):
        # m**40 words is far past the limit: the error comes before any list
        letter = NCSeries(alphabet, 40, {(0,): 1})
        m = alphabet.size
        for call in (lambda: oracle_lanes(40, m, [SeriesSpec.exponential(40)] * m),
                     lambda: nc_mul(letter, letter)):
            with pytest.raises(ValueError, match=f"over the limit of {MAX_WORDS}"):
                call()
        # a max degree of 10^8 is refused on its bit length, before m**10^8 is built
        huge = NCSeries(alphabet, 10**8, {(0,): 1})
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"over the limit of {MAX_WORDS}"):
            nc_mul(huge, huge)
        assert time.perf_counter() - start < 0.1


class TestToLex:
    """The test helper to_lex reads one degree of a series as from_lex's (den, numerators)."""

    @pytest.mark.parametrize("alphabet, degree", [(A2, 1), (A2, 4), (A3, 3)])
    def test_inverts_from_lex(self, alphabet, degree):
        rng = random.Random(degree)
        size = alphabet.size**degree
        for den in (1, 6, 35):
            nums = [rng.choice((0, 0, 1, -3, rng.randint(-50, 50))) for _ in range(size)]
            s = NCSeries.from_lex(alphabet, degree, den, nums)
            lcm_den, lanes = to_lex(s, degree)
            # the same values, over the lcm of their reduced denominators: a divisor of den
            assert den % lcm_den == 0
            assert [Fraction(c, lcm_den) for c in lanes] == [Fraction(c, den) for c in nums]
            assert NCSeries.from_lex(alphabet, degree, lcm_den, lanes) == s

    def test_zero_lanes(self):
        assert to_lex(NCSeries.zero(A2, 3), 3) == (1, [0] * 8)
        assert to_lex(NCSeries.from_lex(A3, 2, 5, [0] * 9), 2) == (1, [0] * 9)

    def test_reads_one_degree_of_a_mixed_series(self):
        # words of other lengths, the constant among them, are left out
        s = NCSeries(A2, 3, {(): 4, (0,): Fraction(1, 3), (0, 1): Fraction(1, 2),
                             (1, 0): Fraction(-1, 6), (1, 1, 0): 7})
        assert to_lex(s, 2) == (6, [0, 3, -1, 0])
        assert to_lex(s, 1) == (3, [1, 0])
        assert to_lex(s, 0) == (1, [4])
        assert NCSeries.from_lex(A2, 2, *to_lex(s, 2)) == degree_slice(s, 2)

    def test_oracle_log_reads_back_through_it(self):
        log = oracle_log_reference(6, 3, [SeriesSpec.exponential(6)] * 3)
        for n in range(1, 7):
            assert NCSeries.from_lex(A3, n, *to_lex(log, n)) == bch_term_multi(n, 3)
