"""The brute-force free-algebra oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bchkit.freealgebra import (
    nc_exp,
    nc_log,
    nc_mul,
    oracle_bch,
    oracle_log,
    series_at_letter,
)
from bchkit.series import bch_term, bch_term_multi
from bchkit.trimatrix import SeriesSpec
from bchkit.words import Alphabet, NCSeries
from helpers import nc_exp_reference, nc_log_reference, nc_mul_reference

A2 = Alphabet.default(2)
A3 = Alphabet.default(3)


def x(cap):
    return NCSeries(A2, cap, {(0,): 1})


def y(cap):
    return NCSeries(A2, cap, {(1,): 1})


def one(cap):
    return NCSeries(A2, cap, {(): 1})


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
    def series(draw, cap=3, constant=None):
        """(a, b): two random rational series over one alphabet of 2 or 3 letters."""
        alphabet = draw(st.sampled_from([A2, A3]))
        words = [w for k in range(cap + 1) for w in itertools.product(range(alphabet.size), repeat=k)]
        coeff = st.builds(
            Fraction, st.integers(-6, 6), st.sampled_from(TestIntegerArithmetic.DENOMINATORS)
        )

        def one():
            terms = draw(st.dictionaries(st.sampled_from(words), coeff, max_size=8))
            if constant is not None:
                terms[()] = constant
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

    @given(series(constant=0))
    def test_exp_matches_reference(self, pair):
        for a in pair:
            self.assert_same(nc_exp(a), nc_exp_reference(a))

    @given(series(constant=1))
    def test_log_matches_reference(self, pair):
        for a in pair:
            self.assert_same(nc_log(a), nc_log_reference(a))

    @pytest.mark.parametrize("alphabet", [A2, A3])
    def test_cancelled_word_is_absent(self, alphabet):
        # (1/2 + x/3)(2 - 4x/3): the x terms cancel, 1/3 * 2 - 1/2 * 4/3 = 0
        a = NCSeries(alphabet, 3, {(): Fraction(1, 2), (0,): Fraction(1, 3)})
        b = NCSeries(alphabet, 3, {(): 2, (0,): Fraction(-4, 3)})
        got = nc_mul(a, b)
        assert got.terms == {(): 1, (0, 0): Fraction(-4, 9)}
        self.assert_same(got, nc_mul_reference(a, b))
        # log(exp(t)) = t: the power sum cancels every word longer than one letter
        t = NCSeries(alphabet, 3, {(0,): Fraction(1, 2), (1,): Fraction(-3, 7)})
        self.assert_same(nc_log(nc_exp(t)), t)
        self.assert_same(nc_log(nc_exp(t)), nc_log_reference(nc_exp_reference(t)))

    @pytest.mark.parametrize("alphabet", [A2, A3])
    def test_zero_series(self, alphabet):
        zero = NCSeries(alphabet, 3)
        a = NCSeries(alphabet, 3, {(1,): Fraction(2, 3), (0, 1): 5})
        assert nc_mul(zero, a).terms == {}
        assert nc_mul(a, zero).terms == {}
        assert nc_mul(zero, zero).terms == {}
        assert nc_exp(zero).terms == {(): 1}
        assert nc_log(NCSeries(alphabet, 3, {(): 1})).terms == {}


class TestExpLog:
    def test_exp_of_single_letter(self):
        got = nc_exp(x(3))
        assert got.terms == {
            (): 1,
            (0,): 1,
            (0, 0): Fraction(1, 2),
            (0, 0, 0): Fraction(1, 6),
        }

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            nc_exp(one(2))

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            nc_log(x(2))

    def test_log_exp_round_trip(self):
        s = x(4) + y(4)
        assert nc_log(nc_exp(s)) == s

    def test_exp_log_round_trip(self):
        s = one(4) + x(4)
        assert nc_exp(nc_log(s)) == s

    def test_degree_two_slice_of_log_product(self):
        z = nc_log(nc_mul(nc_exp(x(2)), nc_exp(y(2))))
        assert z.homogeneous_slice(2) == NCSeries(
            A2, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
        )


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
        # oracle_bch builds f(letter) from coefficients; rebuilding the same
        # thing from nc_exp alone guards the shared coefficient table
        exp = SeriesSpec.exponential(n)
        via_coeffs = oracle_bch(n, 2, [exp, exp])
        product = nc_mul(nc_exp(x(n)), nc_exp(y(n)))
        via_exp = nc_log(product).homogeneous_slice(n)
        assert via_coeffs == via_exp

    def test_series_at_letter(self):
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


class TestOracleLog:
    """The log truncated at N holds every lower order: oracle_bch is its slice."""

    @pytest.mark.parametrize(
        "m,top,specs",
        [
            (2, 10, [SeriesSpec.exponential(10)] * 2),
            (3, 6, [SeriesSpec.exponential(6)] * 3),
            (2, 7, seeded_specs(2, 7)),
            (3, 5, seeded_specs(3, 5)),
        ],
        ids=["exp-m2", "exp-m3", "random-m2", "random-m3"],
    )
    def test_every_order_is_a_slice_of_the_top_run(self, m, top, specs):
        log = oracle_log(top, m, specs)
        assert log.max_degree == top
        assert {len(w) for w in log.terms} <= set(range(1, top + 1))
        for n in range(1, top + 1):
            assert log.homogeneous_slice(n) == oracle_bch(n, m, specs), f"n={n}"

    def test_argument_validation(self):
        exp = SeriesSpec.exponential(2)
        with pytest.raises(ValueError, match="order"):
            oracle_log(0, 2, [exp, exp])
        with pytest.raises(ValueError, match="factor count"):
            oracle_log(2, 1, [exp])
        with pytest.raises(ValueError, match="expected 3 series"):
            oracle_log(2, 3, [exp, exp])
        with pytest.raises(ValueError, match="letters"):
            oracle_log(2, 2, [exp, exp], A3)
