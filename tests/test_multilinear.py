"""Rational and multilinear-polynomial arithmetic, and the value-type
behaviour MultilinearPoly shares with NCSeries."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bchkit.multilinear import (
    MultilinearPoly,
    SupportOverlapError,
    mono_digits,
    mono_from_positions,
    mono_mul,
    mono_str,
    mono_support,
)
from bchkit.words import Alphabet, NCSeries
from helpers import normalized_pair

A2 = Alphabet.default(2)


class TestRationals:
    def test_small_denominator_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_zero_absorbs_and_normalizes(self):
        z = Fraction(1, 6) * 0
        assert z == 0
        assert z.denominator == 1

    def test_subtraction(self):
        assert Fraction(-1, 12) - Fraction(1, 12) == Fraction(-1, 6)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6).filter(lambda d: d != 0),
    )
    def test_lowest_terms_against_independent_normalization(self, num, den):
        f = Fraction(num, den)
        assert (f.numerator, f.denominator) == normalized_pair(num, den)
        assert f.denominator > 0

    @given(
        st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
        st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
    )
    def test_results_stay_reduced(self, a, b):
        for value in (a + b, a - b, a * b):
            assert (value.numerator, value.denominator) == normalized_pair(
                value.numerator, value.denominator
            )


class TestMonomials:
    def test_pack_and_decode(self):
        m = mono_from_positions(4, [1, 3])
        assert mono_digits(4, m) == (1, 0, 1, 0)
        assert mono_support(4, m) == 0b101

    def test_second_family_block(self):
        tau3 = mono_from_positions(4, [3], family=2)
        assert mono_digits(4, tau3) == (0, 0, 2, 0)
        assert mono_support(4, tau3) == 0b100

    def test_disjoint_union(self):
        a = mono_from_positions(4, [1, 2])
        b = mono_from_positions(4, [4])
        assert mono_digits(4, mono_mul(4, a, b)) == (1, 1, 0, 1)

    def test_identity_monomial(self):
        s2 = mono_from_positions(4, [2])
        assert mono_mul(4, s2, 0) == s2

    def test_mixed_family_product(self):
        s2 = mono_from_positions(4, [2], family=1)
        t3 = mono_from_positions(4, [3], family=2)
        assert mono_digits(4, mono_mul(4, s2, t3)) == (0, 1, 2, 0)

    def test_same_family_overlap_rejected(self):
        a = mono_from_positions(3, [1, 2])
        b = mono_from_positions(3, [2])
        with pytest.raises(SupportOverlapError):
            mono_mul(3, a, b)

    def test_cross_family_overlap_rejected(self):
        # one position never carries two variables, whatever their families
        s2 = mono_from_positions(3, [2], family=1)
        t2 = mono_from_positions(3, [2], family=2)
        with pytest.raises(SupportOverlapError):
            mono_mul(3, s2, t2)

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            mono_from_positions(3, [4])
        with pytest.raises(ValueError):
            mono_from_positions(3, [0])

    def test_str(self):
        assert mono_str(3, 0) == "1"
        assert mono_str(3, mono_from_positions(3, [1, 3])) == "s1*s3"
        assert mono_str(3, mono_from_positions(3, [2], family=2)) == "t2"


class TestPolyArithmetic:
    def test_multiply_by_constant_one(self):
        p = MultilinearPoly.constant(2, Fraction(1, 2)) + MultilinearPoly.variable(2, 2)
        assert p * MultilinearPoly.constant(2, 1) == p

    def test_binomial_product(self):
        # (1 + s1)(1 + s2) expands with no collisions
        one = MultilinearPoly.constant(2, 1)
        p = one + MultilinearPoly.variable(2, 1)
        q = one + MultilinearPoly.variable(2, 2)
        product = p * q
        expected = MultilinearPoly(
            2,
            {
                0: 1,
                mono_from_positions(2, [1]): 1,
                mono_from_positions(2, [2]): 1,
                mono_from_positions(2, [1, 2]): 1,
            },
        )
        assert product == expected

    def test_cancellation_prunes_to_zero(self):
        half = Fraction(1, 2)
        p = MultilinearPoly.variable(2, 2, coeff=half) - MultilinearPoly.variable(2, 1, coeff=half)
        q = MultilinearPoly.variable(2, 1, coeff=half) - MultilinearPoly.variable(2, 2, coeff=half)
        total = p + q
        assert not total
        assert total.terms == {}

    def test_scale(self):
        p = MultilinearPoly.variable(3, 1) + MultilinearPoly.constant(3, 2)
        assert p.scaled(0) == MultilinearPoly.zero(3)
        assert Fraction(1, 2) * p == p.scaled(Fraction(1, 2))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly.zero(2) + MultilinearPoly.zero(3)

    def test_display_order_follows_positions(self):
        p = (
            MultilinearPoly.variable(3, 3)
            + MultilinearPoly.variable(3, 1)
            + MultilinearPoly.constant(3, 1)
        )
        rendered = str(p)
        assert rendered.index("1") < rendered.index("s3") < rendered.index("s1")


def _poly(terms):
    return MultilinearPoly(3, terms)


def _series(terms):
    return NCSeries(A2, 3, terms)


_S1, _S2, _S3 = (mono_from_positions(3, [i]) for i in (1, 2, 3))


class TestValueTypes:
    """Printing, shape and type behaviour common to both exact value types."""

    @pytest.mark.parametrize(
        "value, text, shown",
        [
            (
                _poly({0: Fraction(1, 2), _S1: 1, _S3: -1,
                       mono_from_positions(3, [2], 2): Fraction(-3, 4), _S1 | _S2: 2}),
                "1/2 - s3 - 3/4*t2 + s1 + 2*s1*s2",
                "MultilinearPoly(n=3, 1/2 - s3 - 3/4*t2 + s1 + 2*s1*s2)",
            ),
            (_poly({0: -1, _S2: Fraction(5, 3)}), "-1 + 5/3*s2", "MultilinearPoly(n=3, -1 + 5/3*s2)"),
            (_poly({_S1: -1}), "-s1", "MultilinearPoly(n=3, -s1)"),
            (_poly({0: Fraction(-2, 7)}), "-2/7", "MultilinearPoly(n=3, -2/7)"),
            (_poly({0: 1}), "1", "MultilinearPoly(n=3, 1)"),
            (_poly({}), "0", "MultilinearPoly(n=3, 0)"),
            (
                _series({(): Fraction(1, 2), (0,): 1, (1,): -1, (0, 1): Fraction(-3, 4), (1, 0, 0): 2}),
                "1/2 + x - y - 3/4*xy + 2*yxx",
                "NCSeries(degree<=3, 1/2 + x - y - 3/4*xy + 2*yxx)",
            ),
            (_series({(): -1, (1,): Fraction(5, 3)}), "-1 + 5/3*y", "NCSeries(degree<=3, -1 + 5/3*y)"),
            (_series({(0, 1): -1}), "-xy", "NCSeries(degree<=3, -xy)"),
            (_series({(): Fraction(-2, 7)}), "-2/7", "NCSeries(degree<=3, -2/7)"),
            (_series({(): 1}), "1", "NCSeries(degree<=3, 1)"),
            (_series({}), "0", "NCSeries(degree<=3, 0)"),
        ],
    )
    def test_str_and_repr(self, value, text, shown):
        assert str(value) == text
        assert repr(value) == shown

    @pytest.mark.parametrize(
        "a, b, shape",
        [
            (_poly({0: 1, _S1: 2}), _poly({_S1: -2, _S2: 1}), lambda v: (v.n,)),
            (_series({(): 1, (0,): 2}), _series({(0,): -2, (1,): 1}),
             lambda v: (v.alphabet, v.max_degree)),
        ],
    )
    def test_operations_keep_type_and_shape(self, a, b, shape):
        for result in (a + b, a - b, -a, a.scaled(0), a.scaled(Fraction(-1, 2))):
            assert type(result) is type(a)
            assert shape(result) == shape(a)
        assert (a + b) - b == a
        assert -a == a.scaled(-1)
        assert not a.scaled(0) and a.scaled(0).terms == {}

    def test_types_do_not_mix(self):
        poly, series = MultilinearPoly.zero(2), NCSeries.zero(A2, 2)
        with pytest.raises(TypeError):
            poly + series
        with pytest.raises(TypeError):
            series - poly
        assert poly != series

    def test_shape_is_part_of_equality(self):
        assert NCSeries(A2, 2, {(0,): 1}) != NCSeries(A2, 3, {(0,): 1})
        assert NCSeries(A2, 2, {(0,): 1}) != NCSeries(Alphabet.from_names("ab"), 2, {(0,): 1})
        assert MultilinearPoly(2, {0: 1}) != MultilinearPoly(3, {0: 1})

    @pytest.mark.parametrize("value", [MultilinearPoly.variable(2, 1), NCSeries(A2, 1, {(0,): 1})])
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = 1


class TestEvalSigns:
    def test_worked_n2_values(self):
        half = Fraction(1, 2)
        p = MultilinearPoly.variable(2, 2, coeff=half) - MultilinearPoly.variable(2, 1, coeff=half)
        assert p.eval_signs((-1, 1)) == 1
        assert p.eval_signs((1, -1)) == -1
        assert p.eval_signs((1, 1)) == 0

    def test_sign_vector_validation(self):
        p = MultilinearPoly.variable(2, 1)
        with pytest.raises(ValueError):
            p.eval_signs((1,))
        with pytest.raises(ValueError):
            p.eval_signs((1, 0))


def poly_on_positions(n, positions, seed_coeffs):
    """Small polynomial supported only on the given positions."""
    p = MultilinearPoly.constant(n, seed_coeffs[0])
    for pos, c in zip(positions, seed_coeffs[1:]):
        p = p + MultilinearPoly.variable(n, pos, coeff=c)
    return p


small_coeff = st.integers(-3, 3)


@given(
    st.lists(small_coeff, min_size=3, max_size=3),
    st.lists(small_coeff, min_size=3, max_size=3),
    st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
)
def test_eval_is_ring_homomorphism_on_disjoint_supports(ca, cb, signs):
    p = poly_on_positions(4, [1, 2], ca)
    q = poly_on_positions(4, [3, 4], cb)
    s = tuple(signs)
    assert (p * q).eval_signs(s) == p.eval_signs(s) * q.eval_signs(s)
    assert (p + q).eval_signs(s) == p.eval_signs(s) + q.eval_signs(s)


@given(
    st.lists(small_coeff, min_size=2, max_size=2),
    st.lists(small_coeff, min_size=2, max_size=2),
    st.lists(small_coeff, min_size=2, max_size=2),
)
def test_mul_commutative_associative_on_disjoint_supports(ca, cb, cc):
    p = poly_on_positions(3, [1], ca)
    q = poly_on_positions(3, [2], cb)
    r = poly_on_positions(3, [3], cc)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
