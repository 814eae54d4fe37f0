"""The T operator and the top-level term computations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bchkit import series as series_module
from bchkit.freealgebra import oracle_bch
from bchkit.multilinear import MultilinearPoly, mono_from_positions
from bchkit.series import (
    bch_term,
    bch_term_multi,
    clear_term_cache,
    lex_lanes,
    logf_term,
    t_operator,
    term_lanes,
)
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from bchkit.words import MAX_WORDS, Alphabet, NCSeries, unpack_lanes
from helpers import prime_series

A2 = Alphabet.default(2)
A3 = Alphabet.default(3)


def series(alphabet, n, entries):
    return NCSeries(
        alphabet, n, {alphabet.parse_word(w): Fraction(c) for w, c in entries.items()}
    )


class TestTOperator:
    def test_two_letter_example(self):
        p = MultilinearPoly(6, {mono_from_positions(6, [2, 4, 5]): 1})
        assert t_operator(p, A2) == series(A2, 6, {"xyxyyx": 1})

    def test_three_letter_example(self):
        mono = mono_from_positions(4, [2], family=1) | mono_from_positions(4, [3], family=2)
        p = MultilinearPoly(4, {mono: 1})
        assert t_operator(p, A3) == series(A3, 4, {"xywx": 1})

    def test_empty_monomial_gives_base_word(self):
        p = MultilinearPoly.constant(3, Fraction(1, 7))
        assert t_operator(p, A2) == series(A2, 3, {"xxx": Fraction(1, 7)})

    def test_family_outside_alphabet_rejected(self):
        p = MultilinearPoly.variable(2, 1, family=2)
        with pytest.raises(ValueError):
            t_operator(p, A2)

    def test_coefficients_carry_over(self):
        p = MultilinearPoly.variable(2, 1, coeff=Fraction(-3, 5)) + MultilinearPoly.constant(2, 2)
        assert t_operator(p, A2) == series(A2, 2, {"yx": Fraction(-3, 5), "xx": 2})


Z_EXPECTED = {
    1: {"x": 1, "y": 1},
    2: {"xy": Fraction(1, 2), "yx": Fraction(-1, 2)},
    3: {
        "yxx": Fraction(1, 12),
        "xyx": Fraction(-1, 6),
        "xxy": Fraction(1, 12),
        "yyx": Fraction(1, 12),
        "yxy": Fraction(-1, 6),
        "xyy": Fraction(1, 12),
    },
    4: {
        "yyxx": Fraction(-1, 24),
        "yxyx": Fraction(1, 12),
        "xyxy": Fraction(-1, 12),
        "xxyy": Fraction(1, 24),
    },
}


class TestBchTerm:
    @pytest.mark.parametrize("n", sorted(Z_EXPECTED))
    def test_published_low_orders(self, n):
        assert bch_term(n) == series(A2, n, Z_EXPECTED[n])

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            bch_term(0)
        with pytest.raises(ValueError):
            bch_term(-3)

    @staticmethod
    def kernel_runs(monkeypatch):
        # the (order, series) of every lex_lanes run the memo makes, from an empty memo
        runs = []
        kernel = series_module.lex_lanes
        monkeypatch.setattr(series_module, "lex_lanes", lambda n, f_list: runs.append((n, f_list)) or kernel(n, f_list))
        clear_term_cache()
        return runs

    def test_repeat_calls_memoized(self, monkeypatch):
        runs = self.kernel_runs(monkeypatch)
        assert bch_term(5) == bch_term(5) == bch_term_multi(5, 2)
        den, nums = term_lanes(5, 2)
        assert type(nums) is tuple  # nobody can edit the memo in place
        assert len(runs) == 1

    def test_memo_shared_by_equal_series(self, monkeypatch):
        runs = self.kernel_runs(monkeypatch)
        f11 = SeriesSpec.from_coeffs([1, 1])
        f1100 = SeriesSpec.from_coeffs([1, 1, 0, 0])
        z = logf_term(3, [f1100, f1100])
        assert z == logf_term(3, [f11, f11])
        # the letters are not part of the key: they only name the decoded words
        ab = logf_term(3, [f11, f11], Alphabet.from_names("ab"))
        assert str(ab) == str(z).replace("x", "a").replace("y", "b")
        assert len(runs) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bch_term(5),
            lambda: logf_term(3, [ONE_PLUS_T, SeriesSpec.exponential(3)]),
            lambda: NCSeries.from_lex(A2, 4, *term_lanes(4, 2)),
        ],
        ids=["bch_term", "logf_term", "term_lanes"],
    )
    def test_editing_a_result_leaves_the_memo_alone(self, call):
        first = call()
        expected = dict(first.terms)
        first.terms.clear()
        assert call().terms == expected

    def test_custom_letters(self):
        ab = Alphabet(("a", "b"))
        z2 = bch_term(2, ab)
        assert z2 == series(ab, 2, {"ab": Fraction(1, 2), "ba": Fraction(-1, 2)})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_homogeneous(self, n):
        assert all(len(w) == n for w in bch_term(n).terms)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_swap_symmetry(self, n):
        z = bch_term(n)
        swapped = NCSeries(
            A2, n, {tuple(1 - i for i in w): c for w, c in z.terms.items()}
        )
        assert swapped == z.scaled((-1) ** (n - 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reversal_symmetry(self, n):
        z = bch_term(n)
        sign = (-1) ** (n - 1)
        for w, c in z.terms.items():
            assert z.coefficient(w[::-1]) == sign * c


class TestBchTermMulti:
    def test_first_order_is_the_sum(self):
        assert bch_term_multi(1, 3) == series(A3, 1, {"x": 1, "y": 1, "w": 1})

    def test_three_factor_n2(self):
        expected = series(
            A3,
            2,
            {
                "wx": Fraction(-1, 2),
                "wy": Fraction(-1, 2),
                "xw": Fraction(1, 2),
                "xy": Fraction(1, 2),
                "yw": Fraction(1, 2),
                "yx": Fraction(-1, 2),
            },
        )
        assert bch_term_multi(2, 3) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_two_factors_degenerate_to_bch(self, n):
        assert bch_term_multi(n, 2) == bch_term(n)

    def test_factor_count_validation(self):
        # check_order's one wording, from each entry that takes a factor count
        for call in (lambda: bch_term_multi(3, 1), lambda: lex_lanes(3, [SeriesSpec.exponential(3)])):
            with pytest.raises(ValueError, match="^factor count must be >= 2, got 1$"):
                call()
        with pytest.raises(ValueError):
            bch_term_multi(0, 3)

    def test_four_factors_first_order(self):
        a4 = Alphabet.default(4)
        z1 = bch_term_multi(1, 4)
        assert z1 == series(a4, 1, {"x": 1, "y": 1, "w": 1, "a": 1})


ONE_PLUS_T = SeriesSpec.from_coeffs([1, 1])
CONST_ONE = SeriesSpec.from_coeffs([1])


class TestLogfTerm:
    def test_exp_reduces_to_bch(self):
        for n in range(1, 7):
            exp = SeriesSpec.exponential(n)
            assert logf_term(n, [exp, exp]) == bch_term(n)

    def test_one_plus_t_first_order(self):
        assert logf_term(1, [ONE_PLUS_T, ONE_PLUS_T]) == series(A2, 1, {"x": 1, "y": 1})

    def test_one_plus_t_second_order(self):
        expected = series(
            A2,
            2,
            {
                "xx": Fraction(-1, 2),
                "xy": Fraction(1, 2),
                "yx": Fraction(-1, 2),
                "yy": Fraction(-1, 2),
            },
        )
        assert logf_term(2, [ONE_PLUS_T, ONE_PLUS_T]) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_factor_drops_its_letter(self, n):
        exp = SeriesSpec.exponential(n)
        z = logf_term(n, [exp, CONST_ONE])
        assert all(1 not in w for w in z.terms)
        # log(e^x * 1) is x itself: nothing survives past first order
        if n == 1:
            assert z == series(A2, 1, {"x": 1})
        else:
            assert not z

    def test_heterogeneous_factors(self):
        z = logf_term(2, [ONE_PLUS_T, CONST_ONE])
        assert z == series(A2, 2, {"xx": Fraction(-1, 2)})

    def test_factor_count_validation(self):
        with pytest.raises(ValueError):
            logf_term(2, [ONE_PLUS_T])

    def test_alphabet_must_match_the_series(self):
        with pytest.raises(ValueError, match="2 factors need 2 letters, alphabet has 3"):
            logf_term(2, [ONE_PLUS_T, ONE_PLUS_T], A3)

    def test_series_must_lead_with_one(self):
        with pytest.raises(ValueError):
            SeriesSpec.from_coeffs([0, 1])


# largest order cross-checked per factor count; the oracle's cost grows as m**n
ORACLE_MAX_ORDER = {2: 6, 3: 5, 4: 4}

coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def factor_series(draw):
    m = draw(st.sampled_from(sorted(ORACLE_MAX_ORDER)))
    n = draw(st.integers(1, ORACLE_MAX_ORDER[m]))
    specs = [
        SeriesSpec.from_coeffs([1] + draw(st.lists(coefficient, max_size=n)))
        for _ in range(m)
    ]
    return n, specs


@settings(max_examples=40, deadline=None)
@given(factor_series())
def test_logf_term_matches_oracle_on_random_series(case):
    n, specs = case
    assert logf_term(n, specs) == oracle_bch(n, len(specs), specs)


class TestSizeLimit:
    @pytest.mark.parametrize(
        "call", [lambda: bch_term(23), lambda: bch_term_multi(12, 4)], ids=["23", "12x4"]
    )
    def test_oversized_term_refused_before_work(self, monkeypatch, call):
        def refuse(*args, **kwargs):
            raise AssertionError("work started on an order over the size limit")

        monkeypatch.setattr(series_module, "_scaled_steps", refuse)
        with pytest.raises(ValueError, match=f"limit of {MAX_WORDS}"):
            call()


class TestBitsBudget:
    """lex_lanes refuses m**n lanes of W bits over MAX_BITS once W is known,
    before the recurrence; exp's widest entries at m = 2, 3 and 4 fit."""

    class Admitted(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_recurrence(self, monkeypatch):
        def admitted(*args, **kwargs):
            raise self.Admitted

        monkeypatch.setattr(series_module, "packed_log_entry", admitted)

    @pytest.mark.parametrize("n,width", [(21, 728), (22, 768)])
    def test_wide_series_refused(self, n, width):
        spec = SeriesSpec.from_coeffs(prime_series(n))
        with pytest.raises(ValueError) as refused:
            lex_lanes(n, [spec, spec])
        assert str(refused.value) == (f"order {n} over 2 factors needs 2^{n} lanes of W = {width} bits, "
                                      f"over the budget of {series_module.MAX_BITS} bits")

    @pytest.mark.parametrize(
        "n,specs",
        [
            (20, [SeriesSpec.from_coeffs(prime_series(20))] * 2),
            (22, [SeriesSpec.exponential(22)] * 2),
            (11, [SeriesSpec.exponential(11)] * 4),
            (13, [SeriesSpec.exponential(13)] * 3),
        ],
        ids=["wide-20", "exp-22", "exp-11x4", "exp-13x3"],
    )
    def test_admitted_up_to_the_budget(self, n, specs):
        with pytest.raises(self.Admitted):
            lex_lanes(n, specs)


def random_spec(rng, n):
    # about half the coefficients zero, the rest of either sign
    return SeriesSpec.from_coeffs(
        [1] + [rng.choice((0, Fraction(rng.randint(-9, 9), rng.randint(1, 12)))) for _ in range(n)]
    )


# largest order cross-checked against the matrix route per factor count; the
# plain Fraction log there grows like m**n per row entry
MATRIX_MAX_ORDER = {2: 9, 3: 6, 4: 5}


@pytest.mark.parametrize(
    "m,n", [(m, n) for m, top in MATRIX_MAX_ORDER.items() for n in range(1, top + 1)]
)
def test_logf_term_matches_matrix_route(m, n):
    specs = [random_spec(random.Random(100 * m + n + f), n) for f in range(m)]
    product = build_factor_matrix(n, 0, specs[0])
    for family, f in enumerate(specs[1:], start=1):
        product = mat_mul(product, build_factor_matrix(n, family, f))
    assert logf_term(n, specs) == t_operator(log_upper_right(product), Alphabet.default(m))


def largest_lane_bits(n, specs):
    """Bit length of the largest packed lane, max |c| L S_n over the words."""
    den, _ = series_module._scaled_steps(n, specs)
    return max(abs(c * den).numerator for c in logf_term(n, specs).terms.values()).bit_length()


def exp_factors(n, m):
    return [SeriesSpec.exponential(n)] * m


LANE_CASES = [
    *[(n, exp_factors(n, 2)) for n in (5, 8, 11, 14)],
    (8, exp_factors(8, 3)),
    (6, exp_factors(6, 4)),
    (9, [random_spec(random.Random(9 + f), 9) for f in range(2)]),
    (6, [random_spec(random.Random(6 + f), 6) for f in range(3)]),
]


def term_at_width(monkeypatch, n, specs, width):
    """The term's ``lex_lanes`` computed with ``width`` bits per lane; None if
    unpacking overflowed."""
    monkeypatch.setattr(series_module, "lane_width", lambda n, steps: width)
    try:
        return series_module.lex_lanes(n, specs)
    except OverflowError:
        return None


# exp's lane widths at n = 1, 2, ..., one list per factor count, as summing
# the log's powers one at a time gave them; Horner's order must not move one
EXP_LANE_WIDTHS = {
    2: [8, 8, 16, 16, 24, 24, 32, 40, 48, 48, 56, 64, 72, 80, 80, 88, 96, 104, 112, 120, 128, 128],
    3: [8, 8, 16, 16, 24, 32, 40, 40, 48, 56, 64, 72, 80],
    4: [8, 8, 16, 24, 32, 32, 40, 48, 56, 64, 72],
}


class TestLaneWidth:
    @pytest.mark.parametrize("m", sorted(EXP_LANE_WIDTHS))
    def test_exp_widths_are_pinned(self, m):
        widths = [series_module.lane_width(n, series_module._scaled_steps(n, exp_factors(n, m))[1])
                  for n in range(1, len(EXP_LANE_WIDTHS[m]) + 1)]
        assert widths == EXP_LANE_WIDTHS[m]

    @pytest.mark.parametrize("n,specs", LANE_CASES)
    def test_width_leaves_a_sign_bit_over_the_largest_lane(self, n, specs):
        _, steps = series_module._scaled_steps(n, specs)
        assert series_module.lane_width(n, steps) > largest_lane_bits(n, specs)

    @pytest.mark.parametrize("n,specs", LANE_CASES)
    def test_lanes_one_byte_short_corrupt_the_term(self, monkeypatch, n, specs):
        # the narrowest whole-byte width holding the largest lane and a sign
        # bit reproduces the term; eight bits less must not pass unnoticed
        reference = series_module.lex_lanes(n, specs)
        tight = (largest_lane_bits(n, specs) + 8) // 8 * 8
        assert term_at_width(monkeypatch, n, specs, tight) == reference
        assert term_at_width(monkeypatch, n, specs, tight - 8) != reference

    @pytest.mark.parametrize("n,specs", LANE_CASES[-2:])
    def test_kernel_width_cut_by_a_byte_is_caught(self, monkeypatch, n, specs):
        # on dense random series the bound lies within a byte of the largest
        # lane (on exp it is 20 and more bits above), so the kernel's own
        # width less 8 bits must change the term or raise
        reference = series_module.lex_lanes(n, specs)
        _, steps = series_module._scaled_steps(n, specs)
        width = series_module.lane_width(n, steps)
        assert term_at_width(monkeypatch, n, specs, width - 8) != reference


def pack(lanes, width):
    """Lane k of the result holds lanes[k], signed, ``width`` bits each."""
    packed = 0
    for x in reversed(lanes):
        packed = (packed << width) + x
    return packed


class TestUnpackLanes:
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("width", range(8, 201, 8))
    def test_lanes_come_back_in_order(self, width, m):
        rng = random.Random(width * 10 + m)
        half = 1 << (width - 1)
        lanes = [rng.randrange(-half, half) for _ in range(m**3)]
        lanes[0], lanes[1], lanes[-1] = -half, half - 1, rng.choice((-half, half - 1))
        assert unpack_lanes(pack(lanes, width), width, m**3) == lanes

    @pytest.mark.parametrize("width", range(8, 201, 8))
    def test_top_lane_past_its_width_overflows(self, width):
        lanes = [0] * 7 + [1 << (width - 1)]
        with pytest.raises(OverflowError):
            unpack_lanes(pack(lanes, width), width, 8)
