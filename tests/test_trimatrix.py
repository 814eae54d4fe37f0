"""Factor matrices, products, and the truncated logarithm."""

import random
from fractions import Fraction

import pytest

from bchkit.multilinear import MultilinearPoly, SupportOverlapError, mono_from_positions
from bchkit.trimatrix import (
    SeriesSpec,
    TriMatrix,
    build_factor_matrix,
    log_upper_right,
    mat_mul,
    word_matrix_product,
)
from helpers import (
    all_words,
    explicit_exp_of_superdiagonal,
    matrix_exp_full,
    matrix_log_full,
)


def const(n, v):
    return MultilinearPoly.constant(n, Fraction(v))


def var(n, pos, family=1, coeff=1):
    return MultilinearPoly.variable(n, pos, family, Fraction(coeff))


# unrelated to each other and to any factorial, so the column scales of the
# log kernel are nothing like j!
DENOMINATORS = (1, 3, 7, 10, 11, 13, 17, 19)


def random_unit_triangular(rng, n, families):
    """Unit diagonal; entry (i, j) holds up to three monomials on positions
    i+1..j, the supports a product of factor matrices has."""
    rows = [[const(n, 0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        rows[i][i] = const(n, 1)
        for j in range(i + 1, n + 1):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                mono = 0
                for pos in range(i + 1, j + 1):
                    family = rng.randint(0, families)
                    if family:
                        mono |= mono_from_positions(n, [pos], family)
                terms[mono] = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
            rows[i][j] = MultilinearPoly(n, terms)
    return TriMatrix(n, rows)


class TestSeriesSpec:
    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(ValueError):
            SeriesSpec.from_coeffs([2, 1])
        with pytest.raises(ValueError):
            SeriesSpec.from_coeffs([])

    def test_zero_padding_past_the_list(self):
        f = SeriesSpec.from_coeffs([1, 1])
        assert f.coeff(0) == 1
        assert f.coeff(1) == 1
        assert f.coeff(2) == 0
        assert f.coeff(17) == 0

    def test_exponential_coefficients(self):
        f = SeriesSpec.exponential(4)
        assert [f.coeff(k) for k in range(5)] == [
            1,
            1,
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(1, 24),
        ]

    def test_negative_degree_and_index_refused(self):
        with pytest.raises(ValueError, match="max_degree must be >= 0, got -1"):
            SeriesSpec.exponential(-1)
        with pytest.raises(ValueError, match="coefficient index must be >= 0, got -1"):
            SeriesSpec.from_coeffs([1, 1]).coeff(-1)

    def test_fingerprint_trims_trailing_zeros(self):
        assert SeriesSpec.from_coeffs([1, 1, 0, 0]).fingerprint() == "1,1"
        assert SeriesSpec.from_coeffs([1, 0, Fraction(1, 2)]).fingerprint() == "1,0,1/2"

    def test_trailing_zeros_normalized(self):
        padded = SeriesSpec.from_coeffs([1, 1, 0, 0])
        short = SeriesSpec.from_coeffs([1, 1])
        assert padded == short
        assert hash(padded) == hash(short)
        assert padded.fingerprint() == "1,1"


class TestBuildFactorMatrix:
    def test_base_exp_n2(self):
        f = build_factor_matrix(2, 0, SeriesSpec.exponential(2))
        assert f.rows[0] == [const(2, 1), const(2, 1), const(2, Fraction(1, 2))]
        assert f.rows[1] == [const(2, 0), const(2, 1), const(2, 1)]
        assert f.rows[2] == [const(2, 0), const(2, 0), const(2, 1)]

    def test_sigma_exp_n2(self):
        g = build_factor_matrix(2, 1, SeriesSpec.exponential(2))
        s1s2 = MultilinearPoly(2, {mono_from_positions(2, [1, 2]): Fraction(1, 2)})
        assert g.rows[0] == [const(2, 1), var(2, 1), s1s2]
        assert g.rows[1] == [const(2, 0), const(2, 1), var(2, 2)]

    def test_base_one_plus_t_is_identity_plus_superdiagonal(self):
        b = build_factor_matrix(2, 0, SeriesSpec.from_coeffs([1, 1]))
        assert b.rows[0] == [const(2, 1), const(2, 1), const(2, 0)]
        assert b.rows[1] == [const(2, 0), const(2, 1), const(2, 1)]

    @pytest.mark.parametrize("family", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_explicit_power_sum(self, n, family):
        built = build_factor_matrix(n, family, SeriesSpec.exponential(n))
        assert built == explicit_exp_of_superdiagonal(n, family)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nilpotency_of_factor_minus_identity(self, n):
        a = build_factor_matrix(n, 1, SeriesSpec.exponential(n))
        u_rows = [list(r) for r in a.rows]
        for i in range(n + 1):
            u_rows[i][i] = const(n, 0)
        u = TriMatrix(n, u_rows)
        power = u
        for _ in range(n):
            power = mat_mul(power, u)
        assert all(not e for row in power.rows for e in row)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            build_factor_matrix(0, 0, SeriesSpec.from_coeffs([1]))


class TestMatMul:
    def test_fg_top_row_n2(self):
        exp2 = SeriesSpec.exponential(2)
        fg = mat_mul(build_factor_matrix(2, 0, exp2), build_factor_matrix(2, 1, exp2))
        one_plus_s1 = const(2, 1) + var(2, 1)
        corner = (
            const(2, Fraction(1, 2))
            + var(2, 2)
            + MultilinearPoly(2, {mono_from_positions(2, [1, 2]): Fraction(1, 2)})
        )
        assert fg.rows[0] == [const(2, 1), one_plus_s1, corner]

    def test_identity_is_neutral(self):
        f = build_factor_matrix(3, 0, SeriesSpec.exponential(3))
        assert mat_mul(f, TriMatrix.identity(3)) == f

    def test_superdiagonal_product(self):
        m = TriMatrix.superdiagonal(2, 0)
        n_mat = TriMatrix.superdiagonal(2, 1)
        product = mat_mul(m, n_mat)
        assert product.rows[0][2] == var(2, 2)
        assert all(
            not product.rows[i][j]
            for i in range(3)
            for j in range(3)
            if (i, j) != (0, 2)
        )

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(TriMatrix.identity(2), TriMatrix.identity(3))


class TestLogUpperRight:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, {(): 1, (1,): 1}),
            (2, {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)}),
            (
                3,
                {
                    (1,): Fraction(1, 12),
                    (2,): Fraction(-1, 6),
                    (3,): Fraction(1, 12),
                    (1, 2): Fraction(1, 12),
                    (1, 3): Fraction(-1, 6),
                    (2, 3): Fraction(1, 12),
                },
            ),
        ],
    )
    def test_fg_examples(self, n, expected):
        exp = SeriesSpec.exponential(n)
        fg = mat_mul(build_factor_matrix(n, 0, exp), build_factor_matrix(n, 1, exp))
        want = MultilinearPoly(
            n, {mono_from_positions(n, list(ps)): c for ps, c in expected.items()}
        )
        assert log_upper_right(fg) == want

    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            log_upper_right(TriMatrix.superdiagonal(3, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_matrix_log_exp_round_trip(self, n):
        exp = SeriesSpec.exponential(n)
        fg = mat_mul(build_factor_matrix(n, 0, exp), build_factor_matrix(n, 1, exp))
        assert matrix_exp_full(matrix_log_full(fg)) == fg

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_first_row_iteration_agrees_with_full_log(self, n):
        exp = SeriesSpec.exponential(n)
        fg = mat_mul(build_factor_matrix(n, 0, exp), build_factor_matrix(n, 1, exp))
        assert log_upper_right(fg) == matrix_log_full(fg).rows[0][n]

    @pytest.mark.parametrize("seed", range(18))
    def test_random_rational_matrices_agree_with_full_log(self, seed):
        rng = random.Random(seed)
        p = random_unit_triangular(rng, n=1 + seed % 6, families=1 + seed % 3)
        assert log_upper_right(p) == matrix_log_full(p).rows[0][p.n]

    @pytest.mark.parametrize("family", [1, 2])
    def test_shared_position_raises(self, family):
        # v[1] = 1 + s1 and p[1][2] carries position 1 as well
        n = 2
        one, zero = const(n, 1), const(n, 0)
        p = TriMatrix(
            n,
            [
                [one, one + var(n, 1), zero],
                [zero, one, var(n, 1, family)],
                [zero, zero, one],
            ],
        )
        with pytest.raises(SupportOverlapError):
            log_upper_right(p)


class TestWordMatrixProduct:
    def test_derived_examples(self):
        assert word_matrix_product(3, "NMM") == MultilinearPoly.variable(3, 1)
        s2s3 = MultilinearPoly(3, {mono_from_positions(3, [2, 3]): 1})
        assert word_matrix_product(3, "MNN") == s2s3
        assert word_matrix_product(2, "MM") == MultilinearPoly.constant(2, 1)

    def test_accepts_index_sequences(self):
        assert word_matrix_product(3, (1, 0, 0)) == word_matrix_product(3, "NMM")

    def test_word_validation(self):
        with pytest.raises(ValueError):
            word_matrix_product(3, "MN")
        with pytest.raises(ValueError):
            word_matrix_product(2, "MX")
        with pytest.raises(ValueError):
            word_matrix_product(2, (0, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_exhaustive_small(self, n):
        for word in all_words(n, 2):
            positions = [i + 1 for i, pick in enumerate(word) if pick == 1]
            expected = MultilinearPoly(n, {mono_from_positions(n, positions): 1})
            assert word_matrix_product(n, word) == expected
