"""Acceptance gate: every criterion, exact values, stated time budgets.

Each test records one [PASS]/[FAIL] line, echoed after the run summary.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction

import conftest
from bchkit.dynkin import dynkin_substitute, expand_commutators
from bchkit.freealgebra import oracle_bch
from bchkit.multilinear import MultilinearPoly, mono_from_positions
from bchkit.series import bch_term, bch_term_multi, clear_term_cache, logf_term
from bchkit.signedeval import build_table, reconstruct_term, scan_nonvanishing
from bchkit.trimatrix import SeriesSpec, word_matrix_product
from bchkit.words import Alphabet, NCSeries
from helpers import all_words

A2 = Alphabet.default(2)
A3 = Alphabet.default(3)


def series(alphabet, n, entries):
    return NCSeries(
        alphabet, n, {alphabet.parse_word(w): Fraction(c) for w, c in entries.items()}
    )


def _record(line):
    print(line)
    conftest.acceptance_lines.append(line)


@contextmanager
def criterion(number, description, seconds=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = seconds is None or elapsed <= seconds
    budget = f", limit {seconds}s" if seconds is not None else ""
    _record(f"[{'PASS' if within else 'FAIL'}] criterion {number}: "
            f"{description} ({elapsed:.2f}s{budget})")
    assert within, f"criterion {number} exceeded {seconds}s: {elapsed:.2f}s"


def test_c01_published_low_order_terms():
    clear_term_cache()
    with criterion(1, "z1..z4 match the published values", seconds=1.0):
        assert bch_term(1) == series(A2, 1, {"x": 1, "y": 1})
        assert bch_term(2) == series(
            A2, 2, {"xy": Fraction(1, 2), "yx": Fraction(-1, 2)}
        )
        assert bch_term(3) == series(
            A2,
            3,
            {
                "yxx": Fraction(1, 12),
                "xyx": Fraction(-1, 6),
                "xxy": Fraction(1, 12),
                "yyx": Fraction(1, 12),
                "yxy": Fraction(-1, 6),
                "xyy": Fraction(1, 12),
            },
        )
        assert bch_term(4) == series(
            A2,
            4,
            {
                "yyxx": Fraction(-1, 24),
                "yxyx": Fraction(1, 12),
                "xyxy": Fraction(-1, 12),
                "xxyy": Fraction(1, 24),
            },
        )


def test_c02_order_seven_spot_coefficient():
    clear_term_cache()
    with criterion(2, "bch_term(7) has -1/1512 on yxxxyyy", seconds=5.0):
        z7 = bch_term(7)
        assert z7.coefficient(A2.parse_word("yxxxyyy")) == Fraction(-1, 1512)


def test_c03_three_factor_second_order():
    clear_term_cache()
    with criterion(3, "bch_term_multi(2,3) matches the six-term output", seconds=1.0):
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


def test_c04_oracle_equivalence():
    with criterion(4, "oracle agrees: n<=8 at m=2 and n<=5 at m=3", seconds=120.0):
        for n in range(1, 9):
            exp = SeriesSpec.exponential(n)
            assert oracle_bch(n, 2, [exp, exp]) == bch_term(n), f"m=2 n={n}"
        for n in range(1, 6):
            exp = SeriesSpec.exponential(n)
            assert oracle_bch(n, 3, [exp] * 3) == bch_term_multi(n, 3), f"m=3 n={n}"


def test_c05_signed_evaluation_equivalence():
    with criterion(
        5, "signed reconstruction n<=10; pruned tables = unpruned n<=8", seconds=120.0
    ):
        for n in range(1, 11):
            table = build_table(n, "symmetry")
            assert reconstruct_term(n, table) == bch_term(n), f"n={n}"
        for n in range(1, 9):
            assert build_table(n, "none").values == build_table(n, "symmetry").values, f"n={n}"


def test_c06_symmetry_suite():
    import itertools

    with criterion(6, "swap, reversal, homogeneity, vanishing rules n<=8"):
        from bchkit.signedeval import eval_assignment

        for n in range(1, 9):
            z = bch_term(n)
            sign = (-1) ** (n - 1)
            # word-level swap and reversal
            swapped = NCSeries(
                A2, n, {tuple(1 - i for i in w): c for w, c in z.terms.items()}
            )
            assert swapped == z.scaled(sign), f"swap n={n}"
            for w, c in z.terms.items():
                assert len(w) == n, f"homogeneity n={n}"
                assert z.coefficient(w[::-1]) == sign * c, f"reversal n={n}"
            # value-level rules, exhaustively over assignments
            for signs in itertools.product((1, -1), repeat=n):
                value = eval_assignment(n, signs)
                if signs.count(1) % 2 == 0:
                    assert value == 0, f"even-plus vanishing n={n} {signs}"
                assert value == sign * eval_assignment(n, signs[::-1]), \
                    f"value reversal n={n} {signs}"
            if n > 1 and n % 2 == 1:
                assert eval_assignment(n, (1,) * n) == 0, f"all-plus n={n}"


def test_c07_dynkin_round_trip():
    with criterion(7, "expand(dynkin(z_n)) = z_n for n<=8"):
        for n in range(1, 9):
            z = bch_term(n)
            assert expand_commutators(dynkin_substitute(z), A2) == z, f"n={n}"


def test_c08_word_matrix_identity():
    with criterion(8, "word products give the N-position monomial, n<=6"):
        for n in range(1, 7):
            for word in all_words(n, 2):
                positions = [i + 1 for i, pick in enumerate(word) if pick == 1]
                expected = MultilinearPoly(n, {mono_from_positions(n, positions): 1})
                assert word_matrix_product(n, word) == expected, f"n={n} {word}"


def test_c09_nonvanishing_scan_depth_twelve():
    with criterion(9, "scan(12) finds no unexpected vanishings", seconds=600.0):
        reports = scan_nonvanishing(12)
        assert all(not r.unexpected for r in reports)


def test_c09_nonvanishing_scan_depth_fifteen():
    with criterion(9, "scan(15) reproduces the full nonvanishing claim"):
        reports = scan_nonvanishing(15, workers=os.cpu_count())
        assert all(not r.unexpected for r in reports)


def test_c10_f_series_sanity():
    with criterion(10, "logf(2,[1+t,1+t]) = oracle slice; logf(exp) = bch n<=6"):
        onet = SeriesSpec.from_coeffs([1, 1])
        assert logf_term(2, [onet, onet]) == oracle_bch(2, 2, [onet, onet])
        for n in range(1, 7):
            exp = SeriesSpec.exponential(n)
            assert logf_term(n, [exp, exp]) == bch_term(n), f"n={n}"
