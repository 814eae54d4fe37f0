"""The +-1 lattice: evaluation, tables, reconstruction, scanning."""

import itertools
import random
from fractions import Fraction

import pytest

from bchkit import signedeval
from bchkit.series import bch_term
from bchkit.signedeval import (
    SignedCoefficientTable,
    _mask_signs,
    _reverse_mask,
    _values_for_masks,
    build_table,
    eval_assignment,
    reconstruct_term,
    scan_nonvanishing,
)
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul


def all_assignments(n):
    return itertools.product((1, -1), repeat=n)


class TestEvalAssignment:
    def test_worked_n2_values(self):
        assert eval_assignment(2, (-1, 1)) == 1
        assert eval_assignment(2, (1, -1)) == -1

    def test_all_plus_vanishes_for_odd_order(self):
        assert eval_assignment(3, (1, 1, 1)) == 0
        assert eval_assignment(5, (1, 1, 1, 1, 1)) == 0

    def test_first_order(self):
        assert eval_assignment(1, (1,)) == 2
        assert eval_assignment(1, (-1,)) == 0

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            eval_assignment(2, (1, 0))
        with pytest.raises(ValueError):
            eval_assignment(2, (1,))

    @pytest.mark.parametrize("n", [*range(1, 7), 11, 12])
    def test_agrees_with_symbolic_evaluation(self, n):
        # numeric route vs. substituting signs into a symbolic result: the
        # matrix route's polynomial up to n = 6; above it the shipped kernel's
        # bch_term(n) as sum_w c_w prod_{i: w_i = y} s_i, on all-plus,
        # all-minus and 62 seeded others
        assignments = list(all_assignments(n))
        if n <= 6:
            exp = SeriesSpec.exponential(n)
            fg = mat_mul(build_factor_matrix(n, 0, exp), build_factor_matrix(n, 1, exp))
            value = log_upper_right(fg).eval_signs
        else:
            inner = random.Random(n).sample(assignments[1:-1], 62)
            assignments = [assignments[0], assignments[-1], *inner]
            # each word as the mask of its y positions, each assignment as
            # the mask of its -1 positions: the product is the parity sign
            terms = [(sum(y << i for i, y in enumerate(w)), c) for w, c in bch_term(n).terms.items()]

            def value(signs):
                neg = sum(1 << i for i, s in enumerate(signs) if s < 0)
                return sum(-c if (y & neg).bit_count() & 1 else c for y, c in terms)

        for signs in assignments:
            assert eval_assignment(n, signs) == value(signs)


class TestSymmetries:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_even_plus_count_vanishes(self, n):
        for signs in all_assignments(n):
            if signs.count(1) % 2 == 0:
                assert eval_assignment(n, signs) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_product_of_signs_identity(self, n):
        # value * prod(s) = (-1)^(n-1) * value, so a sign product on the
        # wrong side of the parity forces the value to zero
        target = (-1) ** (n - 1)
        for signs in all_assignments(n):
            value = eval_assignment(n, signs)
            product = 1
            for s in signs:
                product *= s
            assert value * product == target * value

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reversal_identity(self, n):
        sign = (-1) ** (n - 1)
        for signs in all_assignments(n):
            assert eval_assignment(n, signs) == sign * eval_assignment(n, signs[::-1])


class TestBuildTable:
    def test_n2_census(self):
        table = build_table(2)
        assert len(table.values) == 4
        assert table.values[0b01] == 1
        assert table.values[0b10] == -1
        assert table.values[0b00] == 0
        assert table.values[0b11] == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pruned_equals_unpruned(self, n):
        assert build_table(n, "none").values == build_table(n, "symmetry").values

    def test_parallel_build_matches_serial(self):
        serial = build_table(6, "none")
        parallel = build_table(6, "none", workers=2)
        assert serial.values == parallel.values
        assert build_table(6, "symmetry", workers=2).values == serial.values

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_table(0)
        with pytest.raises(ValueError):
            build_table(3, "fastest")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symmetry_evaluates_one_mask_per_reversal_pair(self, monkeypatch, n):
        evaluated = []

        def counting(order, signs):
            evaluated.append(signs)
            return eval_assignment(order, signs)

        monkeypatch.setattr(signedeval, "eval_assignment", counting)
        odd_plus = [m for m in range(1 << n) if (n - m.bit_count()) % 2 == 1]
        pairs = {min(m, _reverse_mask(n, m)) for m in odd_plus}
        build_table(n, "symmetry")
        assert sorted(evaluated) == sorted(_mask_signs(n, m) for m in pairs)
        evaluated.clear()
        build_table(n, "none")
        assert sorted(evaluated) == sorted(_mask_signs(n, m) for m in range(1 << n))


class TestReconstruct:
    def test_first_order(self):
        z = reconstruct_term(1, build_table(1))
        assert str(z) == "x + y"

    def test_second_order(self):
        z = reconstruct_term(2, build_table(2))
        assert z == bch_term(2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_symbolic_pipeline(self, n):
        assert reconstruct_term(n, build_table(n, "symmetry")) == bch_term(n)

    def test_incomplete_table_rejected(self):
        table = build_table(3)
        del table.values[0]
        with pytest.raises(ValueError):
            reconstruct_term(3, table)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_term(4, build_table(3))

    def test_empty_table_type(self):
        assert not SignedCoefficientTable(3).is_complete()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_tables_match_the_definition(self, n):
        # tables without the BCH symmetries, so a bit-order slip cannot cancel out
        rng = random.Random(1000 + n)
        values = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(1 << n)
        ]
        z = reconstruct_term(n, SignedCoefficientTable(n, values))
        for y in range(1 << n):
            total = sum(v * (-1) ** (m & y).bit_count() for m, v in enumerate(values))
            word = tuple((y >> i) & 1 for i in range(n))
            assert z.coefficient(word) == Fraction(total, 1 << n)


class TestScan:
    def test_census_small_orders(self):
        reports = scan_nonvanishing(3)
        byn = {r.n: r for r in reports}
        assert (byn[1].pruned_zero, byn[1].structural_zero, byn[1].nonzero) == (1, 0, 1)
        assert (byn[2].pruned_zero, byn[2].structural_zero, byn[2].nonzero) == (2, 0, 2)
        assert (byn[3].pruned_zero, byn[3].structural_zero, byn[3].nonzero) == (4, 1, 3)
        assert all(not r.unexpected for r in reports)

    def test_counts_cover_the_lattice(self):
        for r in scan_nonvanishing(6):
            total = r.pruned_zero + r.structural_zero + r.nonzero + len(r.unexpected)
            assert total == 1 << r.n

    def test_no_unexpected_through_eight(self):
        assert all(not r.unexpected for r in scan_nonvanishing(8))

    def test_parallel_scan_matches_serial(self):
        serial = scan_nonvanishing(6)
        parallel = scan_nonvanishing(6, workers=2)
        assert [
            (r.n, r.pruned_zero, r.structural_zero, r.nonzero, r.unexpected)
            for r in serial
        ] == [
            (r.n, r.pruned_zero, r.structural_zero, r.nonzero, r.unexpected)
            for r in parallel
        ]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            scan_nonvanishing(0)


class TestWorkerCap:
    """The pool is replaced by an in-process fake, so no process starts."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(signedeval, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize(
        "requested,cpus,masks,expected",
        [
            (4000, 2, 64, [2]),  # capped at the CPU count
            (3, 8, 64, [3]),  # the request is below both caps
            (10, 16, 41, [9]),  # 41 masks in chunks of 5 make only 9 jobs
            (4000, None, 64, []),  # unknown CPU count: serial
            (4000, 1, 64, []),  # one CPU: serial
        ],
    )
    def test_pool_size(self, monkeypatch, pool_sizes, requested, cpus, masks, expected):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: cpus)
        chosen = list(range(64))[:masks]
        got = _values_for_masks(6, chosen, requested)
        assert pool_sizes == expected
        assert got == [eval_assignment(6, _mask_signs(6, m)) for m in chosen]
        assert got == _values_for_masks(6, chosen, None)
