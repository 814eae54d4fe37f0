"""The +-1 lattice: evaluation, tables, reconstruction, scanning."""

import concurrent.futures
import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm

import pytest

from bchkit import signedeval
from bchkit.cli import main
from bchkit.series import bch_term, term_lanes
from bchkit.signedeval import (
    POOL_MIN_MASKS,
    PRUNING_MODES,
    SUBTREE_LANES,
    SignedCoefficientTable,
    _mask_signs,
    _odd_plus,
    _reversal,
    _walk,
    build_table,
    eval_assignment,
    lattice_terms,
    reconstruct_term,
    scan_nonvanishing,
)
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from bchkit.words import MAX_WORDS, Alphabet, NCSeries
from helpers import bernoulli, eval_assignment_reference, lane_leaves, lane_masks, varadarajan_terms

A2 = Alphabet.default(2)


def all_assignments(n):
    return itertools.product((1, -1), repeat=n)


@pytest.mark.parametrize("n", range(11))
def test_reversal_reads_each_mask_backwards(n):
    assert _reversal(n) == [int(f"{m:0{n}b}"[::-1] or "0", 2) for m in range(1 << n)]


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

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_validation(self, n):
        # refused like build_table(0) and scan_nonvanishing(0), before the signs are counted
        with pytest.raises(ValueError, match=f"order must be >= 1, got {n}$"):
            eval_assignment(n, ())

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


class TestWalk:
    """The prefix-sharing walk against the one-assignment-at-a-time loop."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_mask_matches_the_reference(self, n):
        expected = [(n, m, eval_assignment_reference(n, _mask_signs(n, m))) for m in range(1 << n)]
        assert sorted(lane_leaves(_walk(n, 0, 0))) == expected

    @pytest.mark.parametrize("n", [12, 13, 14])
    def test_sampled_masks_match_the_reference(self, n):
        sample = set(random.Random(n).sample(range(1 << n), 24)) | {0, (1 << n) - 1}
        got = [leaf for leaf in lane_leaves(_walk(n, 0, 0)) if leaf[1] in sample]
        assert sorted(got) == [(n, m, eval_assignment_reference(n, _mask_signs(n, m))) for m in sorted(sample)]

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_one_leaf(self, n):
        mask = random.Random(n).randrange(1 << n)
        expected = [(n, mask, eval_assignment_reference(n, _mask_signs(n, mask)))]
        assert [leaf for leaf in lane_leaves(_walk(n, 0, 0)) if leaf[1] == mask] == expected
        assert lane_leaves(_walk(n, mask, n), n) == expected
        assert eval_assignment(n, _mask_signs(n, mask)) == expected[0][2]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_subtrees_at_each_depth_partition_the_lattice(self, n):
        whole = sorted(lane_leaves(_walk(n, 0, 0)))
        for depth in range(n + 1):
            parts = [lane_leaves(_walk(n, root, depth), depth) for root in range(1 << depth)]
            for root, part in enumerate(parts):
                assert all(mask % (1 << depth) == root for _, mask, _ in part)
            assert sorted(leaf for part in parts for leaf in part) == whole


class TestKernel:
    """The packed breadth-first kernel: its lane width, the parity zeros, the
    subtree cap and the memory of a large scan."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_width_is_needed(self, monkeypatch, n):
        # three bytes fewer per lane corrupts some leaf or overflows the unpack
        # (n = 8 and 10); the proof leaves the width 11 to 19 bits above the
        # largest leaf and its sign bit, 8 to 16 above the narrowest that works
        exact = sorted(lane_leaves(_walk(n, 0, 0)))
        width = signedeval._lane_width(n)
        monkeypatch.setattr(signedeval, "_lane_width", lambda order: width - 24)
        try:
            cut = sorted(lane_leaves(_walk(n, 0, 0)))
        except OverflowError:
            return  # a leaf past its lane: the unpack must change the term or raise
        wrong = [leaf for leaf, good in zip(cut, exact) if leaf != good]
        assert wrong
        _, mask, value = wrong[0]
        assert value != eval_assignment_reference(n, _mask_signs(n, mask))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_even_plus_leaves_vanish(self, n):
        leaves = lane_leaves(_walk(n, 0, 0, 1))
        assert len(leaves) == (2 << n) - 2
        assert all(value == 0 for d, mask, value in leaves if (d - mask.bit_count()) % 2 == 0)

    def test_subtree_cap(self, monkeypatch):
        monkeypatch.setattr(signedeval, "SUBTREE_LANES", 1 << 30)
        whole = [vars(r) for r in scan_nonvanishing(13)], build_table(12, "symmetry").values
        calls = []

        def recording(*args):
            calls.append(args)
            return _walk(*args)

        monkeypatch.setattr(signedeval, "SUBTREE_LANES", 1 << 4)
        monkeypatch.setattr(signedeval, "_walk", recording)
        assert ([vars(r) for r in scan_nonvanishing(13)], build_table(12, "symmetry").values) == whole
        # 2**9 subtrees of 2**4 top-order masks for order 13, 2**8 for order 12
        assert sorted({(n, depth) for n, _, depth, _ in calls}) == [(12, 8), (13, 9)]
        assert len(calls) == (1 << 9) + (1 << 8)

    def test_scan_17_memory(self):
        # the scan runs as a grandchild, so the child's RUSAGE_CHILDREN sees it alone
        probe = (
            "import resource, subprocess, sys; "
            "code = subprocess.run([sys.executable, '-m', 'bchkit', 'scan', '17'], stdout=subprocess.DEVNULL).returncode; "
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        code, peak_kb = map(int, out.stdout.split())
        assert code == 0
        assert peak_kb < 120 * 1024


def norm_bounds(n):
    """[Z_0, ..., Z_n] of ``_lane_width``'s proof in exact Fractions: Z_1 = 2,
    (m+1) Z_(m+1) = 2 Z_m + 2 sum_p |B_2p| / (2p)! 4**p [t**m] Z(t)**(2p)."""
    b, z = bernoulli(n), [Fraction(0), Fraction(2)]
    for m in range(1, n):
        power, acc = [Fraction(1)] + [Fraction(0)] * m, Fraction(0)  # Z(t)**(2p) up to t**m
        for p in range(1, m // 2 + 1):
            for _ in range(2):
                power = [sum(power[i] * z[k - i] for i in range(k)) for k in range(m + 1)]
            acc += abs(b[2 * p]) / factorial(2 * p) * 4**p * power[m]
        z.append((2 * z[m] + 2 * acc) / (m + 1))
    return z


class TestWidthProof:
    """The premises of ``_lane_width``'s bound, checked on the terms themselves."""

    def test_varadarajan_recursion_gives_the_terms(self):
        for d, z in enumerate(varadarajan_terms(9), 1):
            assert NCSeries(A2, d, z) == NCSeries.from_lex(A2, d, *term_lanes(d, 2))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_leaves_of_every_order_fit_the_width(self, d):
        # |leaf| <= L d! ||z_d||_1 <= L d! Z_d < 2**(W - 1)
        den, nums = term_lanes(d, 2)
        norm = Fraction(sum(map(abs, nums)), den)
        assert norm <= norm_bounds(d)[d]
        assert lcm(*range(1, d + 1)) * factorial(d) * norm < 1 << signedeval._lane_width(d) - 1

    def test_width_is_the_exact_bound_in_whole_bytes(self):
        # the kernel's 2**-64 units, rounded up, land on the exact bound's bytes
        z = norm_bounds(30)
        for n in range(1, 31):
            bound = max(lcm(*range(1, d + 1)) * factorial(d) * z[d] for d in range(1, n + 1))
            assert signedeval._lane_width(n) == (-(-bound.numerator // bound.denominator)).bit_length() + 8 >> 3 << 3
        assert [signedeval._lane_width(n) for n in (9, 11, 12, 14, 18, 22)] == [40, 48, 56, 64, 88, 112]


class TestLatticeAtEightyBits:
    def test_lattice_terms_of_order_sixteen(self):
        # order 16, where W = 80: every order equals the symbolic kernel's,
        # cross-multiplied over the two denominators
        for d, (den, nums) in enumerate(lattice_terms(16), 1):
            ref_den, ref = term_lanes(d, 2)
            assert len(nums) == len(ref) == 1 << d
            assert [x * ref_den for x in nums] == [y * den for y in ref]


class TestRefusals:
    """The lattice's entries refuse what words.check_order refuses, and
    workers < 1, before a single walk."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("walked a refused lattice")

        monkeypatch.setattr(signedeval, "_walk", refuse)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: scan_nonvanishing(23),
            lambda: lattice_terms(23),
            lambda: build_table(23),
            lambda: scan_nonvanishing(10**9),
        ],
        ids=["scan", "lattice_terms", "build_table", "scan-huge"],
    )
    def test_oversized_order(self, call):
        with pytest.raises(ValueError, match=f"over the limit of {MAX_WORDS}"):
            call()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        for call in (scan_nonvanishing, build_table):
            with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}$"):
                call(5, workers=workers)


class TestLowerOrders:
    """One walk from order low up to n against a separate walk per order."""

    @staticmethod
    def per_order(n_max, low=1):
        return [leaf for d in range(low, n_max + 1) for leaf in sorted(lane_leaves(_walk(d, 0, 0)))]

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_every_lower_order_leaf(self, n):
        for low in range(1, n + 1):
            assert sorted(lane_leaves(_walk(n, 0, 0, low))) == self.per_order(n, low)

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_kept_lower_order_leaves(self, n):
        # the odd-plus leaves, the ones a scan tests for zero
        kept = [leaf for leaf in lane_leaves(_walk(n, 0, 0, 1)) if _odd_plus(leaf[0], leaf[1])]
        assert sorted(kept) == [leaf for leaf in self.per_order(n) if _odd_plus(leaf[0], leaf[1])]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_subtrees_emit_each_order_and_mask_once(self, n):
        # a prefix shorter than depth comes only from the subtree rooted at it
        for depth in range(n + 1):
            leaves = [leaf for root in range(1 << depth) for leaf in lane_leaves(_walk(n, root, depth, 1), depth)]
            pairs = [(d, mask) for d, mask, _ in leaves]
            assert len(pairs) == len(set(pairs))
            assert sorted(pairs) == [(d, m) for d in range(1, n + 1) for m in range(1 << d)]


def census(n_max):
    """ScanReport fields built from a separate _walk per order."""
    out = []
    for d in range(1, n_max + 1):
        leaves = sorted(leaf for leaf in lane_leaves(_walk(d, 0, 0)) if _odd_plus(d, leaf[1]))
        zeros = [mask for _, mask, value in leaves if not value]
        structural = int(d > 1 and d % 2 == 1 and 0 in zeros)
        unexpected = [_mask_signs(d, m) for m in zeros if not (structural and m == 0)]
        out.append(
            {
                "n": d,
                "pruned_zero": (1 << d) - len(leaves),
                "structural_zero": structural,
                "nonzero": len(leaves) - len(zeros),
                "unexpected": unexpected,
            }
        )
    return out


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


@functools.cache
def tables_per_order(pruning, n_max=12):
    return [build_table(n, pruning) for n in range(1, n_max + 1)]


class TestBuildTable:
    def test_n2_census(self):
        table = build_table(2)
        assert len(table.values) == 4
        assert table.values[0b01] == 1
        assert table.values[0b10] == -1
        assert table.values[0b00] == 0
        assert table.values[0b11] == 0

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("n", range(1, 13))
    def test_tables_of_every_order_from_one_walk(self, monkeypatch, pruning, n):
        # lattice_terms reads orders 1..n off one walk; each equals the
        # reconstruction of that order's own table
        calls = []
        lattice = signedeval._lattice
        monkeypatch.setattr(signedeval, "_lattice", lambda *args: calls.append(args) or lattice(*args))
        terms = [NCSeries.from_lex(A2, d, *lanes) for d, lanes in enumerate(lattice_terms(n), 1)]
        assert calls == [(n, None, 1)]
        assert terms == [reconstruct_term(t.n, t) for t in tables_per_order(pruning)[:n]]

    def test_lowest_order_validation(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                lattice_terms(n)

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
        # every lane but one per reversal pair is made wrong: the symmetry
        # table must not read it, the unpruned table must
        odd_plus = [m for m in range(1 << n) if (n - m.bit_count()) % 2 == 1]
        pairs = {min(m, int(f"{m:0{n}b}"[::-1], 2)) for m in odd_plus}  # m and its bits reversed
        exact = {pruning: build_table(n, pruning).values for pruning in PRUNING_MODES}

        def corrupted(order, root, depth, low=None):
            return [(d, den, start, [num if m in pairs else num + 7 for m, num in zip(lane_masks(d, start, depth), nums)])
                    for d, den, start, nums in _walk(order, root, depth, low)]

        monkeypatch.setattr(signedeval, "_walk", corrupted)
        assert build_table(n, "symmetry").values == exact["symmetry"]
        assert build_table(n, "none").values != exact["none"]


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

    def test_needs_a_two_letter_alphabet(self):
        with pytest.raises(ValueError):
            reconstruct_term(3, build_table(3), Alphabet.default(3))
        z = reconstruct_term(3, build_table(3), Alphabet.from_names("ab"))
        assert str(z) == str(bch_term(3)).replace("x", "a").replace("y", "b")

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

    def test_real_pool_matches_serial(self, monkeypatch):
        # tier-1 scans run below the floor or on the fake pool: this one pools for real
        monkeypatch.setattr(signedeval, "POOL_MIN_MASKS", 1)
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 2)
        assert [vars(r) for r in scan_nonvanishing(10, workers=2)] == census(10)
        assert build_table(9, "symmetry", workers=2).values == build_table(9).values

    def test_order_validation(self):
        with pytest.raises(ValueError):
            scan_nonvanishing(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_one_walk_matches_per_order_walks(self, n):
        assert [vars(r) for r in scan_nonvanishing(n)] == census(n)


class TestUnexpectedZero:
    """An odd-plus lane that evaluates to zero, past the all-plus one, is the
    one scan result that turns P-lanes back into masks.  The walk is patched
    to zero chosen masks, whose P-lanes run in another order than the
    masks: lanes at both ends of the odd-plus half, and P-lane 1 next to the
    structural zero."""

    @pytest.mark.parametrize(
        "n,subtree_lanes,zeroed",
        [
            (7, SUBTREE_LANES, {7: [65, 6, 5, 3]}),  # odd order: P-lanes 63, 2, 3, 1 of the lower half
            (8, SUBTREE_LANES, {8: [128, 84, 1]}),  # even order: P-lanes 128, 204, 255 of the upper half
            (9, 1 << 4, {9: [257, 240, 24, 20], 4: [8, 7]}),  # depth 5: the order-4 lanes from their roots
        ],
        ids=["odd", "even", "subtrees"],
    )
    def test_zeroed_lanes_are_reported_in_mask_order(self, capsys, monkeypatch, n, subtree_lanes, zeroed):
        for d, masks in zeroed.items():
            lanes = lane_masks(d, 0, 0)
            assert all(_odd_plus(d, m) for m in masks)
            assert sorted(masks, key=lanes.index) != sorted(masks)  # P-order is not mask order
        expected = [vars(r) for r in scan_nonvanishing(n)]
        walk = signedeval._walk

        def zeroing(order, root, depth, low=None):
            out = walk(order, root, depth, low)
            for d, _, start, nums in out:
                for i, mask in enumerate(lane_masks(d, start, depth)):
                    if mask in zeroed.get(d, ()):
                        nums[i] = 0
            return out

        monkeypatch.setattr(signedeval, "SUBTREE_LANES", subtree_lanes)
        monkeypatch.setattr(signedeval, "_walk", zeroing)
        lines = []
        for d, masks in sorted(zeroed.items()):
            expected[d - 1]["nonzero"] -= len(masks)
            expected[d - 1]["unexpected"] = [_mask_signs(d, m) for m in sorted(masks)]
            lines += ["".join("-" if m >> i & 1 else "+" for i in range(d)) for m in sorted(masks)]
        assert [vars(r) for r in scan_nonvanishing(n)] == expected
        assert main(["scan", str(n)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert [line.removeprefix("  unexpected zero at ") for line in out if line.startswith("  ")] == lines
        assert out[-1] == f"{len(lines)} unexpected vanishing(s) found"


class TestWorkerCap:
    """The pool is replaced by an in-process fake, so no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        # one entry per pool constructed: its size and the job lists mapped
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.maps = []
                pools.append((max_workers, self.maps))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                jobs = list(zip(*iterables))
                self.maps.append(jobs)
                return [fn(*job) for job in jobs]

        # _lattice imports the pool class when it pools, so the fake replaces it at its source
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # the rows below test the 4 * workers rule alone; test_pool_floor the floor
        monkeypatch.setattr(signedeval, "POOL_MIN_MASKS", 1)
        return pools

    @pytest.mark.parametrize(
        "requested,cpus,masks,expected",
        [
            (4000, 2, 64, [2]),  # capped at the CPU count
            (3, 8, 64, [3]),  # the request is below both caps
            (10, 16, 64, [10]),  # 32 subtree jobs: each of the 10 processes gets some
            (4000, None, 64, []),  # unknown CPU count: serial
            (4000, 1, 64, []),  # one CPU: serial
            (10, 16, 32, []),  # below 4 masks per worker: serial
        ],
    )
    def test_pool_size(self, monkeypatch, pools, requested, cpus, masks, expected):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: cpus)
        n = masks.bit_length() - 1
        got = build_table(n, "none", requested).values
        assert [size for size, _ in pools] == expected
        assert got == [eval_assignment_reference(n, _mask_signs(n, m)) for m in range(masks)]
        assert got == build_table(n, "none").values

    @pytest.mark.parametrize("workers,n", [(2, 3), (2, 7), (3, 6), (5, 8)])
    def test_jobs_are_subtrees_covering_each_mask_once(self, monkeypatch, pools, workers, n):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 8)
        build_table(n, "none", workers)
        [(_, [jobs])] = pools
        assert len(jobs) >= 2 * workers
        masks = []
        for order, root, depth, low in jobs:
            assert (order, low) == (n, None)
            leaves = lane_leaves(_walk(order, root, depth, low), depth)
            assert all(mask % (1 << depth) == root for _, mask, _ in leaves)
            masks += [mask for _, mask, _ in leaves]
        assert sorted(masks) == list(range(1 << n))

    def test_workers_send_back_only_ints(self, monkeypatch, pools):
        # what a pool pickles back is what its jobs return: ints in tuples and lists
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 2)
        returned = []

        def recording(*job):
            returned.append(_walk(*job))
            return returned[-1]

        monkeypatch.setattr(signedeval, "_walk", recording)
        scan_nonvanishing(9, workers=2)
        signedeval._lattice(8, 2, 1)
        assert len(returned) == sum(len(jobs) for _, maps in pools for jobs in maps) > 0

        def atoms(x):
            return [a for item in x for a in atoms(item)] if isinstance(x, (list, tuple)) else [x]

        assert {type(a) for a in atoms(returned)} == {int}

    @pytest.mark.parametrize("n,expected", [(15, []), (16, [2])])
    def test_pool_floor(self, monkeypatch, pools, n, expected):
        # the real floor: scan 15 --workers 2 stays serial, 2**16 masks pool
        monkeypatch.setattr(signedeval, "POOL_MIN_MASKS", POOL_MIN_MASKS)
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 2)
        got = scan_nonvanishing(n, workers=2)
        assert [size for size, _ in pools] == expected
        assert all(len(maps) == 1 for _, maps in pools)
        assert [vars(r) for r in got] == [vars(r) for r in scan_nonvanishing(n)]

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize("n", range(3, 13))  # 2**2 masks are below 4 per worker
    def test_tables_of_every_order_on_the_fake_pool(self, monkeypatch, pools, pruning, n):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 2)
        per_order = sorted(leaf for d in range(1, n + 1) for leaf in lane_leaves(_walk(d, 0, 0)))
        assert sorted(lane_leaves(signedeval._lattice(n, 2, 1))) == per_order
        # one pool and one map for every order
        assert [len(maps) for _, maps in pools] == [1]
        assert build_table(n, pruning, 2) == tables_per_order(pruning)[n - 1]

    def test_scan_opens_one_pool(self, monkeypatch, pools):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 2)
        got = scan_nonvanishing(8, workers=2)
        assert len(pools) == 1
        # one walk for every order: one map of at least 2 subtree jobs per worker
        [jobs] = pools[0][1]
        assert len(jobs) >= 2 * 2
        assert [vars(r) for r in got] == [vars(r) for r in scan_nonvanishing(8)]

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_pooled_scan_matches_per_order_walks(self, monkeypatch, pools, workers, n):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 8)
        assert [vars(r) for r in scan_nonvanishing(n, workers)] == census(n)
        # 2**2 masks are below 4 per worker: no pool
        assert len(pools) == (n > 2)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_pooled_jobs_emit_each_order_and_mask_once(self, monkeypatch, pools, workers):
        monkeypatch.setattr(signedeval.os, "cpu_count", lambda: 8)
        n = 9
        scan_nonvanishing(n, workers)
        [(_, [jobs])] = pools
        assert len(jobs) >= 2 * workers
        pairs = [(d, mask) for job in jobs for d, mask, _ in lane_leaves(_walk(*job), job[2])]
        assert len(pairs) == len(set(pairs))
        assert sorted(pairs) == [(d, m) for d in range(1, n + 1) for m in range(1 << d)]
