"""The +-1 lattice: evaluation, tables, reconstruction, scanning."""

import concurrent.futures
import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bchkit import signedeval
from bchkit.series import bch_term
from bchkit.signedeval import (
    POOL_MIN_MASKS,
    PRUNING_MODES,
    SignedCoefficientTable,
    _mask_signs,
    _odd_plus,
    _reverse_mask,
    _walk,
    build_table,
    build_tables,
    eval_assignment,
    reconstruct_term,
    scan_nonvanishing,
)
from bchkit.trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from bchkit.words import Alphabet
from helpers import eval_assignment_reference, lane_leaves


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
        assert lane_leaves(_walk(n, mask, n)) == expected
        assert eval_assignment(n, _mask_signs(n, mask)) == expected[0][2]

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_subtrees_at_each_depth_partition_the_lattice(self, n):
        whole = sorted(lane_leaves(_walk(n, 0, 0)))
        for depth in range(n + 1):
            parts = [lane_leaves(_walk(n, root, depth)) for root in range(1 << depth)]
            for root, part in enumerate(parts):
                assert all(mask % (1 << depth) == root for _, mask, _ in part)
            assert sorted(leaf for part in parts for leaf in part) == whole


class TestKernel:
    """The packed breadth-first kernel: its lane width, the parity zeros, the
    subtree cap and the memory of a large scan."""

    @pytest.mark.parametrize("n", range(8, 13))
    def test_width_is_needed(self, monkeypatch, n):
        # three bytes fewer per lane corrupts some leaf; the leaf-value term of
        # the proof leaves the width 16 to 23 bits above the narrowest that works
        exact = sorted(lane_leaves(_walk(n, 0, 0)))
        width = signedeval._lane_width(n)
        monkeypatch.setattr(signedeval, "_lane_width", lambda order: width - 24)
        wrong = [leaf for leaf, good in zip(sorted(lane_leaves(_walk(n, 0, 0))), exact) if leaf != good]
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
            leaves = [leaf for root in range(1 << depth) for leaf in lane_leaves(_walk(n, root, depth, 1))]
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
    def test_tables_of_every_order_from_one_walk(self, pruning, n):
        assert build_tables(n, pruning, low=1) == tables_per_order(pruning)[:n]
        assert build_tables(n, pruning) == [build_table(n, pruning)]

    def test_lowest_order_validation(self):
        for low in (0, 5):
            with pytest.raises(ValueError, match="lowest order"):
                build_tables(4, low=low)

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
        pairs = {min(m, _reverse_mask(n, m)) for m in odd_plus}
        exact = {pruning: build_table(n, pruning).values for pruning in PRUNING_MODES}

        def corrupted(*args):
            return [(d, den, masks, [num if m in pairs else num + 7 for m, num in zip(masks, nums)])
                    for d, den, masks, nums in _walk(*args)]

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
            leaves = lane_leaves(_walk(order, root, depth, low))
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
        build_tables(8, "symmetry", 2, low=1)
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
        assert build_tables(n, pruning, 2, low=1) == tables_per_order(pruning)[:n]
        # one pool and one map for every order
        assert [len(maps) for _, maps in pools] == [1]

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
        pairs = [(d, mask) for job in jobs for d, mask, _ in lane_leaves(_walk(*job))]
        assert len(pairs) == len(set(pairs))
        assert sorted(pairs) == [(d, m) for d in range(1, n + 1) for m in range(1 << d)]
