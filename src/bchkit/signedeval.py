"""Numeric +-1 evaluation of the log entry over the sign lattice.

Substituting an assignment of +-1 for the position variables turns the
whole matrix computation numeric: the two-factor product is applied
factor by factor as F D F D on integer rows, with D the diagonal of sign
prefix products, and its log entry is a single rational per assignment.
Summing value(s) * (x + s_1 y)...(x + s_n y) over all 2**n assignments,
divided by 2**n, reproduces the order-n term, and two symmetries predict
exactly which assignments vanish:

  * an even number of +1 entries forces value zero;
  * reading an assignment in reverse order multiplies the value by
    (-1)**(n-1), so the all-plus assignment vanishes for odd n > 1.

A table lists the 2**n values by mask (bit i set: position i+1 carries
-1); in that indexing reconstruction is a Walsh-Hadamard transform, run
on integers over the table's common denominator.

Entry d of every row of the log recurrence depends on s_1..s_d alone, and
the leading (d+1) x (d+1) block of the order-n product is the order-d one.
So one kernel, a depth-first walk over sign prefixes, fills entry d once
per prefix, and its prefixes of length d are the order-d assignments: a
scan of orders 1..n is one walk.  Tables and scans fan out over one pool of
processes per call, one subtree per job; a prefix shorter than the jobs'
depth comes only from the job whose root is that prefix.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, repeat
from math import comb, factorial, lcm
from operator import add, itemgetter, mul, sub
from typing import Callable, Sequence

from .words import Alphabet, NCSeries

SignAssignment = tuple[int, ...]
Keep = Callable[[int, int], bool] | None  # keep(order, mask); None keeps every leaf
POOL_MIN_MASKS = 1 << 12  # below this many top-order masks, the walk costs less than a pool


def _mask_signs(n: int, mask: int) -> SignAssignment:
    # bit i set means position i+1 carries -1
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def _reverse_mask(n: int, mask: int) -> int:
    return int(f"{mask:0{n}b}"[::-1], 2)


def eval_assignment(n: int, signs: Sequence[int]) -> Fraction:
    """Exact value of the (1, n+1) log entry at one +-1 assignment (one-leaf walk)."""
    signs = tuple(signs)
    if len(signs) != n:
        raise ValueError(f"expected {n} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    mask = sum(1 << i for i, s in enumerate(signs) if s < 0)
    return _walk(n, mask, n)[0][2]


Leaf = tuple[int, int, Fraction]  # (order, mask, value)


def _walk(n: int, root: int, depth: int, keep: Keep = None, low: int | None = None) -> list[Leaf]:
    """(order, mask, value) of one subtree, for each order d in low..n
    (low defaults to n) and each mask of d signs with ``keep(d, mask)``.

    The subtree holds the masks with ``root`` as their low ``depth`` bits.
    With P_t = s_1 ... s_t and D = diag(P_0, ..., P_n) the product is
    F D F D; scaling column j by j! turns F into the Pascal matrix C, so
    u_q = u_{q-1} (F D F D - I) from u_0 = e_0 runs on ints as
    a_q = P (C u_{q-1}), u_q = P (C a_q) - u_{q-1} (P entrywise).  Entry d
    of both depends on s_1..s_d alone: fixing s_d fills it once for the
    subtree below.  The leading (d+1) x (d+1) block of the order-n product
    is the order-d product, so once entry d is filled the prefix is a leaf
    of order d, with value sum_q (-1)**(q+1) (L/q) u_q[d] / (L d!) and
    L = lcm(1..d).  A prefix shorter than ``depth`` lies in several subtrees;
    only the one rooted at it (root >> d == 0) emits it, so the subtrees of
    one depth emit each leaf once.  Memory beyond the leaves is O(n**3) ints.
    """
    # Its own first-row log, not log_upper_right: a bug shared with the
    # symbolic kernel would then make verify --modes signed pass while wrong.
    # tails[p][d][k] = p * [C(d, k), ..., C(d, d)], row d of P_d C from k on
    low = n if low is None else low
    rows = [[[comb(d, j) for j in range(k, d + 1)] for k in range(d + 1)] for d in range(n + 1)]
    tails = {1: rows, -1: [[[-c for c in tail] for tail in row] for row in rows]}
    weights, dens = {}, {}
    for d in range(low, n + 1):
        big = lcm(*range(1, d + 1))
        weights[d] = [(-1) ** (q + 1) * (big // q) for q in range(1, d + 1)]
        dens[d] = big * factorial(d)
    # Along the current prefix u[q][j - q] is entry j of u_q and a[q][j - q + 1]
    # entry j of a_q (lower entries are zero); past entry d the lists hold stale
    # values of earlier prefixes, which map never reaches: tails[p][d][k] ends.
    u = [[1] + [0] * n] + [[0] * (n + 1 - q) for q in range(1, n + 1)]
    a = [[]] + [[0] * (n + 2 - q) for q in range(1, n + 1)]
    out = []

    def visit(d: int, mask: int, p: int) -> None:
        # mask fixes s_1..s_d and p = P_d: fill entry d of each row, emit the
        # order-d leaf if wanted, then recurse
        emit = d >= low and root >> d == 0 and (keep is None or keep(d, mask))
        if d == n and not emit:
            return
        tail = tails[p][d]
        for q in range(1, d + 1):
            lo = q - 1
            aq = a[q]
            aq[d - lo] = sum(map(mul, tail[lo], u[lo]))
            u[q][d - q] = sum(map(mul, tail[lo], aq)) - u[lo][d - lo]
        if emit:
            entries = [u[q][d - q] for q in range(1, d + 1)]
            out.append((d, mask, Fraction(sum(map(mul, weights[d], entries)), dens[d])))
        if d == n:
            return
        a[d + 1][0] = p * u[d][0]
        for bit in (root >> d & 1,) if d < depth else (0, 1):
            visit(d + 1, mask | bit << d, -p if bit else p)

    visit(0, 0, 1)
    del visit  # visit's closure holds visit: free the rows now, not at the next gc
    return out


def _lattice(n: int, keep: Keep, workers: int | None, low: int | None = None) -> list[Leaf]:
    """The wanted leaves of orders low..n (low defaults to n), sorted, from one
    walk: on min(workers, cpu count) processes if order n has max(4 * workers,
    POOL_MIN_MASKS) masks, else here.  A job is a low-bit subtree, two or more
    per process: a range of masks would make each job redo the inner walk."""
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers < 2 or 1 << n < max(4 * workers, POOL_MIN_MASKS):
        return sorted(_walk(n, 0, 0, keep, low))
    depth = (2 * workers - 1).bit_length()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_walk, repeat(n), range(1 << depth), repeat(depth), repeat(keep), repeat(low))
        return sorted(leaf for leaves in parts for leaf in leaves)


def _odd_plus(n: int, mask: int) -> bool:
    return (n - mask.bit_count()) % 2 == 1


def _pair_rep(n: int, mask: int) -> bool:
    return _odd_plus(n, mask) and mask <= _reverse_mask(n, mask)


@dataclass
class SignedCoefficientTable:
    """Value of the log entry for every one of the 2**n assignments.

    ``values[mask]`` is the value at the assignment with -1 exactly at
    positions i+1 for the set bits i of ``mask``.  Both build modes fill
    the full list; pruning only changes which entries are computed versus
    written down from the symmetry rules.
    """

    n: int
    values: list[Fraction] = field(default_factory=list)

    def is_complete(self) -> bool:
        return len(self.values) == 1 << self.n


PRUNING_MODES = ("none", "symmetry")


def build_table(
    n: int, pruning: str = "none", workers: int | None = None
) -> SignedCoefficientTable:
    """Evaluate the sign lattice.

    pruning="none" evaluates every assignment directly.
    pruning="symmetry" records even-plus-count assignments as zero without
    evaluation and computes one member of each reversal pair, deriving the
    partner via the (-1)**(n-1) factor.  The two modes return equal tables.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if pruning not in PRUNING_MODES:
        raise ValueError(f"pruning must be one of {PRUNING_MODES}, got {pruning!r}")
    leaves = _lattice(n, None if pruning == "none" else _pair_rep, workers)
    if pruning == "none":
        return SignedCoefficientTable(n, [v for _, _, v in leaves])
    flip = (-1) ** (n - 1)
    values = [Fraction(0)] * (1 << n)
    for _, rep, v in leaves:
        values[_reverse_mask(n, rep)] = flip * v
        values[rep] = v
    return SignedCoefficientTable(n, values)


def reconstruct_term(
    n: int, table: SignedCoefficientTable, alphabet: Alphabet | None = None
) -> NCSeries:
    """Rebuild the order-n word-basis term from a complete table.

    The word with y exactly at positions Y gets coefficient
    2**(-n) sum_s value(s) prod_{i in Y} s_i, which is the Walsh-Hadamard
    transform of the table with Y read as a mask.  The alphabet must have
    two letters (NCSeries.from_lex raises ValueError otherwise).
    """
    if table.n != n:
        raise ValueError(f"table is for order {table.n}, not {n}")
    if not table.is_complete():
        raise ValueError(f"table incomplete: {len(table.values)} of {1 << n} assignments")
    alphabet = alphabet or Alphabet.default(2)
    # one common denominator, so the butterflies run on ints; each pass
    # transforms the lowest index bit and rotates it to the top
    den = lcm(*(v.denominator for v in table.values))
    t = [v.numerator * (den // v.denominator) for v in table.values]
    for _ in range(n):
        even, odd = t[0::2], t[1::2]
        t = [*map(add, even, odd), *map(sub, even, odd)]
    # bit i of t's index is position i+1; graded-lex puts position 1 on top
    nums = [t[_reverse_mask(n, k)] for k in range(1 << n)]
    return NCSeries.from_lex(alphabet, n, den << n, nums)


@dataclass
class ScanReport:
    """Per-order census of the sign lattice."""

    n: int
    pruned_zero: int
    structural_zero: int
    nonzero: int
    unexpected: list[SignAssignment] = field(default_factory=list)


def scan_nonvanishing(n_max: int, workers: int | None = None) -> list[ScanReport]:
    """Evaluate every parity-surviving assignment for n = 1..n_max.

    Assignments with an even +1 count are counted as pruned without
    evaluation.  Among the rest, the all-plus assignment at odd n > 1 is
    the only zero the symmetries predict; anything else that evaluates to
    zero is reported as unexpected.
    """
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
    reports = []
    # each order keeps its masks with a single +1, so groupby yields all of 1..n_max
    for n, group in groupby(_lattice(n_max, _odd_plus, workers, low=1), itemgetter(0)):
        leaves = list(group)
        zeros = [mask for _, mask, value in leaves if not value]
        # zeros is sorted, so the all-plus mask 0 comes first when present
        structural = int(n > 1 and n % 2 == 1 and zeros[:1] == [0])
        unexpected = [_mask_signs(n, mask) for mask in zeros[structural:]]
        nonzero = len(leaves) - len(zeros)
        reports.append(ScanReport(n, (1 << n) - len(leaves), structural, nonzero, unexpected))
    return reports
