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
So one kernel fills entry d for every prefix of d signs at once, each a
lane of one packed int indexed by its prefix products P_t, and these are
the order-d assignments: a scan of orders 1..n is one run, as are the
tables verify reconstructs.  The top order splits into subtrees of at most
2**12 lanes, run here or on one pool of processes per call; a prefix
shorter than the subtrees' depth comes only from the subtree rooted at it.
Each order comes back as integer numerators over L_d d!, with no Fraction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import comb, factorial, lcm
from operator import add, sub
from typing import Sequence

from .words import Alphabet, NCSeries

SignAssignment = tuple[int, ...]
Lanes = tuple[int, int, list[int], list[int]]  # (order, denominator, masks, numerators)
POOL_MIN_MASKS = 1 << 16  # below this many top-order masks, the kernel costs less than a pool
SUBTREE_LANES = 1 << 12  # top-order lanes of one job: bounds its memory


def _mask_signs(n: int, mask: int) -> SignAssignment:
    # bit i set means position i+1 carries -1
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def _reverse_mask(n: int, mask: int) -> int:
    return int(f"{mask:0{n}b}"[::-1], 2)


def eval_assignment(n: int, signs: Sequence[int]) -> Fraction:
    """Exact value of the (1, n+1) log entry at one +-1 assignment (one-lane walk)."""
    signs = tuple(signs)
    if len(signs) != n:
        raise ValueError(f"expected {n} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    [(_, den, _, [num])] = _walk(n, sum(1 << i for i, s in enumerate(signs) if s < 0), n)
    return Fraction(num, den)


@cache
def _lane_width(n: int) -> int:
    """Lane bits that provably hold every lane ``_walk`` splits or reads.

    Entry by entry |F D F D - I| <= F F - I and |F D| <= F, so by induction
    on q every assignment has |u_q| <= u+_q and |a_q| <= a+_q, the rows of
    the all-plus run.  ``_walk`` splits (C u_{q-1})[d], at most a+_q[d], and
    (C a_q)[d], at most u+_q[d] + u+_{q-1}[d] <= sum_q (L/q) u+_q[d], which
    also bounds a lane's numerator.  The largest bound plus a sign bit,
    rounded up to whole bytes, keeps every lane within +-2**(W-1).
    """
    u, bound = [[1] + [0] * n], 0
    for q in range(1, n + 2):
        a = [sum(comb(d, j) * x for j, x in enumerate(u[-1][: d + 1])) for d in range(n + 1)]
        u.append([sum(comb(d, j) * x for j, x in enumerate(a[: d + 1])) - u[-1][d] for d in range(n + 1)])
        bound = max(bound, *a)
    leaves = (sum(lcm(*range(1, d + 1)) // q * u[q][d] for q in range(1, d + 1)) for d in range(n + 1))
    return (max(bound, *leaves).bit_length() + 8) // 8 * 8


def _walk(n: int, root: int, depth: int, low: int | None = None) -> list[Lanes]:
    """(d, L d!, masks, numerators) of one subtree for each order d in low..n
    (low defaults to n): its masks of d signs in lane order, each value's numerator.

    The subtree holds the masks with ``root`` as their low ``depth`` bits.
    With P_t = s_1 ... s_t and D = diag(P_0, ..., P_n) the product is
    F D F D; scaling column j by j! turns F into the Pascal matrix C, so
    u_q = u_{q-1} (F D F D - I) from u_0 = e_0 runs on ints as
    a_q = P (C u_{q-1}), u_q = P (C a_q) - u_{q-1} (P entrywise).  Entry d
    of both depends on s_1..s_d alone, so level d fills it for every prefix
    of d signs at once, one W-bit lane each (W from ``_lane_width``).  Lane
    bit t - depth - 1 is [P_t = -1], so P_d = -1 on the upper half of level
    d's lanes and P_d S = 2 low_half(S) - S, one offset and mask.  Entry j
    keeps its 2**(j - depth) lanes; a dot product with row d of C
    broadcasts them Horner-style (acc += acc << W lanes).  The order-d
    product is the leading block of the order-n one, so level d yields the
    order-d values sum_q (-1)**(q+1) (L/q) u_q[d] / (L d!), L = lcm(1..d),
    unpacked to ints.  A prefix shorter than ``depth`` lies in several
    subtrees; only the one rooted at it (root >> d == 0) emits it.
    """
    # its own first-row log: a bug shared with the symbolic kernel would pass verify --modes signed
    low = n if low is None else low
    width = _lane_width(n)
    size, half = width // 8, 1 << width - 1

    def offset(lanes: int) -> int:  # half in each lane: every lane a nonnegative digit
        return int.from_bytes(half.to_bytes(size, "little") * lanes, "little")

    def times_p(s: int) -> int:  # P_d s: P_d = +1 on the lanes of low_half
        return 2 * ((s + bias & low_half) - bias) - s

    def dot(x: list[int], lo: int) -> int:  # (C x)[d] on level d's lanes; x[j] = 0 below lo
        acc = sum(comb(d, j) * x[j] for j in range(lo, min(d, depth) + 1))  # one-lane entries
        for j in range(max(lo, depth + 1), d + 1):
            acc += (acc << (width << j - 1 - depth)) + comb(d, j) * x[j]
        return acc

    froot = sum(((root & (2 << t) - 1).bit_count() & 1) << t for t in range(depth))  # P bits
    # u[q][j] and a[q][j]: entry j of u_q and a_q, on level j's lanes
    u = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    a = [[0] * (n + 1) for _ in range(n + 2)]
    out = []
    for d in range(n + 1):
        plus = 1 << d - 1 - depth if d > depth else 0  # lanes of P_d = +1; none: one lane
        bias, low_half = offset(plus), (1 << width * plus) - 1 if plus else (froot << 1 >> d & 1) - 1
        for q in range(1, d + 1):
            a[q][d] = times_p(dot(u[q - 1], q - 1))
            u[q][d] = times_p(dot(a[q], q - 1)) - u[q - 1][d]
        a[d + 1][d] = times_p(u[d][d])
        if d < low or root >> d:
            continue
        big, top, lanes = lcm(*range(1, d + 1)), (1 << d) - 1, 1 << max(d - depth, 0)
        value = sum((-1) ** (q + 1) * (big // q) * u[q][d] for q in range(1, d + 1))
        data = (value + offset(lanes)).to_bytes(size * lanes, "little")
        masks = [(f ^ f << 1) & top for f in range(froot & top, top + 1, 1 << depth)]
        nums = [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]
        out.append((d, big * factorial(d), masks, nums))
    return out


def _lattice(n: int, workers: int | None, low: int | None = None) -> list[Lanes]:
    """Every subtree's lanes, joined per order low..n (low defaults to n),
    ascending.  Order n runs as low-bit subtrees of at most SUBTREE_LANES
    masks, so memory is bounded whatever n is: on min(workers, cpu count)
    processes, two or more subtrees each, if it has max(4 * workers,
    POOL_MIN_MASKS) masks, else here.  Mask ranges would redo shared prefixes."""
    workers = min(workers or 1, os.cpu_count() or 1)
    pooled = workers > 1 and 1 << n >= max(4 * workers, POOL_MIN_MASKS)
    depth = max(n + 1 - SUBTREE_LANES.bit_length(), (2 * workers - 1).bit_length() if pooled else 0)
    jobs = (repeat(n), range(1 << depth), repeat(depth), repeat(low))
    if pooled:
        from concurrent.futures import ProcessPoolExecutor  # here: it pulls in multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_walk, *jobs))
    else:
        parts = map(_walk, *jobs)
    orders: dict[int, Lanes] = {}  # root 0 comes first and emits every order, ascending
    for d, den, masks, nums in chain.from_iterable(parts):
        joined = orders.setdefault(d, (d, den, [], []))
        joined[2].extend(masks)
        joined[3].extend(nums)
    return list(orders.values())


def _odd_plus(n: int, mask: int) -> bool:
    return (n - mask.bit_count()) % 2 == 1


@dataclass
class SignedCoefficientTable:
    """Value of the log entry for every one of the 2**n assignments.

    ``values[mask]`` is the value at the assignment with -1 exactly at
    positions i+1 for the set bits i of ``mask``.  Both build modes fill
    the full list; pruning only changes which entries are read from the
    walk versus written down from the symmetry rules.
    """

    n: int
    values: list[Fraction] = field(default_factory=list)

    def is_complete(self) -> bool:
        return len(self.values) == 1 << self.n


PRUNING_MODES = ("none", "symmetry")


def build_tables(n: int, pruning: str = "none", workers: int | None = None,
                 low: int | None = None) -> list[SignedCoefficientTable]:
    """Evaluate the sign lattice of orders low..n (low defaults to n) in one walk.

    pruning="none" evaluates every assignment directly.
    pruning="symmetry" records even-plus-count assignments as zero without
    reading them and reads one member of each reversal pair, deriving the
    partner via the (-1)**(n-1) factor.  The two modes return equal tables.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if pruning not in PRUNING_MODES:
        raise ValueError(f"pruning must be one of {PRUNING_MODES}, got {pruning!r}")
    if low is not None and not 1 <= low <= n:
        raise ValueError(f"lowest order must be in 1..{n}, got {low}")
    tables = []
    for d, den, masks, nums in _lattice(n, workers, low):
        values = [Fraction(0)] * (1 << d)
        for mask, num in zip(masks, nums):
            if pruning == "none":
                values[mask] = Fraction(num, den)
            elif _odd_plus(d, mask) and mask <= (partner := _reverse_mask(d, mask)):
                values[partner] = (-1) ** (d - 1) * (value := Fraction(num, den))
                values[mask] = value
        tables.append(SignedCoefficientTable(d, values))
    return tables


def build_table(n: int, pruning: str = "none", workers: int | None = None) -> SignedCoefficientTable:
    """The order-n table: the one-order case of ``build_tables``."""
    return build_tables(n, pruning, workers)[0]


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
    for n, _, masks, nums in _lattice(n_max, workers, low=1):
        zeros = sorted(mask for mask, num in zip(masks, nums) if not num and _odd_plus(n, mask))
        structural = int(n > 1 and n % 2 == 1 and zeros[:1] == [0])  # all-plus is mask 0
        unexpected = [_mask_signs(n, mask) for mask in zeros[structural:]]
        evaluated = len(masks) >> 1  # half of the n-bit masks have an odd +1 count
        reports.append(ScanReport(n, (1 << n) - evaluated, structural, evaluated - len(zeros), unexpected))
    return reports
