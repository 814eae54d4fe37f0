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
lane of packed ints, and these are the order-d assignments: a scan of
orders 1..n is one run, as are the terms verify reconstructs.  Lanes stay
in P-order, the order the kernel computes them in: lane f has bit t-1 set
when the prefix product P_t = s_1 ... s_t is -1, and holds the value at
mask (f ^ f << 1) mod 2**d, a Gray code.  The parity of that mask is f's
top bit, so a scan finds the odd-plus lanes as one half of the list, and
the transform of the P-order lanes is the term with each word read
through the same map.  The top order splits into subtrees of at most
2**12 lanes, run here or on one pool of processes per call, each filling
one strided slice of its order's list; a prefix shorter than the
subtrees' depth comes only from the subtree rooted at it.  Each order
comes back as integer numerators over L_d d!, with no Fraction, read by
the packed-lane decoder ``words.unpack_lanes`` that the symbolic kernel
uses too; the lattice keeps its own recurrence and its own lane width.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, islice, repeat
from math import comb, factorial, lcm
from operator import add, countOf, mul, sub

# words alone, the input guard and the lane decoder among them: _walk shares no kernel code
from .words import Alphabet, NCSeries, check_order, unpack_lanes

SignAssignment = tuple[int, ...]
OrderLanes = tuple[int, int, int, list[int]]  # (order, denominator, first P-lane, numerators)
POOL_MIN_MASKS = 1 << 16  # below this many top-order masks, the kernel costs less than a pool
SUBTREE_LANES = 1 << 12  # top-order lanes of one job: bounds its memory


def _mask_signs(n: int, mask: int) -> SignAssignment:
    # bit i set means position i+1 carries -1
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def _reversal(n: int) -> list[int]:
    rev = [0]  # rev[mask]: the n bits of mask in reverse order, one doubling per bit
    for _ in range(n):
        rev = [2 * x for x in rev] + [2 * x + 1 for x in rev]
    return rev


def eval_assignment(n: int, signs: Sequence[int]) -> Fraction:
    """Exact value of the (1, n+1) log entry at one +-1 assignment (one-lane walk)."""
    check_order(n, 2)
    signs = tuple(signs)
    if len(signs) != n:
        raise ValueError(f"expected {n} signs, got {len(signs)}")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    [(_, den, _, [num])] = _walk(n, sum(1 << i for i, s in enumerate(signs) if s < 0), n)
    return Fraction(num, den)


@cache
def _lane_width(n: int) -> int:
    """Lane bits that provably hold every leaf ``_walk`` unpacks, orders 1..n.

    The order-d leaf at assignment s is L d! z_d(s), where z_d(s) = sum_w
    c_w prod_{i: w_i = y} s_i is the term with each y read as s_i, so
    |leaf| <= L d! ||z_d||_1, the sum of the |c_w|.  Varadarajan's recursion
    (Casas and Murua, J. Math. Phys. 50, 033513, 2009), with z_1 = x + y and
    K_2p = B_2p / (2p)!, is (m+1) z_(m+1) = 1/2 [x - y, z_m]
    + sum_(p >= 1) K_2p sum_(k_1 + ... + k_2p = m) [z_k1, [..., [z_k2p, x + y]..]],
    and ||[a, b]||_1 <= 2 ||a||_1 ||b||_1, so ||z_d||_1 <= Z_d with Z_1 = 2 and
    (m+1) Z_(m+1) = 2 Z_m + 2 sum_p |K_2p| 4**p [t**m] Z(t)**(2p).  Here
    |K_2p| 4**p = T_(2p-1) / ((4**p - 1) (2p-1)!), T the tangent numbers, and
    every value is an int in units of 2**-64 rounded up, so each stays an
    upper bound.  The largest L d! Z_d plus a sign bit, rounded up to whole
    bytes, keeps every leaf within +-2**(W-1).
    """
    one, top = 1 << 64, n // 2
    t = [0] + [factorial(k - 1) for k in range(1, top + 1)]  # t[p] = T_(2p-1), Knuth and Buckholtz
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    c = [0] + [-(-t[p] * one // ((4**p - 1) * factorial(2 * p - 1))) for p in range(1, top + 1)]  # >= |K_2p| 4**p
    z = [0, 2 * one]  # z[m] >= Z_m
    powers = [[0] * n for _ in range(top + 1)]  # powers[p][m] >= [t**m] Z(t)**(2p)
    for m in range(1, n):
        square = powers[1]
        square[m] = -(-sum(map(mul, z[1:m], z[m - 1 : 0 : -1])) // one)
        acc = c[1] * square[m]
        for p in range(2, m // 2 + 1):
            below = powers[p - 1]
            powers[p][m] = -(-sum(map(mul, square[2 : m - 2 * p + 3], below[m - 2 : 2 * p - 3 : -1])) // one)
            acc += c[p] * powers[p][m]
        z.append(-(-(2 * one * z[m] + 2 * acc) // (one * (m + 1))))
    bound = max(lcm(*range(1, d + 1)) * factorial(d) * z[d] for d in range(1, n + 1))
    return (-(-bound // one)).bit_length() + 8 >> 3 << 3


def _walk(n: int, root: int, depth: int, low: int | None = None) -> list[OrderLanes]:
    """(d, L d!, start, numerators) of one subtree for each order d in low..n
    (low defaults to n): its values in P-order, lane i at P-lane
    f = start + (i << depth), which holds mask (f ^ f << 1) mod 2**d.

    The subtree holds the masks with ``root`` as their low ``depth`` bits,
    the P-lanes with ``start`` as theirs.  With P_t = s_1 ... s_t and
    D = diag(P_0, ..., P_n) the product is F D F D; scaling column j by j!
    turns F into the Pascal matrix C, so u_q = u_{q-1} (F D F D - I) from
    u_0 = e_0 runs on ints as a_q = P (C u_{q-1}),
    u_q = P (C a_q) - u_{q-1} (P entrywise).  Entry d
    of both depends on s_1..s_d alone, so level d fills it for every prefix
    of d signs at once, one W-bit lane each (W from ``_lane_width``).  Lane
    bit t - depth - 1 is [P_t = -1], so level d keeps each entry as two
    packed halves, the lanes with P_d = +1 and those with P_d = -1.  Row d
    of C takes entry j < d from its full form lo + (hi << W h), h lanes a
    half, broadcast Horner-style (acc += acc << W lanes) to a half of level
    d's lanes, plus the matching half of entry d; P_d is then a sign on the
    upper half.  Levels up to ``depth`` hold one lane and keep the half
    that ``root``'s P_d picks.  Every step is linear (shifts, sums, small multiples), so a
    lane may run over its W bits on the way: only the leaves must fit.  The
    order-d product is the leading block of the order-n one, so level d
    yields the order-d values sum_q (-1)**(q+1) (L/q) u_q[d] / (L d!),
    L = lcm(1..d), decoded to ints by ``words.unpack_lanes``.  A prefix
    shorter than ``depth`` lies in several subtrees; only the one rooted at
    it (root >> d == 0) emits it.
    """
    # its own first-row log and width, apart from the symbolic kernel: a shared bug would pass verify
    low = n if low is None else low
    width = _lane_width(n)
    froot = sum(((root & (2 << t) - 1).bit_count() & 1) << t for t in range(depth))  # P bits
    # u[q][j] and a[q][j]: entry j of u_q and a_q, in full on level j's lanes
    u = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    a = [[0] * (n + 1) for _ in range(n + 2)]
    a[1][0] = 1  # a_1[0] = P_0 u_0[0]: level 0 is the root's one lane
    out = []
    for d in range(1, n + 1):
        row = [comb(d, j) for j in range(d)]

        def dot(x: list[int], lo: int) -> int:  # (C x)[d] less x[d], on a half; x[j] = 0 below lo
            acc = sum(map(mul, row[lo : depth + 1], x[lo : depth + 1]))  # one-lane entries
            for j in range(max(lo, depth + 1), d):
                acc += (acc << (width << j - 1 - depth)) + row[j] * x[j]
            return acc

        def full(lo: int, hi: int) -> int:  # one lane: the half of root's P_d
            return lo + (hi << (width << d - 1 - depth)) if d > depth else hi if froot >> d - 1 & 1 else lo

        ulo = uhi = 0  # the halves of u_(q-1)[d]: its lanes of P_d = +1, then of P_d = -1
        for q in range(1, d + 1):
            s = dot(u[q - 1], q - 1)
            alo, ahi = s + ulo, -s - uhi
            s = dot(a[q], q - 1)
            ulo, uhi = s + alo - ulo, -s - ahi - uhi
            a[q][d], u[q][d] = full(alo, ahi), full(ulo, uhi)
        a[d + 1][d] = full(ulo, -uhi)
        if d < low or root >> d:
            continue
        big, lanes = lcm(*range(1, d + 1)), 1 << max(d - depth, 0)
        value = sum((-1) ** (q + 1) * (big // q) * u[q][d] for q in range(1, d + 1))
        out.append((d, big * factorial(d), froot & ((1 << d) - 1), unpack_lanes(value, width, lanes)))
    return out


def _lattice(n: int, workers: int | None, low: int | None = None) -> list[OrderLanes]:
    """Every subtree's lanes, joined per order low..n (low defaults to n),
    ascending, as (d, L d!, 0, all 2**d numerators in P-order).  Order n
    runs as low-bit subtrees of at most SUBTREE_LANES masks, so memory is
    bounded whatever n is: on min(workers, cpu count) processes, two or
    more subtrees each, if it has max(4 * workers, POOL_MIN_MASKS) masks,
    else here.  Mask ranges would redo shared prefixes.  A subtree's lanes
    are one strided slice of its order's list, so a worker sends back
    numerators alone, joined as they come back.  Refuses bad n or workers first."""
    check_order(n)
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers or 1, os.cpu_count() or 1)
    pooled = workers > 1 and 1 << n >= max(4 * workers, POOL_MIN_MASKS)
    depth = max(n + 1 - SUBTREE_LANES.bit_length(), (2 * workers - 1).bit_length() if pooled else 0)
    jobs = (repeat(n), range(1 << depth), repeat(depth), repeat(low))
    if pooled:
        from concurrent.futures import ProcessPoolExecutor  # here: it pulls in multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _join(pool.map(_walk, *jobs), depth)
    return _join(map(_walk, *jobs), depth)


def _join(parts: Iterable[list[OrderLanes]], depth: int) -> list[OrderLanes]:
    """Each order's subtree lanes, strided slices of depth ``depth``, in one P-order list."""
    orders: dict[int, OrderLanes] = {}  # root 0 comes first and emits every order, ascending
    for d, den, start, nums in chain.from_iterable(parts):
        if d not in orders:
            orders[d] = (d, den, 0, [0] * (1 << d))
        orders[d][3][start :: 1 << depth] = nums  # one lane if d < depth: start < 2**d
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


def build_table(n: int, pruning: str = "none", workers: int | None = None) -> SignedCoefficientTable:
    """Evaluate the order-n sign lattice.

    pruning="none" evaluates every assignment directly.
    pruning="symmetry" records even-plus-count assignments as zero without
    reading them and reads one member of each reversal pair, deriving the
    partner via the (-1)**(n-1) factor.  The two modes return equal tables.
    """
    if pruning not in PRUNING_MODES:
        raise ValueError(f"pruning must be one of {PRUNING_MODES}, got {pruning!r}")
    [(_, den, _, nums)] = _lattice(n, workers)
    values, rev, top = [Fraction(0)] * (1 << n), _reversal(n), (1 << n) - 1
    for f, num in enumerate(nums):
        mask = (f ^ f << 1) & top  # the Gray map: P-lane f holds the value at mask
        if pruning == "none":
            values[mask] = Fraction(num, den)
        elif _odd_plus(n, mask) and mask <= (partner := rev[mask]):
            values[partner] = (-1) ** (n - 1) * (value := Fraction(num, den))
            values[mask] = value
    return SignedCoefficientTable(n, values)


def _transform(n: int, den: int, t: list[int]) -> tuple[int, list[int]]:
    """(den 2**n, graded-lex numerators) of the order-n term whose P-order
    lanes hold t[f] / den: the Walsh-Hadamard transform on ints.  Each pass
    transforms the lowest index bit and rotates it to the top.  The word
    with y at the set bits of Y takes sum_f t[f] (-1)**|Y & (f ^ f << 1)|,
    and |Y & (f ^ f << 1)| = |(Y ^ Y >> 1) & f| mod 2, so it reads index
    Y ^ Y >> 1; Y's bit 0 is position 1, graded-lex's top digit."""
    for _ in range(n):
        even, odd = t[0::2], t[1::2]
        t = [*map(add, even, odd), *map(sub, even, odd)]
    return den << n, [t[y ^ y >> 1] for y in _reversal(n)]


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
    # one common denominator, so the butterflies run on ints, over the P-order lanes
    den, top = lcm(*(v.denominator for v in table.values)), (1 << n) - 1
    t = [v.numerator * (den // v.denominator) for v in table.values]
    return NCSeries.from_lex(alphabet, n, *_transform(n, den, [t[(f ^ f << 1) & top] for f in range(1 << n)]))


def lattice_terms(n: int) -> list[tuple[int, list[int]]]:
    """(denominator, graded-lex numerators) of the terms of orders 1..n,
    from one walk of the lattice.  Every lane is read, the even-plus ones
    the symmetry rules would write down as zero too."""
    return [_transform(d, den, nums) for d, den, _, nums in _lattice(n, None, 1)]


@dataclass
class ScanReport:
    """Per-order census of the sign lattice."""

    n: int
    pruned_zero: int
    structural_zero: int
    nonzero: int
    unexpected: list[SignAssignment] = field(default_factory=list)


def scan_nonvanishing(n_max: int, workers: int | None = None) -> list[ScanReport]:
    """Census of the assignments of orders n = 1..n_max, from one walk.

    The walk evaluates every assignment; those with an even +1 count, zero
    by the parity rule, are counted as pruned without being read.  Among
    the rest, the all-plus assignment at odd n > 1 is the only zero the
    symmetries predict; anything else that reads zero is reported as
    unexpected.
    """
    reports = []
    for n, _, _, nums in _lattice(n_max, workers, low=1):
        # a mask's parity is its P-lane's top bit: the odd-plus lanes are the
        # lower half for odd n, the upper half for even n
        evaluated = len(nums) >> 1
        lo = evaluated if n % 2 == 0 else 0
        zeros = countOf(islice(nums, lo, lo + evaluated), 0)
        structural = int(n > 1 and n % 2 == 1 and nums[0] == 0)  # all-plus is P-lane 0
        unexpected = []
        if zeros > structural:
            top = (1 << n) - 1
            masks = sorted((f ^ f << 1) & top for f in range(lo + structural, lo + evaluated) if nums[f] == 0)
            unexpected = [_mask_signs(n, mask) for mask in masks]
        reports.append(ScanReport(n, (1 << n) - evaluated, structural, evaluated - zeros, unexpected))
    return reports
