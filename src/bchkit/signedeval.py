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
lane of one packed int, and these are the order-d assignments: a scan of
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
comes back as integer numerators over L_d d!, with no Fraction.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, islice, repeat
from math import comb, factorial, lcm
from operator import add, countOf, lshift, sub
from typing import Iterable, Sequence

from .words import Alphabet, NCSeries

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
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
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


def _unpack(data: bytes, size: int, half: int) -> list[int]:
    """The ``size``-byte little-endian lanes of ``data``, each less ``half``.

    Padded to whole 64-bit chunks, one strided slice copy per byte (none
    when lanes fill whole chunks on a little-endian host), they are read by
    ``memoryview.cast`` at C speed; chunks above the first are shifted in.
    """
    wide, lanes = -(-size // 8), len(data) // size  # 64-bit chunks per lane
    if size % 8 or sys.byteorder == "big":
        # byte b of a lane is byte b % 8 of its chunk b // 8 in host order
        flip = 0 if sys.byteorder == "little" else 7
        buf = bytearray(8 * wide * lanes)
        for b in range(size):
            buf[b ^ flip :: 8 * wide] = data[b::size]
        data = buf
    chunks = memoryview(data).cast("Q")
    nums = chunks[::wide]
    for c in range(1, wide):
        nums = map(add, nums, map(lshift, chunks[c::wide], repeat(64 * c)))
    return list(map(sub, nums, repeat(half)))


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
    bit t - depth - 1 is [P_t = -1], so P_d = -1 on the upper half of level
    d's lanes and P_d S = 2 low_half(S) - S, one offset and mask.  Entry j
    keeps its 2**(j - depth) lanes; a dot product with row d of C
    broadcasts them Horner-style (acc += acc << W lanes).  The order-d
    product is the leading block of the order-n one, so level d yields the
    order-d values sum_q (-1)**(q+1) (L/q) u_q[d] / (L d!), L = lcm(1..d),
    unpacked to ints by ``_unpack``.  A prefix shorter than ``depth`` lies
    in several subtrees; only the one rooted at it (root >> d == 0) emits it.
    """
    # its own first-row log and unpack, apart from the symbolic kernel: a shared bug would pass verify
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
        big, lanes = lcm(*range(1, d + 1)), 1 << max(d - depth, 0)
        value = sum((-1) ** (q + 1) * (big // q) * u[q][d] for q in range(1, d + 1))
        data = (value + offset(lanes)).to_bytes(size * lanes, "little")
        out.append((d, big * factorial(d), froot & ((1 << d) - 1), _unpack(data, size, half)))
    return out


def _lattice(n: int, workers: int | None, low: int | None = None) -> list[OrderLanes]:
    """Every subtree's lanes, joined per order low..n (low defaults to n),
    ascending, as (d, L d!, 0, all 2**d numerators in P-order).  Order n
    runs as low-bit subtrees of at most SUBTREE_LANES masks, so memory is
    bounded whatever n is: on min(workers, cpu count) processes, two or
    more subtrees each, if it has max(4 * workers, POOL_MIN_MASKS) masks,
    else here.  Mask ranges would redo shared prefixes.  A subtree's lanes
    are one strided slice of its order's list, so a worker sends back
    numerators alone, joined as they come back."""
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
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
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
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
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
    """Evaluate every parity-surviving assignment for n = 1..n_max.

    Assignments with an even +1 count are counted as pruned without
    evaluation.  Among the rest, the all-plus assignment at odd n > 1 is
    the only zero the symmetries predict; anything else that evaluates to
    zero is reported as unexpected.
    """
    if n_max < 1:
        raise ValueError(f"order must be >= 1, got {n_max}")
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
