"""Top-level term computations: log(e^x e^y), multi-factor products, and
products of arbitrary power series with f(0) = 1.

z_n is the top-right entry of log(F_0 F_1 ... F_{m-1}) for the factor
matrices of ``trimatrix``.  Only the last column of the log is needed, so
no matrix is formed: u_q = F_0 ... F_{m-1} u_{q-1} - u_{q-1} from u_0 = e_n,
F_{m-1} applied first, and z_n = sum_q (-1)^{q+1} u_q[0] / q.  Column j is
scaled by an integer S_j and 1/q becomes L/q with L = lcm(1..n), so
everything runs on integers.  Column entry u[k] is one Python int packing
one lane per word over positions k+1..n (Kronecker substitution): position
p's digit weighs m^(n-p), so a family-f run over positions k+1..j shifts a
lane by f (m^(n-j) + ... + m^(n-k-1)) lanes.  In u[0] position 1 is the
most significant digit, so lane i is the i-th word in graded-lex order:
the unpack needs no digit-reversal index, and ``lex_lanes`` hands out each
word's integer numerator in the order the output prints them, with no word
tuples and no sort.  The term memo holds only those ints, per order and
series, and each call decodes a fresh ``NCSeries`` from them, so no caller
can edit another's term.  The matrix route of ``trimatrix``, the reference
the tests compare against, is imported here only for the tracer.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import repeat
from math import lcm
from operator import add, lshift, sub
from time import perf_counter
from typing import Sequence

# perfbench/tracing.py wraps the matrix route's names in this module
from .trimatrix import build_factor_matrix, log_upper_right, mat_mul, t_operator
from .words import Alphabet, NCSeries, SeriesSpec, check_order

# the packed entry holds m**n lanes of W bits: twice exp's 2**22 * 128 at n = 22
MAX_BITS = 1 << 30


def _scaled_steps(n: int, f_list: Sequence[SeriesSpec]) -> tuple[int, list[list[list[int]]]]:
    """L S_n and the integer steps a[f][k][j] = c^f_{j-k} S_j / S_k, where S_0 = 1
    and S_j = lcm over f and k < j of S_k den(c^f_{j-k}); for exp S_j = j!."""
    s = [1]
    for j in range(1, n + 1):
        s.append(lcm(*(s[k] * f.coeff(j - k).denominator for f in f_list for k in range(j))))
    steps = [[[0] * (n + 1) for _ in range(n + 1)] for _ in f_list]
    for a, f in zip(steps, f_list):
        for k in range(n + 1):
            for j in range(k, n + 1):
                c = f.coeff(j - k)
                a[k][j] = c.numerator * (s[j] // (s[k] * c.denominator))
    return lcm(*range(1, n + 1)) * s[n], steps


def _column_powers(n: int, steps: Sequence[Sequence[Sequence[int]]], width: int):
    """Yield S_n u_q[0] for q = 1..n, ``width`` bits per lane; at width 0
    each column entry holds the sum of its lanes."""
    m = len(steps)
    u = [0] * n + [1]
    for q in range(1, n + 1):
        top = n - q + 1  # u_{q-1}, and every factor step of it, is zero past row top
        w = u
        for f, a in reversed([*enumerate(steps)]):
            shift = [width * f * m ** (n - j) for j in range(n + 1)]
            nxt = [0] * (n + 1)
            for k in range(top + 1):
                # Horner over j: each partial sum moves on by f m^(n-j) lanes
                total = 0
                for j in range(top, k, -1):
                    total = (total + w[j] * a[k][j]) << shift[j]
                nxt[k] = total + w[k]  # a[k][k] = c_0 = 1
            w = nxt
        u = [x - y for x, y in zip(w, u)]
        yield u[0]


def lane_width(n: int, steps: Sequence[Sequence[Sequence[int]]]) -> int:
    """Lane bits that provably hold every lane of ``packed_log_entry``.

    On |a[f][k][j]| at width 0 the recurrence bounds the sum of |lane| over
    the lanes of S_n u_q[0], so each lane; the L/q weights add these up.
    One sign bit more, rounded up to whole bytes.
    """
    top = lcm(*range(1, n + 1))
    absolute = [[[abs(x) for x in row] for row in a] for a in steps]
    bound = sum(top // q * b for q, b in enumerate(_column_powers(n, absolute, 0), 1))
    return (bound.bit_length() + 8) // 8 * 8


def packed_log_entry(n: int, steps: Sequence[Sequence[Sequence[int]]], width: int) -> int:
    """L S_n times the (1, n+1) log entry, one ``width``-bit lane per word."""
    top = lcm(*range(1, n + 1))
    powers = _column_powers(n, steps, width)
    return sum((-1) ** (q + 1) * (top // q) * u for q, u in enumerate(powers, 1))


def unpack_lanes(packed: int, width: int, n: int, m: int) -> list[int]:
    """Every lane of ``packed``, as a signed integer; lane k is the k-th
    word w_1 ... w_n in graded-lex order.

    Adding 2^(width-1) to each lane makes it a nonnegative ``width``-bit
    digit, so one ``to_bytes`` call splits them, and padded to whole 64-bit
    chunks ``memoryview.cast`` reads them at C speed.  A top lane that does
    not fit raises OverflowError; the others rely on ``lane_width``.
    """
    size, lanes, half = width // 8, m**n, 1 << (width - 1)
    # repeated bytes: a sum of half << width*i would be quadratic
    offset = int.from_bytes(half.to_bytes(size, "little") * lanes, "little")
    data = (packed + offset).to_bytes(size * lanes, "little")
    wide = -(-size // 8)  # 64-bit chunks per lane
    if size % 8 or sys.byteorder == "big":
        # byte b of a lane is byte b % 8 of its chunk b // 8 in host order
        flip = 0 if sys.byteorder == "little" else 7
        buf = bytearray(8 * wide * lanes)
        for b in range(size):
            buf[b ^ flip :: 8 * wide] = data[b::size]
        data = buf  # frees the unpadded bytes before the lanes list grows
    chunks = memoryview(data).cast("Q")
    nums = chunks[::wide]
    for c in range(1, wide):
        nums = map(add, nums, map(lshift, chunks[c::wide], repeat(64 * c)))
    return list(map(sub, nums, repeat(half)))


class Stages:
    """Seconds per stage of one run, each timed from the end of the one
    before, and the kernel's lane width once it is known."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.width: int | None = None
        self._mark = perf_counter()

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self.seconds[stage] = now - self._mark
        self._mark = now


def lex_lanes(n: int, f_list: Sequence[SeriesSpec], stages: Stages | None = None) -> tuple[int, list[int]]:
    """L S_n and the integer numerator over it of every length-n word of the
    term, in graded-lex word order, zeros included.  ``stages``, when given,
    gets the lane width and the laps scales, width, recurrence and unpack.
    A packed entry of m**n lanes of W bits over MAX_BITS is refused once W is
    known, before the recurrence."""
    m = len(f_list)
    check_order(n, m)
    stages = stages or Stages()
    den, steps = _scaled_steps(n, f_list)
    stages.lap("scales")
    stages.width = width = lane_width(n, steps)
    stages.lap("width")
    if m**n * width > MAX_BITS:
        raise ValueError(
            f"order {n} over {m} factors needs {m}^{n} lanes of W = {width} bits, "
            f"over the budget of {MAX_BITS} bits"
        )
    packed = packed_log_entry(n, steps, width)
    stages.lap("recurrence")
    nums = unpack_lanes(packed, width, n, m)
    stages.lap("unpack")
    return den, nums


@cache
def _lanes(n: int, f_list: tuple[SeriesSpec, ...]) -> tuple[int, tuple[int, ...]]:
    den, nums = lex_lanes(n, f_list)
    return den, tuple(nums)


def term_lanes(n: int, m: int) -> tuple[int, tuple[int, ...]]:
    """The memoized ``lex_lanes`` of the order-n term of m exponentials."""
    check_order(n, m)
    return _lanes(n, (SeriesSpec.exponential(n),) * m)


def bch_term(n: int, alphabet: Alphabet | None = None) -> NCSeries:
    """The complete order-n term of log(e^x e^y), exact rationals."""
    return bch_term_multi(n, 2, alphabet)


def bch_term_multi(n: int, m: int, alphabet: Alphabet | None = None) -> NCSeries:
    """Order-n term of log(e^{a_0} e^{a_1} ... e^{a_{m-1}}) over m letters."""
    check_order(n, m)
    return logf_term(n, [SeriesSpec.exponential(n)] * m, alphabet)


def logf_term(
    n: int, f_list: Sequence[SeriesSpec], alphabet: Alphabet | None = None
) -> NCSeries:
    """Order-n term of log(f_0(a_0) f_1(a_1) ...), one series per factor.

    Per-factor series generalize the common-f product; with every series
    equal to exp this coincides with bch_term_multi.
    """
    f_list = tuple(f_list)
    alphabet = alphabet or Alphabet.default(len(f_list))
    if len(f_list) != alphabet.size:
        raise ValueError(f"{len(f_list)} factors need {len(f_list)} letters, alphabet has {alphabet.size}")
    return NCSeries.from_lex(alphabet, n, *_lanes(n, f_list))


def clear_term_cache() -> None:
    """Drop memoized terms (benchmarking support)."""
    _lanes.cache_clear()

