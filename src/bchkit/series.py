"""Top-level term computations: log(e^x e^y), multi-factor products, and
products of arbitrary power series with f(0) = 1.

z_n is the top-right entry of log(F_0 F_1 ... F_{m-1}) for the factor
matrices of ``trimatrix``.  Only the last column of the log is needed, so
no matrix is formed: with N = F_0 ... F_{m-1} - I, z_n is row 0 of
sum_q (-1)^{q+1} N^q e_n / q, summed by Horner's rule from q = n down,
h_q = (-1)^{q+1} e_n / q + N h_{q+1} with F_{m-1} applied first, and
z_n = (N h_1)[0].  N is strictly upper triangular, so row 0 of N h_1
reads rows >= 1 of h_1, which read rows >= 2 of h_2, and so on: step q
forms rows q..n only, and the widest entry, row 0, once instead of once
per power.  Column j is scaled by an integer S_j and 1/q becomes L/q with
L = lcm(1..n), so everything runs on integers.  Column entry h[k] is one
Python int packing one lane per word over positions k+1..n (Kronecker
substitution): position p's digit weighs m^(n-p), so a family-f run over
positions k+1..j shifts a lane by f (m^(n-j) + ... + m^(n-k-1)) lanes.
In row 0 position 1 is the most significant digit, so lane i is the i-th
word in graded-lex order: the decoder both kernels share,
``words.unpack_lanes``, needs no digit-reversal index, and ``lex_lanes``
hands out each word's integer numerator in the order the output prints
them, with no word tuples and no sort.  The term memo holds only those
ints, per order and series, and each call decodes a fresh ``NCSeries``
from them, so no caller can edit another's term.  The matrix route of
``trimatrix``, the reference the tests compare against, is imported here
only for the tracer.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache
from math import lcm
from time import perf_counter

# perfbench/tracing.py wraps the matrix route's names in this module
from .trimatrix import build_factor_matrix, log_upper_right, mat_mul, t_operator
from .words import Alphabet, NCSeries, SeriesSpec, check_order, unpack_lanes

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


def _log_column(n: int, steps: Sequence[Sequence[Sequence[int]]], width: int, weights: Sequence[int]) -> int:
    """Row 0 of sum_q weights[q-1] N^q e_n over q = 1..n, N = F_0 ... F_{m-1} - I
    on the scaled steps, ``width`` bits per lane (at width 0 each column entry
    holds the sum of its lanes): h_n = weights[n-1] e_n, h_q = weights[q-1] e_n
    + N h_{q+1}, and the sum is (N h_1)[0].  Step q forms rows q..n only."""
    m = len(steps)
    shifts = [[width * f * m ** (n - j) for j in range(n + 1)] for f in range(m)]
    h = [0] * n + [weights[n - 1]]
    for q in range(n - 1, -1, -1):
        w = h.copy()  # each factor in place, F_{m-1} first: row k reads rows >= k only
        for f in range(m - 1, -1, -1):
            a, shift = steps[f], shifts[f]
            for k in range(q, n + 1 if q or f else 1):  # of N h_1 only row 0 is read
                # Horner over j: each partial sum moves on by f m^(n-j) lanes
                total = 0
                for j in range(n, k, -1):
                    total = (total + w[j] * a[k][j]) << shift[j]
                w[k] += total  # a[k][k] = c_0 = 1
        if q:  # the last step keeps row 0 alone, and h_1[0] = 0 needs no subtraction
            for k in range(q + 1, n + 1):
                w[k] -= h[k]
            w[n] += weights[q - 1]
        h = w
    return h[0]


def lane_width(n: int, steps: Sequence[Sequence[Sequence[int]]]) -> int:
    """Lane bits that provably hold every lane of ``packed_log_entry``.

    The kernel on |a[f][k][j]| at width 0 with the weights L/q sums
    (L/q) ((|F_0| ... |F_{m-1}| - I)^q e_n)[0] over q.  Each |F_f| has a unit
    diagonal and no negative entry, so no term is negative, and the sum
    bounds the sum of |lane| over the lanes of the log entry, so each lane.
    Horner's rule only regroups the sum of powers, so the bound is the
    integer that summing them one by one gives.  One sign bit more, rounded
    up to whole bytes.
    """
    top = lcm(*range(1, n + 1))
    absolute = [[[abs(x) for x in row] for row in a] for a in steps]
    bound = _log_column(n, absolute, 0, [top // q for q in range(1, n + 1)])
    return (bound.bit_length() + 8) // 8 * 8


def packed_log_entry(n: int, steps: Sequence[Sequence[Sequence[int]]], width: int) -> int:
    """L S_n times the (1, n+1) log entry, one ``width``-bit lane per word: the
    kernel on the weights (-1)^(q+1) L/q of log(I + N) = sum_q (-1)^(q+1) N^q / q."""
    top = lcm(*range(1, n + 1))
    return _log_column(n, steps, width, [(-1) ** (q + 1) * (top // q) for q in range(1, n + 1)])


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
    nums = unpack_lanes(packed, width, m**n)
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

