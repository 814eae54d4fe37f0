"""Brute-force truncated free-algebra engine, the package's ground truth.

Deliberately the slow, obvious algorithm, on ``words`` alone, none of the
matrix pipeline's: no matrices, no packed lanes, no row or column log.  A
series truncated past degree cap over m letters is one flat list of integer
numerators over one denominator, word w at flat(w) = sum_i (w_i + 1)
m^(|w|-1-i): graded-lex order, the length-L words from (m^L - 1)/(m - 1).  Since
flat(uv) = m^|v| flat(u) + flat(v), carrying one word v onto every u that
fits under the cap is one strided slice update; every fitting pair of words
is still multiplied.  The oracle writes each factor f_k(a_k) straight into a
flat list, starts the chain from f_0(a_0)'s own list, multiplies the other
m - 1 factors onto it and takes the log series, all on integers; one run at
the top order answers a ``verify`` route, as lanes per order.  The log
series runs by Horner's rule, each bracket kept to the degrees still
reachable, a prefix of the flat list, and scaled to integers (``_power_sum``).
``nc_mul`` is the one entry on word series, for the tests and the tracer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product, repeat
from math import gcd, lcm
from operator import add, floordiv, mul

from .words import Alphabet, NCSeries, SeriesSpec, check_order

# Public name kept for importers; nc_mul works on the shared word series.
TruncatedNCSeries = NCSeries


def _starts(m: int, cap: int) -> list[int]:
    """Flat index of the first word of each length 0..cap + 1."""
    return [(m**length - 1) // (m - 1) for length in range(cap + 2)]


def _flat(a: NCSeries) -> tuple[list[int], int]:
    """a as flat integer numerators over the lcm of its denominators."""
    m, cap = a.alphabet.size, a.max_degree
    if cap:
        check_order(cap, m)
    den = lcm(*(c.denominator for c in a.terms.values()))
    flat = [0] * _starts(m, cap)[-1]
    for word, c in a.terms.items():
        i = sum((letter + 1) * m ** (len(word) - 1 - j) for j, letter in enumerate(word))
        flat[i] = c.numerator * (den // c.denominator)
    return flat, den


def _series(alphabet: Alphabet, cap: int, flat: list[int], den: int) -> NCSeries:
    words = chain.from_iterable(product(range(alphabet.size), repeat=k) for k in range(cap + 1))
    return NCSeries(alphabet, cap, {w: Fraction(c, den) for w, c in zip(words, flat) if c})


def _concat(a: list[int], b: list[int], m: int, cap: int) -> list[int]:
    """Flat concatenation product, overweight words dropped."""
    starts = _starts(m, cap)
    out = [0] * len(a)
    for length in range(cap + 1):
        step = m**length
        count = starts[cap - length + 1]  # the words u with |uv| <= cap
        src = a[:count]
        lo, hi = starts[length], starts[length + 1]
        for v in compress(range(lo, hi), b[lo:hi]):
            s = slice(v, v + count * step, step)
            out[s] = map(add, out[s], map(mul, src, repeat(b[v])))
    return out


def _power_sum(x: list[int], dx: int, m: int, cap: int) -> tuple[list[int], int]:
    """log(x/dx) = sum_k (-1)^(k+1)/k y^k, k = 1..cap, for x/dx with constant
    term 1, by Horner's rule: (((s_top y + ...) + s_2) y + s_1) y.  With
    y = x/dx - 1 = Y/dx, B = lcm(1..cap) and s_j = (-1)^(j+1) B/j, each bracket
    scaled by dx^(cap-j) is integral: G_top = s_top dx^(cap-top) and
    G_j = s_j dx^(cap-j) + G_(j+1) Y, since B/j and dx^(cap-j) are integers for
    j <= cap.  Unrolled, G_1 Y = sum_k s_k dx^(cap-k) Y^k, the log times
    B dx^cap.  G_j meets j more factors Y, none shorter than one letter, so
    only its words of length <= cap - j count: the flat list's prefix of
    starts[cap - j + 1] entries.  Y^k vanishes past top = cap // (the length
    of Y's shortest word), so Horner starts there."""
    big = lcm(*range(1, cap + 1))
    starts = _starts(m, cap)
    y = [0, *x[1:]]
    low = next((d for d in range(1, cap + 1) if any(y[starts[d]:starts[d + 1]])), 0)
    if not low:
        return y, 1  # x/dx = 1, log 0
    top = cap // low
    g = [(-1) ** (top + 1) * (big // top) * dx ** (cap - top)]
    for j in range(top - 1, -1, -1):
        d = cap - j
        g = _concat(g + [0] * (starts[d + 1] - len(g)), y, m, d)
        if j:
            g[0] = (-1) ** (j + 1) * (big // j) * dx**d
    return g, big * dx**cap


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product, dropping overweight words as they arise."""
    a._compatible(b)
    (fa, da), (fb, db) = _flat(a), _flat(b)
    return _series(a.alphabet, a.max_degree, _concat(fa, fb, a.alphabet.size, a.max_degree), da * db)


def _letter_flat(f: SeriesSpec, k: int, starts: list[int]) -> tuple[list[int], int]:
    """f(a_k) truncated past degree len(starts) - 2, as a flat list over the
    lcm of its denominators: c_j on the word a_k^j, at flat index
    (k+1)(m^j - 1)/(m - 1)."""
    coeffs = [f.coeff(j) for j in range(len(starts) - 1)]
    den = lcm(*(c.denominator for c in coeffs))
    flat = [0] * starts[-1]
    for j, c in enumerate(coeffs):
        flat[(k + 1) * starts[j]] = c.numerator * (den // c.denominator)
    return flat, den


def _oracle(n: int, m: int, f_list: list[SeriesSpec]) -> tuple[list[int], int]:
    """log(f_0(a_0) f_1(a_1) ...) truncated past degree n, as flat integers over
    one denominator.  Its length-d words are z_d for every d <= n: concatenation
    never shortens a word, so truncating at n drops nothing of degree <= n.
    The product starts from f_0(a_0)'s own list and denominator."""
    check_order(n, m)
    if len(f_list) != m:
        raise ValueError(f"expected {m} series, got {len(f_list)}")
    starts = _starts(m, n)
    factors = (_letter_flat(f, k, starts) for k, f in enumerate(f_list))
    flat, den = next(factors)
    for factor, dk in factors:
        flat, den = _concat(flat, factor, m, n), den * dk
    g = gcd(den, *flat)  # unreduced, the power sum's ints double in width
    return _power_sum(list(map(floordiv, flat, repeat(g))), den // g, m, n)


def oracle_lanes(n: int, m: int, f_list: list[SeriesSpec]) -> list[tuple[int, list[int]]]:
    """(den_d, numerators of the length-d words in graded-lex order) for
    d = 1..n, each order over the lowest denominator that holds it."""
    flat, den = _oracle(n, m, f_list)
    starts = _starts(m, n)
    orders = [flat[lo:hi] for lo, hi in zip(starts[1:], starts[2:])]
    return [(den // g, list(map(floordiv, nums, repeat(g)))) for nums in orders for g in [gcd(den, *nums)]]


def oracle_bch(n: int, m: int, f_list: list[SeriesSpec], alphabet: Alphabet | None = None) -> NCSeries:
    """Degree-n slice of log(f_0(a_0) f_1(a_1) ...) by direct expansion."""
    if alphabet is not None and alphabet.size != m:  # before the oracle runs, not after
        raise ValueError(f"alphabet has {alphabet.size} letters, need {m}")
    top = oracle_lanes(n, m, f_list)[-1]
    return NCSeries.from_lex(alphabet or Alphabet.default(m), n, *top)
