"""Brute-force truncated free-algebra engine, the package's ground truth.

Series here are NCSeries, maps from words to rationals, multiplied by word
concatenation with everything past the truncation degree discarded as it
arises.  Deliberately the slow, obvious algorithm, none of the matrix
pipeline's: no matrices, no packed lanes, no row or column log.  It shares only
the word series type and the input SeriesSpec with the rest of the package,
and does its own fraction-free arithmetic: integer numerators per word over
one common denominator, and one Fraction per output word at the end.
One ``oracle_log`` run at the top order answers a whole ``verify`` route.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .trimatrix import SeriesSpec
from .words import Alphabet, NCSeries, Word

# Public name kept for importers; the oracle works on the shared word series.
TruncatedNCSeries = NCSeries


def _numerators(a: NCSeries) -> tuple[dict[Word, int], int]:
    """a as integer numerators over the lcm of its denominators."""
    den = lcm(*(c.denominator for c in a.terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in a.terms.items()}, den


def _concat(a: dict[Word, int], b: dict[Word, int], cap: int) -> dict[Word, int]:
    """Integer concatenation product without overweight words or zeros; b is
    bucketed by length so only pairs that fit under ``cap`` are touched."""
    buckets: dict[int, list[tuple[Word, int]]] = {}
    for wb, cb in b.items():
        buckets.setdefault(len(wb), []).append((wb, cb))
    out: dict[Word, int] = {}
    for wa, ca in a.items():
        room = cap - len(wa)
        for length, pairs in buckets.items():
            if length > room:
                continue
            for wb, cb in pairs:
                word = wa + wb
                out[word] = out.get(word, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product, dropping overweight words as they arise."""
    a._compatible(b)
    na, da = _numerators(a)
    nb, db = _numerators(b)
    den = da * db
    return a._with_terms({w: Fraction(c, den) for w, c in _concat(na, nb, a.max_degree).items()})


def _power_sum(a: NCSeries, weights: list[Fraction]) -> NCSeries:
    """sum_k weights[k] x^k, k = 0..max_degree, x = a minus its integer
    constant, stopping once x^k vanishes.  x^k is integers over dx**k, so every
    term is an integer over lcm(weight denominators) * dx**max_degree."""
    cap = a.max_degree
    x, dx = _numerators(a)
    x.pop((), None)
    big = lcm(*(w.denominator for w in weights))
    power, acc = {(): 1}, {}
    for k, w in enumerate(weights):
        if k:
            power = _concat(power, x, cap)
            if not power:
                break
        scale = w.numerator * (big // w.denominator) * dx ** (cap - k)
        for word, c in power.items():
            acc[word] = acc.get(word, 0) + scale * c
    den = big * dx**cap
    return a._with_terms({w: Fraction(c, den) for w, c in acc.items() if c})


def nc_exp(a: NCSeries) -> NCSeries:
    """sum_{k=0}^{n} a^k / k! for a with zero constant term."""
    if a.coefficient(()) != 0:
        raise ValueError("nc_exp needs a zero constant term")
    return _power_sum(a, [Fraction(1, factorial(k)) for k in range(a.max_degree + 1)])


def nc_log(a: NCSeries) -> NCSeries:
    """-sum_{q=1}^{n} ((-1)^q / q) (a - 1)^q for a with constant term 1."""
    if a.coefficient(()) != 1:
        raise ValueError("nc_log needs constant term exactly 1")
    weights = [Fraction((-1) ** (q + 1), q) if q else Fraction(0) for q in range(a.max_degree + 1)]
    return _power_sum(a, weights)


def series_at_letter(
    f: SeriesSpec, alphabet: Alphabet, max_degree: int, index: int
) -> NCSeries:
    """f evaluated at a single letter: sum_k c_k letter^k up to the cap."""
    terms = {(index,) * k: f.coeff(k) for k in range(max_degree + 1)}
    return NCSeries(alphabet, max_degree, terms)


def oracle_log(n: int, m: int, f_list: list[SeriesSpec], alphabet: Alphabet | None = None) -> NCSeries:
    """log(f_0(a_0) f_1(a_1) ...) truncated past degree n, by direct expansion.
    Its degree-d slice is z_d for every d <= n: concatenation never shortens a
    word, so truncating at n drops nothing that reaches degree <= n."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"factor count must be >= 2, got {m}")
    if len(f_list) != m:
        raise ValueError(f"expected {m} series, got {len(f_list)}")
    if alphabet is None:
        alphabet = Alphabet.default(m)
    if alphabet.size != m:
        raise ValueError(f"alphabet has {alphabet.size} letters, need {m}")
    product = None
    for k, f in enumerate(f_list):
        factor = series_at_letter(f, alphabet, n, k)
        product = factor if product is None else nc_mul(product, factor)
    return nc_log(product)


def oracle_bch(n: int, m: int, f_list: list[SeriesSpec], alphabet: Alphabet | None = None) -> NCSeries:
    """Degree-n slice of log(f_0(a_0) f_1(a_1) ...) by direct expansion."""
    return NCSeries.from_lex(alphabet or Alphabet.default(m), n, *oracle_log(n, m, f_list, alphabet).to_lex(n))
