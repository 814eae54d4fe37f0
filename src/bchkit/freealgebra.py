"""Brute-force truncated free-algebra engine, the package's ground truth.

Series here are NCSeries, maps from words to rationals, multiplied by word
concatenation with everything past the truncation degree discarded as it
arises.  Deliberately the slow, obvious implementation: none of the matrix
pipeline's algorithm (no matrices, no multilinear polynomials, no first-row
log).  Its ``+`` and scaling are ``multilinear.ExactCombination``'s, shared
with ``MultilinearPoly``; the packed kernel calls neither, so a fault there
shows as oracle != kernel and as matrix reference != kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .trimatrix import SeriesSpec
from .words import Alphabet, NCSeries, Word

# Public name kept for importers; the oracle works on the shared word series.
TruncatedNCSeries = NCSeries


def nc_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product, dropping overweight words as they arise.

    b's terms are bucketed by length so only pairs that fit under the
    truncation degree are ever touched.
    """
    a._compatible(b)
    cap = a.max_degree
    buckets: dict[int, list[tuple[Word, Fraction]]] = {}
    for wb, cb in b.terms.items():
        buckets.setdefault(len(wb), []).append((wb, cb))
    out: dict[Word, Fraction] = {}
    zero = Fraction(0)
    for wa, ca in a.terms.items():
        room = cap - len(wa)
        for length, pairs in buckets.items():
            if length > room:
                continue
            for wb, cb in pairs:
                word = wa + wb
                s = out.get(word, zero) + ca * cb
                if s:
                    out[word] = s
                else:
                    del out[word]
    result = NCSeries(a.alphabet, cap)
    result.terms = out
    return result


def nc_exp(a: NCSeries) -> NCSeries:
    """sum_{k=0}^{n} a^k / k! for a with zero constant term."""
    if a.coefficient(()) != 0:
        raise ValueError("nc_exp needs a zero constant term")
    acc = power = NCSeries(a.alphabet, a.max_degree, {(): 1})
    for k in range(1, a.max_degree + 1):
        power = nc_mul(power, a)
        if not power.terms:
            break
        acc = acc + power.scaled(Fraction(1, factorial(k)))
    return acc


def nc_log(a: NCSeries) -> NCSeries:
    """-sum_{q=1}^{n} ((-1)^q / q) (a - 1)^q for a with constant term 1."""
    if a.coefficient(()) != 1:
        raise ValueError("nc_log needs constant term exactly 1")
    power = NCSeries(a.alphabet, a.max_degree, {(): 1})
    u = a - power
    acc = NCSeries(a.alphabet, a.max_degree)
    for q in range(1, a.max_degree + 1):
        power = nc_mul(power, u)
        if not power.terms:
            break
        acc = acc + power.scaled(Fraction((-1) ** (q + 1), q))
    return acc


def series_at_letter(
    f: SeriesSpec, alphabet: Alphabet, max_degree: int, index: int
) -> NCSeries:
    """f evaluated at a single letter: sum_k c_k letter^k up to the cap."""
    terms = {(index,) * k: f.coeff(k) for k in range(max_degree + 1)}
    return NCSeries(alphabet, max_degree, terms)


def oracle_bch(
    n: int, m: int, f_list: list[SeriesSpec], alphabet: Alphabet | None = None
) -> NCSeries:
    """Degree-n slice of log(f_0(a_0) f_1(a_1) ...) by direct expansion."""
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
    return nc_log(product).homogeneous_slice(n)
