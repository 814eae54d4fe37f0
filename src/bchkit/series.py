"""Top-level term computations: the T operator, log(e^x e^y), multi-factor
products, and products of arbitrary power series with f(0) = 1.

The route is always the same: build one unit-triangular factor matrix per
letter, multiply them, take the upper-right entry of the exact matrix
logarithm, and transport the resulting multilinear polynomial to the word
basis with the T operator.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .multilinear import MultilinearPoly, mono_digits
from .trimatrix import SeriesSpec, build_factor_matrix, log_upper_right, mat_mul
from .words import Alphabet, NCSeries


def t_operator(p: MultilinearPoly, alphabet: Alphabet) -> NCSeries:
    """Transport a multilinear polynomial to the word basis.

    A monomial maps to the length-n word carrying letter k at each position
    occupied by a family-k variable and the base letter elsewhere; this is a
    bijection on basis elements, so coefficients transfer unchanged.
    """
    n = p.n
    return NCSeries(alphabet, n, {mono_digits(n, mono): c for mono, c in p.terms.items()})


def _check_order(n: int) -> None:
    # The construction starts at n = 1; n = 0 has no degenerate meaning here.
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")


def _term_for(n: int, f_list: Sequence[SeriesSpec], alphabet: Alphabet) -> NCSeries:
    _check_order(n)
    if len(f_list) < 2:
        raise ValueError(f"need at least 2 factors, got {len(f_list)}")
    if len(f_list) != alphabet.size:
        raise ValueError(
            f"{len(f_list)} factors need {len(f_list)} letters, alphabet has {alphabet.size}"
        )
    product = None
    for family, f in enumerate(f_list):
        factor = build_factor_matrix(n, family, f)
        product = factor if product is None else mat_mul(product, factor)
    return t_operator(log_upper_right(product), alphabet)


@cache
def _term_cached(n: int, f_list: tuple[SeriesSpec, ...], alphabet: Alphabet) -> NCSeries:
    return _term_for(n, f_list, alphabet)


def _dispatch(n: int, f_list: Sequence[SeriesSpec], alphabet: Alphabet | None) -> NCSeries:
    _check_order(n)
    if alphabet is None:
        alphabet = Alphabet.default(len(f_list))
    return _term_cached(n, tuple(f_list), alphabet)


def bch_term(n: int, alphabet: Alphabet | None = None) -> NCSeries:
    """The complete order-n term of log(e^x e^y), exact rationals."""
    _check_order(n)
    exp = SeriesSpec.exponential(n)
    return _dispatch(n, [exp, exp], alphabet)


def bch_term_multi(n: int, m: int, alphabet: Alphabet | None = None) -> NCSeries:
    """Order-n term of log(e^{a_0} e^{a_1} ... e^{a_{m-1}}) over m letters."""
    _check_order(n)
    if m < 2:
        raise ValueError(f"factor count must be >= 2, got {m}")
    exp = SeriesSpec.exponential(n)
    return _dispatch(n, [exp] * m, alphabet)


def logf_term(
    n: int, f_list: Sequence[SeriesSpec], alphabet: Alphabet | None = None
) -> NCSeries:
    """Order-n term of log(f_0(a_0) f_1(a_1) ...), one series per factor.

    Per-factor series generalize the common-f product; with every series
    equal to exp this coincides with bch_term_multi.
    """
    return _dispatch(n, list(f_list), alphabet)


def clear_term_cache() -> None:
    """Drop memoized terms (benchmarking support)."""
    _term_cached.cache_clear()


def term_uncached(n: int, f_list: Sequence[SeriesSpec], alphabet: Alphabet | None = None) -> NCSeries:
    """One full pipeline run bypassing the memo cache (benchmarking support)."""
    if alphabet is None:
        alphabet = Alphabet.default(len(f_list))
    return _term_for(n, list(f_list), alphabet)
