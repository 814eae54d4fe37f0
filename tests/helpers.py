"""Shared test support: full-matrix exp/log and small reference routines.

These stay out of the package on purpose; the round-trip and
two-construction-path tests below want an implementation that does not
reuse the code under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd, lcm

from bchkit.multilinear import MultilinearPoly
from bchkit.trimatrix import TriMatrix, mat_mul
from bchkit.words import NCSeries, Word


def mat_add(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    rows = [
        [a.rows[i][j] + b.rows[i][j] for j in range(a.n + 1)] for i in range(a.n + 1)
    ]
    return TriMatrix(a.n, rows)


def mat_scale(a: TriMatrix, c: Fraction) -> TriMatrix:
    rows = [[c * e for e in row] for row in a.rows]
    return TriMatrix(a.n, rows)


def mat_sub(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    return mat_add(a, mat_scale(b, Fraction(-1)))


def mat_zero(n: int) -> TriMatrix:
    zero = MultilinearPoly.zero(n)
    return TriMatrix(n, [[zero] * (n + 1) for _ in range(n + 1)])


def matrix_log_full(p: TriMatrix) -> TriMatrix:
    """Whole-matrix log via the alternating power sum; test support only."""
    n = p.n
    u = mat_sub(p, TriMatrix.identity(n))
    acc = mat_zero(n)
    power = TriMatrix.identity(n)
    for q in range(1, n + 1):
        power = mat_mul(power, u)
        acc = mat_add(acc, mat_scale(power, Fraction((-1) ** (q + 1), q)))
    return acc


def matrix_exp_full(a: TriMatrix) -> TriMatrix:
    """Whole-matrix exp of a strictly upper-triangular matrix."""
    n = a.n
    acc = TriMatrix.identity(n)
    power = TriMatrix.identity(n)
    for k in range(1, n + 1):
        power = mat_mul(power, a)
        acc = mat_add(acc, mat_scale(power, Fraction(1, factorial(k))))
    return acc


def explicit_exp_of_superdiagonal(n: int, family: int) -> TriMatrix:
    """sum_k M^k / k! by explicit powers, the second construction path."""
    m = TriMatrix.superdiagonal(n, family)
    acc = TriMatrix.identity(n)
    power = TriMatrix.identity(n)
    for k in range(1, n + 1):
        power = mat_mul(power, m)
        acc = mat_add(acc, mat_scale(power, Fraction(1, factorial(k))))
    return acc


def all_words(n: int, m: int):
    return itertools.product(range(m), repeat=n)


def normalized_pair(num: int, den: int) -> tuple[int, int]:
    """Lowest-terms reduction done by hand: gcd after the fact."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if num == 0:
        return 0, 1
    g = gcd(abs(num), abs(den))
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    return num, den


def eval_assignment_reference(n: int, signs) -> Fraction:
    """The log entry at one +-1 assignment, one full row recurrence per call.

    Test-only reference for the lattice walk: u_q = u_{q-1} (F D F D - I)
    with column j scaled by j!, so F acts as the Pascal matrix, applied as
    n passes of neighbour additions per factor; no state is shared between
    assignments.
    """
    prefix = [1]
    for x in signs:
        prefix.append(prefix[-1] * x)
    big = lcm(*range(1, n + 1))
    u = [1] + [0] * n
    acc = 0
    for q in range(1, n + 1):
        w = list(u)
        for _ in range(2):
            # w[j] <- sum_k C(j, k) w[k], done as n passes of neighbour additions
            for i in range(n, 0, -1):
                for j in range(i, n + 1):
                    w[j] += w[j - 1]
            w = [p * x for p, x in zip(prefix, w)]
        u = [a - b for a, b in zip(w, u)]
        acc += (-1) ** (q + 1) * (big // q) * u[n]
    return Fraction(acc, big * factorial(n))


def lane_leaves(lanes) -> list[tuple[int, int, Fraction]]:
    """``signedeval._walk``'s or ``_lattice``'s lanes as (order, mask, value)
    leaves, in lane order, so tests compare values with the reference."""
    return [(d, mask, Fraction(num, den)) for d, den, masks, nums in lanes for mask, num in zip(masks, nums)]


def expand_commutators_reference(terms, alphabet) -> NCSeries:
    """Left-normed brackets expanded one at a time through word dicts.

    Test-only reference for the graded-lex transform: a length-n bracket
    unfolds into 2**(n-1) signed words, r(w'a) = r(w') a - a r(w'), and
    the words are merged into one map.
    """
    degree = max((len(t.word) for t in terms), default=0)
    acc = {}
    for term in terms:
        expansion = {term.word[:1]: 1}
        for letter in term.word[1:]:
            nxt = {}
            for u, c in expansion.items():
                nxt[u + (letter,)] = nxt.get(u + (letter,), 0) + c
                nxt[(letter,) + u] = nxt.get((letter,) + u, 0) - c
            expansion = nxt
        for u, c in expansion.items():
            acc[u] = acc.get(u, Fraction(0)) + term.coefficient * c
    return NCSeries(alphabet, degree, acc)


def nc_mul_reference(a: NCSeries, b: NCSeries) -> NCSeries:
    """Concatenation product on Fraction coefficients, one pair at a time.

    Test-only reference for the oracle's integer product: every fitting
    pair of words adds ca * cb to its concatenation, and a sum that
    reaches zero is deleted on the spot.
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


def nc_exp_reference(a: NCSeries) -> NCSeries:
    """sum_k a^k / k! through nc_mul_reference, one Fraction sum per power."""
    acc = power = NCSeries(a.alphabet, a.max_degree, {(): 1})
    for k in range(1, a.max_degree + 1):
        power = nc_mul_reference(power, a)
        if not power.terms:
            break
        acc = acc + power.scaled(Fraction(1, factorial(k)))
    return acc


def nc_log_reference(a: NCSeries) -> NCSeries:
    """-sum_q ((-1)^q / q) (a - 1)^q through nc_mul_reference."""
    power = NCSeries(a.alphabet, a.max_degree, {(): 1})
    u = a - power
    acc = NCSeries(a.alphabet, a.max_degree)
    for q in range(1, a.max_degree + 1):
        power = nc_mul_reference(power, u)
        if not power.terms:
            break
        acc = acc + power.scaled(Fraction((-1) ** (q + 1), q))
    return acc
