"""Shared test support: full-matrix exp/log and small reference routines.

These stay out of the package on purpose; the round-trip and
two-construction-path tests below want an implementation that does not
reuse the code under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from bchkit.multilinear import MultilinearPoly
from bchkit.trimatrix import TriMatrix, mat_mul
from bchkit.words import Alphabet, NCSeries, Word


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


def lane_masks(d: int, start: int, depth: int) -> list[int]:
    """The masks of an order-d run of P-lanes from ``start``, one every
    2**depth: P-lane f (bit t-1 set when s_1 ... s_t = -1) is the mask with
    bit i set when s_{i+1} = -1, written out sign by sign."""
    masks = []
    for f in range(start, 1 << d, 1 << depth):
        prefix = [1] + [-1 if (f >> t) & 1 else 1 for t in range(d)]
        masks.append(sum(1 << i for i in range(d) if prefix[i] * prefix[i + 1] < 0))
    return masks


def lane_leaves(lanes, depth: int = 0) -> list[tuple[int, int, Fraction]]:
    """``signedeval._walk``'s lanes of a subtree at ``depth``, or ``_lattice``'s
    (one depth-0 run per order), as (order, mask, value) leaves, in lane
    order, so tests compare values with the reference."""
    return [
        (d, mask, Fraction(num, den))
        for d, den, start, nums in lanes
        for mask, num in zip(lane_masks(d, start, depth), nums, strict=True)
    ]


def to_lex(series: NCSeries, degree: int) -> tuple[int, list[int]]:
    """What ``NCSeries.from_lex`` reads back as the words of length ``degree``:
    the lcm of their denominators and every one's numerator over it, zeros
    included.  The reference form ``freealgebra.oracle_lanes`` is checked
    against."""
    coeffs = [series.terms.get(w, 0) for w in itertools.product(range(series.alphabet.size), repeat=degree)]
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


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


def series_at_letter(f, alphabet: Alphabet, max_degree: int, index: int) -> NCSeries:
    """f evaluated at a single letter: sum_k c_k letter^k up to the cap."""
    terms = {(index,) * k: f.coeff(k) for k in range(max_degree + 1)}
    return NCSeries(alphabet, max_degree, terms)


def oracle_log_reference(n: int, m: int, f_list) -> NCSeries:
    """log(f_0(a_0) f_1(a_1) ...) truncated past degree n, on word dicts and
    Fractions: the factor product through nc_mul_reference, then
    nc_log_reference, with no flat list anywhere."""
    alphabet = Alphabet.default(m)
    product = NCSeries(alphabet, n, {(): 1})
    for k, f in enumerate(f_list):
        product = nc_mul_reference(product, series_at_letter(f, alphabet, n, k))
    return nc_log_reference(product)


def prime_series(n: int) -> list[str]:
    """Coefficients of 1 + t/1009 + t^2/1013 + ... up to t^n, over the primes
    from 1009 up: a series whose lanes are far wider than exp's."""
    primes, p = [], 1009
    while len(primes) < n:
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            primes.append(p)
        p += 1
    return ["1", *(f"1/{p}" for p in primes)]


def bernoulli(n: int) -> list[Fraction]:
    """B_0 .. B_n (B_1 = -1/2) from sum_(k <= j) C(j + 1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, n + 1):
        b.append(-sum(comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


def lie_bracket(a: dict, b: dict) -> dict:
    """ab - ba on word dicts, zero coefficients dropped."""
    out: dict = {}
    for u, c in a.items():
        for v, e in b.items():
            out[u + v] = out.get(u + v, 0) + c * e
            out[v + u] = out.get(v + u, 0) - c * e
    return {w: c for w, c in out.items() if c}


def compositions(total: int, parts: int):
    """The tuples of ``parts`` positive ints that sum to ``total``."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, total)))


def varadarajan_terms(n: int) -> list[dict]:
    """[z_1, ..., z_n] of log(e^x e^y) as word dicts, by Varadarajan's
    recursion (Casas and Murua, J. Math. Phys. 50, 033513, 2009): z_1 = x + y,
    (m+1) z_(m+1) = 1/2 [x - y, z_m]
    + sum_(p >= 1) K_2p sum_(k_1 + ... + k_2p = m) [z_k1, [..., [z_k2p, x + y]..]],
    K_2p = B_2p / (2p)!.  Test-only: it shares nothing with the matrix routes."""
    plus, minus = {(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}
    b, z = bernoulli(n), [plus]
    for m in range(1, n):
        acc = {w: Fraction(c, 2) for w, c in lie_bracket(minus, z[m - 1]).items()}
        for p in range(1, m // 2 + 1):
            weight = b[2 * p] / factorial(2 * p)
            for ks in compositions(m, 2 * p):
                nested = plus
                for k in reversed(ks):
                    nested = lie_bracket(z[k - 1], nested)
                for w, c in nested.items():
                    acc[w] = acc.get(w, 0) + weight * c
        z.append({w: c / (m + 1) for w, c in acc.items() if c})
    return z
