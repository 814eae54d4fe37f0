"""Unit upper-triangular matrices of multilinear polynomials.

Everything this package computes lives inside (n+1) x (n+1) upper-triangular
matrices whose entries are MultilinearPoly values.  The building blocks are
superdiagonal matrices, one per letter family: the base family puts plain 1s
on the superdiagonal, family k puts its position variables there.  A
superdiagonal matrix S is nilpotent with S**(n+1) = 0, so any power series
applied to S collapses to a polynomial and both the series evaluation and
the matrix logarithm below terminate exactly.

These matrices are the reference route, decode included.  The kernel in
``series`` applies the same factor matrices, as integer step coefficients,
to a packed last column and never forms a matrix; ``mat_mul``, the plain
Fraction ``log_upper_right`` and ``t_operator``, which reads the entry as
words, are what the tests compare it against, and ``word_matrix_product``
checks the word-to-matrix identity directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .multilinear import MultilinearPoly, mono_digits
from .words import Alphabet, NCSeries, SeriesSpec

BASE_FAMILY = 0


class TriMatrix:
    """Square matrix of MultilinearPoly entries, zero below the diagonal.

    ``n`` is the order of the surrounding computation; the matrix itself is
    (n+1) x (n+1).  Rows are stored densely and treated as immutable.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[Sequence[MultilinearPoly]]):
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        size = n + 1
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError(f"expected a {size}x{size} matrix")
        for i in range(size):
            for j in range(i):
                if rows[i][j]:
                    raise ValueError(f"nonzero entry below the diagonal at ({i},{j})")
        self.n = n
        self.rows = [list(r) for r in rows]

    @classmethod
    def identity(cls, n: int) -> "TriMatrix":
        zero = MultilinearPoly.zero(n)
        diag = MultilinearPoly.constant(n, 1)
        rows = [
            [diag if i == j else zero for j in range(n + 1)] for i in range(n + 1)
        ]
        return cls(n, rows)

    @classmethod
    def superdiagonal(cls, n: int, family: int) -> "TriMatrix":
        """The matrix with (i, i+1) entries only: constant 1 for the base
        family, the family's variable at position i+1 otherwise (rows
        0-based, positions 1-based)."""
        if family < 0:
            raise ValueError(f"family must be >= 0, got {family}")
        zero = MultilinearPoly.zero(n)
        rows = [[zero] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            if family == BASE_FAMILY:
                rows[i][i + 1] = MultilinearPoly.constant(n, 1)
            else:
                rows[i][i + 1] = MultilinearPoly.variable(n, i + 1, family)
        return cls(n, rows)

    def has_unit_diagonal(self) -> bool:
        one = MultilinearPoly.constant(self.n, 1)
        return all(self.rows[i][i] == one for i in range(self.n + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows


def mat_mul(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    """Exact product; triangularity keeps the inner sum to k in i..j."""
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} != {b.n}")
    n = a.n
    zero = MultilinearPoly.zero(n)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            acc = zero
            for k in range(i, j + 1):
                if a.rows[i][k] and b.rows[k][j]:
                    acc = acc + a.rows[i][k] * b.rows[k][j]
            rows[i][j] = acc
    return TriMatrix(n, rows)


def build_factor_matrix(n: int, family: int, f: SeriesSpec) -> TriMatrix:
    """f applied to the family's superdiagonal matrix.

    The powers of a superdiagonal matrix are shifted diagonals, so entry
    (i, j) of f(S) is c_{j-i} times the run of the family's variable over
    positions i+1..j; for the base family the run is the constant 1.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if family < 0:
        raise ValueError(f"family must be >= 0, got {family}")
    shift = (family - 1) * n
    zero = MultilinearPoly.zero(n)
    rows = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            run = 0 if family == BASE_FAMILY else ((1 << (j - i)) - 1) << (i + shift)
            rows[i][j] = MultilinearPoly(n, {run: f.coeff(j - i)})
    return TriMatrix(n, rows)


def log_upper_right(p: TriMatrix) -> MultilinearPoly:
    """Entry (1, n+1) of log p for unit-diagonal p, as a MultilinearPoly.

    log p = sum_{q=1}^{n} (-1)^{q+1}/q (p - I)^q stops at q = n because
    p - I is strictly upper triangular.  Only the first row of each power
    is needed: v_q = v_{q-1} (p - I), starting from the first row of p - I.
    The first row of (p - I)^q vanishes on columns < q, which bounds the
    inner sum below.  Products go through MultilinearPoly, so two factors
    sharing a position raise SupportOverlapError.
    """
    if not p.has_unit_diagonal():
        raise ValueError("log requires a unit diagonal")
    n = p.n
    zero = MultilinearPoly.zero(n)
    v = [zero] + p.rows[0][1:]
    acc = v[n]
    for q in range(2, n + 1):
        v = [zero] * q + [
            sum((v[k] * p.rows[k][j] for k in range(q - 1, j) if v[k]), zero)
            for j in range(q, n + 1)
        ]
        acc = acc + v[n] * Fraction((-1) ** (q + 1), q)
    return acc


def word_matrix_product(n: int, word: "str | Sequence[int]") -> MultilinearPoly:
    """(1, n+1) entry of the product of superdiagonal matrices read off a
    length-n word over {M, N}: M is the base superdiagonal, N the family-1
    one.  The result is the single monomial marking the N positions."""
    if isinstance(word, str):
        symbol_map = {"M": 0, "N": 1}
        try:
            picks = [symbol_map[ch] for ch in word]
        except KeyError as exc:
            raise ValueError(f"word symbols must be M or N, got {exc.args[0]!r}")
    else:
        picks = list(word)
        if any(s not in (0, 1) for s in picks):
            raise ValueError("word entries must be 0 (M) or 1 (N)")
    if len(picks) != n:
        raise ValueError(f"word length {len(picks)} != order {n}")
    base = TriMatrix.superdiagonal(n, 0)
    sigma = TriMatrix.superdiagonal(n, 1)
    product = base if picks[0] == 0 else sigma
    for s in picks[1:]:
        product = mat_mul(product, base if s == 0 else sigma)
    return product.rows[0][n]


def t_operator(p: MultilinearPoly, alphabet: Alphabet) -> NCSeries:
    """Transport a multilinear polynomial to the word basis.

    A monomial maps to the length-n word carrying letter k at each position
    occupied by a family-k variable and the base letter elsewhere; this is a
    bijection on basis elements, so coefficients transfer unchanged.
    """
    n = p.n
    return NCSeries(alphabet, n, {mono_digits(n, mono): c for mono, c in p.terms.items()})
